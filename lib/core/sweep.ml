(* Struct-of-arrays fault-tolerant averaging: the reduced-midpoint round
   update of Section 4.1 applied row by row over flat float arrays, with
   no per-row allocation.  A row is reduced the moment it is filled (the
   scale round's scratch row) or a slab of rows at once ([sweep], the
   layered reference); both go through [reduce_row].  Csync_multiset is
   the reference implementation; the test suite checks every row result
   against it. *)

let g_of ~f ~count = if count <= 0 then 0 else min f ((count - 1) / 3)

(* Rows are short (a ring degree plus one), so insertion sort -
   O(len + inversions) - beats anything with setup cost here.  The float
   annotation is load-bearing: without it the function generalises to
   ['a array], and every comparison becomes a polymorphic compare call on
   a boxed float. *)
let sort_row (slab : float array) ~off ~len =
  for i = off + 1 to off + len - 1 do
    let x = Array.unsafe_get slab i in
    let j = ref i in
    while !j > off && Array.unsafe_get slab (!j - 1) > x do
      Array.unsafe_set slab !j (Array.unsafe_get slab (!j - 1));
      decr j
    done;
    Array.unsafe_set slab !j x
  done

let[@inline] mid_sorted slab ~off ~count ~g =
  (Array.unsafe_get slab (off + g) +. Array.unsafe_get slab (off + count - 1 - g))
  /. 2.

(* The midpoint is stored, not returned: a float result crossing a module
   boundary is boxed unless the call is inlined, one allocation per row. *)
let reduce_row slab ~off ~count ~f ~out ~at =
  if count < 0 || off < 0 || off + count > Array.length slab then
    invalid_arg "Sweep.reduce_row: row out of bounds";
  if count = 0 then out.(at) <- Float.nan
  else begin
    sort_row slab ~off ~len:count;
    out.(at) <- mid_sorted slab ~off ~count ~g:(g_of ~f ~count)
  end

let sweep ~slab ~width ~counts ~f ~out =
  let rows = Array.length counts in
  if Array.length out < rows then invalid_arg "Sweep.sweep: out too short";
  if f < 0 then invalid_arg "Sweep.sweep: negative f";
  for row = 0 to rows - 1 do
    let count = Array.unsafe_get counts row in
    if count < 0 || count > width then invalid_arg "Sweep.sweep: bad row count";
    reduce_row slab ~off:(row * width) ~count ~f ~out ~at:row
  done
