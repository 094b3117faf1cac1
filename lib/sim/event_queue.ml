(* The scheduler: one binary min-heap over (time, prio, seq), where seq is
   the insertion sequence number.  The heap is held struct-of-arrays in
   three flat arrays - unboxed float times, packed (prio, seq) int keys and
   payloads - so a comparison reads two unboxed words and never follows a
   pointer.  Sifts move a hole instead of swapping entries: the moving
   entry is held in locals and written once, at its final slot, so each
   level costs one copy rather than a three-array swap.  Keys are unique
   (seq is), so the order is total and pops are deterministic.

   Slots past [len] keep stale entries until overwritten, so the heap can
   pin up to its high-water mark of popped payloads. *)

let prio_message = 0

let prio_timer = 1

(* Priority classes are tiny by design (two are used), so (prio, seq) packs
   into one int whose natural order is the lexicographic (prio, seq) order:
   seq stays below 2^42 in any conceivable run and prio is bounded by
   [max_prio], checked in [add]. *)
let prio_bits = 20

let max_prio = (1 lsl prio_bits) - 1

let seq_bits = 42

type 'a t = {
  mutable times : float array;
  mutable keys : int array;
  mutable pays : 'a array;
  mutable len : int;
  mutable next_seq : int; (* insertion sequence number of the next add *)
  init_cap : int; (* capacity of the first allocation *)
}

(* The arrays are allocated on the first add, which supplies the payload
   that fills a fresh ['a array]. *)
let create ?(expected = 0) () =
  {
    times = [||];
    keys = [||];
    pays = [||];
    len = 0;
    next_seq = 0;
    init_cap = min (1 lsl 22) (max 16 expected);
  }

let size q = q.len

let is_empty q = q.len = 0

(* Strict (time, key) order.  Times are finite (checked in [add]), so the
   float operators agree with [Float.compare].  Inlined, like [move] and
   [place], so times stay unboxed through the sifts. *)
let[@inline] before (t : float) (k : int) (t' : float) (k' : int) =
  t < t' || (t = t' && k < k')

let grow q payload =
  let cap = Array.length q.times in
  let ncap = if cap = 0 then q.init_cap else 2 * cap in
  let nt = Array.make ncap 0. in
  let nk = Array.make ncap 0 in
  let nv = Array.make ncap payload in
  Array.blit q.times 0 nt 0 q.len;
  Array.blit q.keys 0 nk 0 q.len;
  Array.blit q.pays 0 nv 0 q.len;
  q.times <- nt;
  q.keys <- nk;
  q.pays <- nv

(* Every index below is inside [0, len) (or the slot being filled, below
   capacity), so accesses are unchecked. *)
let[@inline] move q ~src ~dst =
  Array.unsafe_set q.times dst (Array.unsafe_get q.times src);
  Array.unsafe_set q.keys dst (Array.unsafe_get q.keys src);
  Array.unsafe_set q.pays dst (Array.unsafe_get q.pays src)

let[@inline] place q i t k v =
  Array.unsafe_set q.times i t;
  Array.unsafe_set q.keys i k;
  Array.unsafe_set q.pays i v

let add q ~time ~prio payload =
  if not (Float.is_finite time) then
    invalid_arg "Event_queue.add: non-finite time";
  if prio < 0 || prio > max_prio then
    invalid_arg "Event_queue.add: prio out of range";
  let key = (prio lsl seq_bits) lor q.next_seq in
  q.next_seq <- q.next_seq + 1;
  if q.len = Array.length q.times then grow q payload;
  (* Sift up: move the hole at the new leaf toward the root while its
     parent orders after the new entry. *)
  let i = ref q.len in
  q.len <- q.len + 1;
  let rising = ref true in
  while !rising && !i > 0 do
    let p = (!i - 1) lsr 1 in
    if before time key (Array.unsafe_get q.times p) (Array.unsafe_get q.keys p)
    then begin
      move q ~src:p ~dst:!i;
      i := p
    end
    else rising := false
  done;
  place q !i time key payload

(* Drop the root: the last leaf fills the hole at the root, which sinks
   past every child that orders before it.  Allocation-free. *)
let remove_min q =
  let n = q.len - 1 in
  q.len <- n;
  if n > 0 then begin
    let t = Array.unsafe_get q.times n in
    let k = Array.unsafe_get q.keys n in
    let v = Array.unsafe_get q.pays n in
    let i = ref 0 in
    let sinking = ref true in
    while !sinking do
      let l = (2 * !i) + 1 in
      if l >= n then sinking := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && before (Array.unsafe_get q.times r) (Array.unsafe_get q.keys r)
                 (Array.unsafe_get q.times l) (Array.unsafe_get q.keys l)
          then r
          else l
        in
        if before (Array.unsafe_get q.times c) (Array.unsafe_get q.keys c) t k
        then begin
          move q ~src:c ~dst:!i;
          i := c
        end
        else sinking := false
      end
    done;
    place q !i t k v
  end

let peek_time q = if q.len = 0 then None else Some q.times.(0)

let pop_if_before q ~until =
  if q.len = 0 then None
  else
    let time = q.times.(0) in
    if time > until then None
    else begin
      let payload = q.pays.(0) in
      remove_min q;
      Some (time, payload)
    end

let pop q = pop_if_before q ~until:Float.infinity

let iter_pop_until q ~until ~f =
  let count = ref 0 in
  (* The heap is whole again before [f] runs, so [f] may add, including
     inside the window. *)
  while q.len > 0 && not (q.times.(0) > until) do
    let time = q.times.(0) in
    let payload = q.pays.(0) in
    remove_min q;
    incr count;
    f time payload
  done;
  !count
