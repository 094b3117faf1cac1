(** Struct-of-arrays fault-tolerant averaging (Section 4.1 at scale).

    {!Csync_core.Maintenance} computes each round's correction through
    {!Csync_multiset}: one sorted array per process per round.  At n in the
    10^5-10^6 range that representation is cache-hostile - n small
    allocations per round, pointer-chased.  This module applies the same
    reduced-midpoint update to estimate rows held in flat float arrays,
    sorted and averaged in place with zero allocation: one row at a time
    ({!reduce_row}, what the scale round runs on each freshly filled
    scratch row) or a slab of [width]-float rows at once ({!sweep}, the
    layered reference).

    The degradation rule matches {!Maintenance}'s degraded average: a row
    that heard [count] estimates discards its [g = min f ((count - 1) / 3)]
    extremes on each side, so partially-heard rows (crashed neighbours,
    sparse topologies) still produce a defined correction.  With full
    attendance ([count = n] and [f < n/3]) this is exactly the paper's
    [mid o reduce]. *)

val g_of : f:int -> count:int -> int
(** Per-row discard width: [min f ((count - 1) / 3)] (0 for an empty row),
    i.e. the most extremes a [count]-element row can shed per side while
    keeping a nonempty, majority-correct core. *)

val sort_row : float array -> off:int -> len:int -> unit
(** Insertion-sort [slab.(off .. off+len-1)] ascending, in place:
    O(len + inversions), allocation-free, and the cheapest sort for the
    short rows (in-degree + 1 estimates) a round produces. *)

val reduce_row :
  float array -> off:int -> count:int -> f:int -> out:float array -> at:int ->
  unit
(** [reduce_row row ~off ~count ~f ~out ~at] sorts [row.(off ..
    off+count-1)] in place and writes its reduced midpoint
    [(row.(off+g) + row.(off+count-1-g)) / 2], [g = g_of ~f ~count], to
    [out.(at)]; an empty row ([count = 0]) writes [nan].  Agrees with
    [Csync_multiset.mid_reduced ~f:g] on the same values.  Stores rather
    than returns the midpoint, so a caller in another module allocates
    nothing either.
    @raise Invalid_argument if the row is out of [row]'s bounds or [at]
    out of [out]'s. *)

val sweep :
  slab:float array -> width:int -> counts:int array -> f:int ->
  out:float array -> unit
(** Row [i] of the slab is [slab.(i*width .. i*width + counts.(i) - 1)].
    {!reduce_row} on every row, into [out.(i)].  Allocation-free.
    @raise Invalid_argument if [f < 0], [out] is shorter than [counts],
    or any count is negative or exceeds [width]. *)
