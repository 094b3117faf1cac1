(** Sharded driver for the struct-of-arrays cluster model
    ({!Csync_process.Soa}) - synchronization rounds at n ~ 10^5-10^6
    across {!Pool} workers.

    Each round splits the destination space into contiguous shards, one
    per worker.  A worker fills one destination's estimates at a time
    into a private [width]-float scratch row
    ({!Csync_process.Soa.fill_row}) and reduces that row at once
    ({!Csync_core.Sweep.reduce_row}), so no slab of the round's estimates
    is ever allocated: a round allocates its per-row midpoints and little
    else.  Results are stitched positionally, so the state trajectory is
    byte-identical for any worker count - the same invariant the
    experiment suite holds through {!Pool}.  No phase orders events in
    time: a row's correction depends only on its estimate multiset.  The
    canonical (time, prio, stable id) event order is kept as a test
    oracle, {!reference_run}.

    When the ambient {!Csync_obs.Registry} is enabled, each worker
    additionally fills a private telemetry shard ({!Csync_obs.Shard}:
    [scale.events], log-bucketed [scale.link_delay] / [scale.local_skew]
    histograms), folded into the registry in shard-index order after the
    join.  Through {!Csync_obs.Profile} the orchestrator records the fill
    phase (the slowest worker's fused fill-and-reduce time, one point per
    round) and times the apply/advance/shard-merge/checksum phases, and it
    pushes per-round convergence series.  All of it observes only -
    results are byte-identical with telemetry on or off, and the merged
    trace is byte-identical at any [--jobs] (modulo the wall-clock records
    a canonical trace drops). *)

val round : ?jobs:int -> Csync_process.Soa.t -> int * int
(** Simulate one round across [jobs] shards (default
    {!Pool.default_jobs}), apply every correction, and advance the model.
    Returns [(events, digest)]: the round's event count (arrivals plus one
    round timer per nonfaulty process, summed over the shards) and an
    order-free digest of the per-row reduced midpoints (one hash per row,
    summed inside the workers) - both independent of [jobs]. *)

val reference_run : ?jobs:int -> rounds:int -> Csync_process.Soa.t -> int * int
(** Test oracle for the canonical event order.  Runs [rounds] rounds with
    {!round}; before each, materialises that round's arrivals and timers
    ({!Csync_process.Soa.events}), sorts them by (time, prio, stable id)
    and folds them into a merge checksum - a [mix] chain from [0x5EED] over
    each event's time and [(prio lsl 42 lor id)] key.  Returns the total
    event count and the fold of the per-round checksums, the pair the
    golden trajectories pin.  O(E log E) time and O(E) memory per round of
    E events. *)

type stats = {
  n : int;
  jobs : int;
  shards : int;
  rounds : int;
  events : int;  (** total events across all rounds *)
  checksum : int;  (** fold of the per-round midpoint digests *)
  state : int;  (** {!state_checksum} of the final model state *)
  spread0 : float;  (** nonfaulty broadcast-time spread before round 1 *)
  spread1 : float;  (** same spread after the last round *)
  local0 : float;  (** worst per-edge spread (local skew) before round 1 *)
  local1 : float;  (** same after the last round *)
}

val run : ?jobs:int -> ?rounds:int -> Csync_process.Soa.t -> stats
(** Run [rounds] (default 1) rounds.  With a dispersion well above eps the
    reduced-midpoint update contracts [spread1] below [spread0]
    (Lemma 9's halving, degraded to the ring's per-row attendance). *)

val state_checksum : Csync_process.Soa.t -> int
(** Checksum over the model's correction variables (and round counter):
    two runs that agree here followed the same trajectory - the
    worker-count identity check in the tests. *)
