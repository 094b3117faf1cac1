(** Per-worker telemetry shards.

    A shard is a worker-local metric scope: plain unsynchronized cells
    that exactly one pool worker touches during a parallel region, so
    per-event instrumentation (histogram adds at n = 10^5) costs a
    branch and a store instead of contending on the shared registry's
    atomics.  Afterwards the {e orchestrator} folds each shard into the
    registry with {!merge}, in shard-index order; the kinds a shard
    holds (counters, log histograms, spans) commute, so trace output is
    byte-identical at any [--jobs].

    Handles minted from a disabled registry's shard ({!create} on
    {!Registry.none}) are permanent no-ops; the disabled hot path is one
    pattern-match branch, perf-gated by the [obs/shard-incr-disabled]
    bench kernel. *)

type t

val disabled : t

val create : Registry.t -> t
(** A shard scoped to [reg]; disabled (all-no-op) iff [reg] is. *)

val active : t -> bool

module Counter : sig
  type handle

  val noop : handle

  val incr : handle -> unit

  val add : handle -> int -> unit

  val value : handle -> int
end

module Hist : sig
  type handle

  val noop : handle

  val active : handle -> bool

  val add : handle -> float -> unit

  val count : handle -> int
end

module Span : sig
  type handle

  val noop : handle

  val active : handle -> bool

  val record : handle -> float -> unit

  val time : handle -> (unit -> 'a) -> 'a
end

(** Handles intern by base name within the shard; the worker-local label
    prefix is applied by the registry at {!merge} time.  Reusing a name
    with a different instrument kind raises [Invalid_argument]. *)

val counter : t -> string -> Counter.handle

val hist_log : t -> lo:float -> hi:float -> per_decade:int -> string -> Hist.handle
(** Log-bucketed, like {!Registry.hist_log}. *)

val span : t -> string -> Span.handle

val merge : t -> unit
(** Fold every cell into the registry (one registry operation per cell:
    counter add, histogram bin-fold, span fold).
    Call from the orchestrating thread after the parallel region, in
    shard-index order, under the owning cell's label.  No-op on a
    disabled shard. *)
