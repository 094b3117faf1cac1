(** Run-scoped telemetry registry.

    A registry is either {e enabled} (created by [csync trace] or a test)
    or the shared disabled singleton {!none}.  Handles minted from a
    disabled registry are permanent no-ops — the disabled hot path is a
    single pattern-match branch with no allocation, measured by the
    [obs] bench kernel.

    Instrumented components capture {!installed} at {e creation} time
    (engine/buffer/automaton construction), so enabling telemetry never
    changes call signatures, and — the cardinal invariant — never
    changes what an experiment computes: instrumentation only observes,
    it draws no randomness and alters no scheduling.

    Enabled registries are safe to share across pool domains: counters
    are atomics, everything else takes a short CAS spinlock (portable to
    the 4.14 leg, which builds without the threads library). *)

type t

val none : t
(** The disabled singleton. *)

val create : unit -> t
(** A fresh enabled registry. *)

val enabled : t -> bool

(** {2 Ambient installation} *)

val install : t -> unit
(** Make [t] the ambient registry picked up by components created from
    now on.  Call before constructing the traced run. *)

val installed : unit -> t
(** The ambient registry ({!none} unless {!install} was called). *)

val clear_installed : unit -> unit

val set_label : t -> string -> unit
(** Prefix metric names subsequently minted {e on this worker} with
    [label ^ "/"]; the harness sets this to the experiment-cell label
    around each task so per-cell metrics don't collide.  The label is
    worker-local storage ({!Tls}: [Domain.DLS] on OCaml 5), so per-cell
    names are exact under any [--jobs], including [> 1]. *)

val label : t -> string
(** The label currently in force on this worker. *)

external now_ns : unit -> int = "csync_mono_ns" [@@noalloc]
(** The host's monotonic clock ([CLOCK_MONOTONIC]) in integer nanoseconds
    since an unspecified epoch.  It never steps backwards, so span and
    phase durations timed on it are never negative, even when the wall
    clock is adjusted mid-span. *)

(** {2 Instruments}

    All [value]/[points]/[count] accessors return zero/empty on no-op
    handles. *)

module Counter : sig
  type handle

  val noop : handle

  val incr : handle -> unit

  val add : handle -> int -> unit

  val value : handle -> int
end

module Gauge : sig
  type handle

  val noop : handle

  val active : handle -> bool
  (** [false] on no-op handles; guard expensive argument computation. *)

  val set : handle -> float -> unit

  val observe_max : handle -> float -> unit
  (** High-water mark: keeps the max of all observations. *)

  val value : handle -> float option
end

module Series : sig
  type handle

  val noop : handle

  val active : handle -> bool

  val push : handle -> float -> float -> unit
  (** [push h x y] appends an (x, y) point. *)

  val points : handle -> (float * float) list
end

module Hist : sig
  type handle

  val noop : handle

  val active : handle -> bool

  val add : handle -> float -> unit

  val count : handle -> int

  val merge : handle -> Csync_metrics.Histogram.t -> unit
  (** Fold a worker-local histogram's counters in (the {!Shard} merge
      primitive).  @raise Invalid_argument on a shape mismatch. *)
end

module Span : sig
  type handle

  val noop : handle

  val active : handle -> bool

  val record : handle -> float -> unit
  (** Record a duration in seconds. *)

  val to_ns : float -> int
  (** Seconds to the integer nanoseconds spans accumulate in (rounded,
      clamped at zero).  Exposed for shard-local span accumulators. *)

  val time : handle -> (unit -> 'a) -> 'a
  (** Run the thunk, recording its duration on {!now_ns} (also on
      raise).  On a no-op handle this is exactly [f ()]. *)

  val count : handle -> int

  val add : handle -> count:int -> total_s:float -> max_s:float -> unit
  (** Fold a worker-local span accumulator in (the {!Shard} merge
      primitive). *)
end

val counter : t -> string -> Counter.handle

val gauge : t -> string -> Gauge.handle

val series : t -> string -> Series.handle

val hist : t -> lo:float -> hi:float -> bins:int -> string -> Hist.handle
(** Interned by name; [lo]/[hi]/[bins] are taken from the first minting. *)

val hist_log : t -> lo:float -> hi:float -> per_decade:int -> string -> Hist.handle
(** Log-bucketed (HDR-style) histogram, [per_decade] bins per decade over
    [lo, hi] ({!Csync_metrics.Histogram.log}) — for skew/delay
    distributions spanning decades.  Interned by name like {!hist}. *)

val span : t -> string -> Span.handle

val event : t -> string -> (string * Json.t) list -> unit
(** Append a structured event (capped at 65536 per run; overflow is
    counted and reported as [obs.events_dropped]). *)

val records : t -> Record.t list
(** Every record, deterministically ordered: counters, the
    [obs.events_dropped] counter (when events overflowed), gauges,
    series, histograms, spans (each sorted by name), then events in
    emission order. *)

val dump : t -> Json.t list
(** [List.map Record.to_json (records t)]. *)
