(** Typed trace records — the one schema every trace path shares.
    {!Registry.records} and {!Monitor.records} build them, {!Btrace}
    stores them, {!Report} folds them, and [csync report --dump] prints
    each as one {!to_json} object per line.

    [of_json (to_json r) = Ok r] for every record the writers produce
    (integers within binary64's exact range). *)

type hist_rec = {
  lo : float;
  hi : float;
  per_decade : int option;  (** [Some pd] = log-bucketed, [None] = linear *)
  counts : int array;
  underflow : int;
  overflow : int;
  invalid : int;
  total : int;
}

type span_rec = { count : int; total_s : float; max_s : float }

type monitor_rec = { checks : int; violations : int; first : Json.t option }

type t =
  | Manifest of Json.t
  | Counter of string * int
  | Gauge of string * float
  | Series of string * float array * float array
  | Hist of string * hist_rec
  | Span of string * span_rec
  | Event of string * Json.t  (** name, fields object *)
  | Monitor of string * monitor_rec
  | Unknown of string * Json.t
      (** record kind this reader does not know — kept whole so callers
          can warn and skip, or carry it through a rewrite *)

val of_json : Json.t -> (t, string) result
(** Objects whose ["record"] kind is unrecognized decode as {!Unknown};
    [Error] only on a missing/malformed field of a known kind. *)

val to_json : t -> Json.t
(** The [csync-trace/1] JSON object ([{"record":<kind>, ...}]): the body
    btrace embeds for manifest/event/unknown records and the line
    [csync report --dump] prints.  {!Manifest} and {!Unknown} pass their
    original JSON through untouched. *)

val split_name : string -> string * string
(** [split_name "label/base"] is [("label", "base")]; a name with no
    ['/'] has label [""]. *)

val volatile_manifest_fields : string list
(** Manifest fields that legitimately differ between byte-identical
    computations ([captured_unix], [git_rev], [jobs]). *)

val volatile_base : string -> bool
(** Base names whose values depend on wall-clock or scheduling rather
    than the run's inputs ([pool.]/[profile.]/[obs.worker] prefixes).
    These are what {!canonical} drops and what the cross-run diff
    excludes from its identity verdict. *)

val canonical : t list -> t list
(** Restrict a trace to records that are a pure function of the run's
    inputs: drops spans and gauges (wall-clock / scheduling artifacts),
    metrics under the [pool.]/[profile.]/[obs.worker] base-name prefixes,
    and {!volatile_manifest_fields} from the manifest, and moves events
    last, grouped by cell label (each cell's in recording order).
    Canonical traces are byte-identical across [--jobs] and across host
    machines. *)
