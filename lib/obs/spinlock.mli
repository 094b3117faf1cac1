(** The telemetry modules' one lock: a compare-and-set busy-wait on an
    atomic flag.  The enabled {!Registry} and {!Monitor} are shared across
    pool domains, and the OCaml 4.14 build has no threads library, so a
    CAS spin is the one portable primitive; critical sections are a few
    stores, so contention is negligible. *)

type t

val create : unit -> t

val locked : t -> (unit -> 'a) -> 'a
(** Run the thunk holding the lock; released also when it raises. *)
