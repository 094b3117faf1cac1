(** Time-ordered event queue with deterministic tie-breaking.

    Events are ordered by (time, priority class, insertion sequence).  The
    priority class implements property 4 of the paper's execution model
    (Section 2.3): all TIMER messages received by a process at real time [t]
    are ordered {e after} any non-TIMER messages arriving at the same [t]
    ("messages that arrive at the same time as a timer is due to go off get
    in just under the wire").  Schedule ordinary and START messages with
    {!prio_message} and timers with {!prio_timer}.

    The implementation is one binary min-heap held in three flat arrays
    (times, packed (prio, seq) keys, payloads): O(log n) add and pop, and
    a pop allocates nothing inside the queue. *)

type 'a t

val prio_message : int
(** Priority class for ordinary and START messages (delivered first). *)

val prio_timer : int
(** Priority class for TIMER messages (delivered after messages at equal
    time). *)

val create : ?expected:int -> unit -> 'a t
(** [expected] is a capacity hint: the first allocation holds
    [max 16 expected] events (at most 2^22), so a queue that stays within
    the hint never re-blits while growing.  Order does not depend on it. *)

val size : 'a t -> int

val is_empty : 'a t -> bool

val add : 'a t -> time:float -> prio:int -> 'a -> unit
(** @raise Invalid_argument if [time] is not finite or [prio] is outside
    [0, 2^20) — priority {e classes} are few and small by design, which
    lets the queue carry (prio, seq) as one packed integer. *)

val peek_time : 'a t -> float option
(** Earliest scheduled time, if any. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event (breaking ties by priority class,
    then insertion order). *)

val pop_if_before : 'a t -> until:float -> (float * 'a) option
(** [pop] the earliest event only if its time is [<= until]; a single queue
    traversal replacing the peek-then-pop pattern.  [pop q] is
    [pop_if_before q ~until:infinity]. *)

val iter_pop_until : 'a t -> until:float -> f:(float -> 'a -> unit) -> int
(** Repeatedly pop events with time [<= until], calling [f time payload] on
    each, and return how many were delivered.  [f] may add further events,
    including inside the window — they are delivered in order within the
    same call.  Allocation-free per event apart from the float boxing at
    the callback boundary. *)
