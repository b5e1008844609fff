(** A deterministic priority queue of simulation events.

    Events are ordered by [(time, class, sequence)]:
    - primary key: simulated time,
    - secondary key: event class — the paper's appendix requires that "a
      message delivery event has a higher priority than a timeout event"
      when both occur at the same instant; the engine encodes crashes <
      proposals < deliveries < timeouts as classes 0..3,
    - tertiary key: insertion sequence, which makes the pop order a pure
      function of the push order (no reliance on heap internals).

    The heap itself holds ints only: each position stores the event's
    key and the index of a payload slot. A payload is written once into
    its slot by {!add} and read once by {!take}, so sifting moves a few
    integers per level and never touches a payload. Each event also
    carries an integer tag (the multi-shot service stores the owning
    instance there, see {!Mux}); the [min_*] readers and {!take} look at
    the minimum without allocating. *)

type 'a t

val create : unit -> 'a t

val add_tagged : 'a t -> time:Sim_time.t -> klass:int -> tag:int -> 'a -> unit
(** Enqueue an event carrying [tag]. Allocates the payload's option cell
    only.
    @raise Invalid_argument if [time < 0] or [klass < 0]. *)

val add : 'a t -> time:Sim_time.t -> klass:int -> 'a -> unit
(** [add_tagged] with tag 0. *)

val min_time : 'a t -> Sim_time.t
val min_klass : 'a t -> int

val min_tag : 'a t -> int
(** The time, class and tag of the minimum event.
    @raise Invalid_argument when the queue is empty. *)

val take : 'a t -> 'a
(** Remove the minimum event and return its payload. Its slot is cleared,
    so the queue never pins a payload it has handed out.
    @raise Invalid_argument when the queue is empty. *)

val pop : 'a t -> (Sim_time.t * int * 'a) option
(** Remove and return the minimum event as [(time, klass, payload)], or
    [None] when empty. Allocates the result; the simulation loops use the
    [min_*] readers and {!take} instead. *)

val peek_time : 'a t -> Sim_time.t option
val is_empty : 'a t -> bool
val size : 'a t -> int

val capacity : 'a t -> int
(** Number of backing slots currently allocated. Draining the queue keeps
    a bounded capacity (taken slots are cleared in place, never pinning
    their payloads), so an engine queue that empties between instants
    does not re-grow from scratch on every refill; a drain after an
    unusually large burst shrinks back to the retention bound. Exposed
    for the regression tests. *)
