(** A deterministic priority queue of simulation events.

    Events are ordered by [(time, class, sequence)]:
    - primary key: simulated time,
    - secondary key: event class — the paper's appendix requires that "a
      message delivery event has a higher priority than a timeout event"
      when both occur at the same instant; the engine encodes crashes <
      proposals < deliveries < timeouts as classes 0..3,
    - tertiary key: insertion sequence, which makes the pop order a pure
      function of the push order (no reliance on heap internals).

    Classes range over [0..63]: the class and the sequence number pack
    into one int key ([klass lsl 56 lor seq]), so ordering two events
    takes at most two int compares.

    Events live in two tiers. Simulated delays are bounded (every
    message takes at most U ticks and timers sit a few U ahead), so
    nearly every event lands in a sliding window of 4096 ticks that
    starts at the latest popped time. Inside the window, a ring holds
    one bucket per tick, so a bucket holds one instant's events, kept in
    (class, sequence) order. An insert nearly always appends at a
    bucket's tail, and the ring's minimum is the head of its first
    non-empty bucket, found from a cursor that scans forward. Events
    outside the window (long think gaps, election timers, adds before
    the last pop) wait in a binary heap and move into the ring as the
    window slides over them; the queue's minimum is the lesser of the
    two tiers' minima. A queue uses the ring only once it holds 128
    events, so a small queue is just the heap and never allocates the
    ring.

    Both tiers hold ints only: event times, packed keys and the indices
    of payload slots. A payload is written once into its slot by {!add}
    and read once by {!take}. Each event also carries an integer tag
    (the multi-shot service stores the owning instance there, see
    {!Mux}); the [min_*] readers and {!take} look at the minimum without
    allocating. *)

type 'a t

val create : unit -> 'a t

val add_tagged : 'a t -> time:Sim_time.t -> klass:int -> tag:int -> 'a -> unit
(** Enqueue an event carrying [tag]. Allocates the payload's option cell
    only.
    @raise Invalid_argument if [time < 0], [klass < 0] or [klass > 63]. *)

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
