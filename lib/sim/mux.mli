(** Instance-tagged event multiplexing over one {!Event_queue}.

    The multi-shot commit service drives many concurrent protocol
    instances through a single simulated clock: every instance's
    proposals, deliveries and timeouts interleave in one deterministic
    [(time, class, sequence)] order, exactly as the engine orders the
    events of a single run. [Mux] adds the one thing the service needs on
    top of {!Event_queue}: each event carries the integer tag of the
    instance it belongs to, and the queue tracks how many events are
    still outstanding per instance — an instance whose pending count
    drops to zero has quiesced (nothing in flight can change its state
    any more), which is the service's cue to finalize it.

    Events tagged with a negative instance id are service-level events
    (client submissions, batch-window expiries, shard outages); they are
    ordered like any other event but never tracked.

    Tags are allocated through {!alloc} and are never repeated, which is
    what makes {e re-tagging} sound: when a parked instance is re-driven
    (a recovery retry, or an elected stand-in coordinator taking over),
    the service binds the instance to a fresh tag and schedules the new
    machine's events under it — any event still queued under the old tag
    (a stale crash broadcast, a superseded election timer) dangles
    harmlessly, because nothing resolves the old tag any more. A tag
    encodes a (generation, slot) pair: the low {!slot} bits index the
    per-instance bookkeeping, and {!retire} recycles the slot under a
    bumped generation, so the queue's memory is proportional to the
    {e live} instance count rather than to every tag ever allocated — the
    property a million-transaction soak needs. Raw small integers (below
    [2^20]) used directly as instance ids behave exactly like first-
    generation tags. *)

type 'a t

val create : unit -> 'a t

val alloc : 'a t -> int
(** A fresh instance tag, never equal to any tag returned before on this
    queue. Its pending count starts at 0. *)

val retire : 'a t -> int -> unit
(** Release [tag]'s slot for re-allocation. Events still queued under
    [tag] become inert: they no longer affect any pending count (theirs,
    or the count of a later tag recycled onto the same slot). Retiring a
    stale (already superseded) tag is a no-op. *)

val slot : int -> int
(** The bookkeeping slot a tag occupies (its low bits). Two live tags
    never share a slot, so callers can index their own per-instance
    tables by [slot tag], provided stale tags are rejected by comparing
    the full tag. *)

val add : 'a t -> instance:int -> time:Sim_time.t -> klass:int -> 'a -> unit
(** Enqueue an event for [instance] (or a service event when
    [instance < 0]). The instance rides in the event's {!Event_queue} tag,
    so no [(instance, payload)] pair is built.
    @raise Invalid_argument if [time < 0] or [klass < 0]. *)

val min_time : 'a t -> Sim_time.t

val min_instance : 'a t -> int
(** The time and instance of the minimum event, read without
    allocating.
    @raise Invalid_argument when the queue is empty. *)

val take : 'a t -> 'a
(** Remove the minimum event and return its payload, decrementing its
    instance's pending count. A drive loop reads the minimum through the
    [min_*] accessors first, so one event costs no allocation beyond the
    payload's option cell written by {!add}.
    @raise Invalid_argument when the queue is empty. *)

val pending : 'a t -> int -> int
(** Events still queued for this instance. 0 for ids never seen and for
    tags whose slot has been retired. *)

val size : 'a t -> int
val is_empty : 'a t -> bool
