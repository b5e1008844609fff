(** A lock-free visited table shared across domains.

    In [--shared-visited] and [--swarm] modes every worker of one
    vote-set group dedups against the same table: a state reachable from
    several schedule prefixes (or several randomized swarm walks) is
    explored once globally. The table is an array of CAS-published
    bucket lists — no mutexes anywhere — so the dedup hot path is one
    atomic load plus a short chain scan, and concurrent inserts of
    distinct keys never serialize unless they collide in a bucket.

    The resulting counters are {e jobs-dependent}: which of two racing
    workers gets to count a shared state as fresh depends on timing. The
    deterministic per-item tables remain the default; this table backs
    the explicitly opted-in shared modes (see DESIGN.md).

    Size accounting is monotone and acknowledgment-consistent: the
    counter is bumped between the winning CAS and the insert's return,
    and never decremented — so once any caller has been told its insert
    was fresh, every subsequently ordered {!size} read includes it, and
    a sequence of [size] reads never decreases. *)

type 'a t

val create : ?bits:int -> capacity:int -> unit -> 'a t
(** [create ?bits ~capacity ()] makes a table of at least [2^bits]
    buckets (default [2^6]), grown toward [capacity / 8] buckets (capped
    at [2^21]) so chains stay short at the caller's anticipated
    occupancy. Bucket memory is committed lazily, one segment (up to
    [2^8] buckets, CAS-published on first touch) at a time: creation
    allocates only the segment-pointer spine, so a generous budget
    ceiling costs nothing until digests actually land in a segment —
    which is what lets the n=5 budgets size the index space honestly
    instead of degrading into long chains under a hard [2^16] cap. The
    index space is fixed for the table's lifetime (no resize epochs);
    chains absorb any overflow past the sizing heuristic.
    @raise Invalid_argument if [bits] is outside [0..21]. *)

val buckets : 'a t -> int
(** Size of the bucket index space (allocated lazily; see {!create}).
    [float (size t) /. float (buckets t)] is the load factor the
    [mc --stats] occupancy line reports. *)

val segments_allocated : 'a t -> int
(** How many segments have been materialised by actual insertions — the
    committed fraction of the index space. *)

val find_opt : 'a t -> Fingerprint.digest -> 'a option
(** Lock-free read: one atomic load plus a chain scan. *)

val find_or_insert : 'a t -> Fingerprint.digest -> 'a -> 'a option
(** [find_or_insert t key v] is the single-probe entry point of the
    dedup hot path: [None] means [key] was absent and is now bound to
    [v] by this caller (and already counted in {!size}); [Some prior]
    means the key was present with value [prior] and nothing changed.
    Exactly one of any set of racing inserters of [key] gets [None]. *)

val insert : 'a t -> Fingerprint.digest -> 'a -> bool
(** [insert t key v] binds [key] to [v] (overwriting any existing
    binding in place) and returns whether [key] was fresh. Exactly one
    of any set of racing inserters sees [true]. Value overwrites are
    racy by design: the DPOR caller only narrows stored sleep sets, and
    losing a racing narrowing is sound, merely conservative. *)

val update : 'a t -> Fingerprint.digest -> 'a -> unit
(** Overwrite the value of an existing binding (insert if absent). *)

val size : 'a t -> int
(** Total distinct keys ever inserted, across all buckets. Monotone
    under concurrency; includes every insert whose caller has already
    observed [find_or_insert = None] (or [insert = true]). *)
