(** The visited table of one depth-first search.

    Maps a state digest, given as its two lanes ({!Fingerprint.digest_d1},
    {!Fingerprint.digest_d2}), to a value: the sleep set a state was
    explored under, or a memoized path count. The table has one owner
    and takes no lock; the modes that share a table across domains use
    {!Mc_shards} instead.

    Open addressing over flat arrays: both lanes of a slot's key side by
    side in one [int array], an occupancy byte per slot, the values in
    one array, and linear probing from [d1 land mask] (both lanes are
    avalanched, so [d1]'s low bits are a well-mixed bucket index). The
    table doubles before its load passes one half. A lookup compares ints
    only and allocates nothing. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** An empty table. [dummy] fills the unused value slots and is never
    returned. Pass an immediate value or a constant: making an array
    filled with a young block forces a minor collection. *)

val find : 'a t -> int -> int -> int
(** [find t d1 d2] is the slot holding the key [(d1, d2)], or [-1] when
    the key is unbound. The slot stays valid until the next {!replace}. *)

val value : 'a t -> int -> 'a
(** The value bound at a slot {!find} returned. *)

val replace : 'a t -> int -> int -> 'a -> unit
(** [replace t d1 d2 v] binds the key to [v], in place when it is bound
    already. *)

val length : 'a t -> int
(** The number of bound keys. *)

val slots : 'a t -> int
(** The current number of slots, a power of two. *)
