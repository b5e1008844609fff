(** The multi-shot commit service's keyspace and store, addressed by key
    index and transaction number.

    Keys are "k0" .. "k<keys-1>" and are only ever named by their index:
    nothing here formats or hashes a key name, and nothing proportional
    to the keyspace is computed before a key is used. A key's owner shard
    is {!Txn_system.placement_index} of its index, computed the first
    time it is asked for. Every key has exactly one owner, so one dense
    array over key indices holds every key's version. Each shard keeps a
    write-ahead table from transaction number to the transaction's write
    keys: {!stage} fills it before the shard votes, {!apply} installs the
    keys the shard owns (bumping their versions) and {!discard} drops the
    entry. The tables are flat (open addressing over int arrays), so none
    of the three allocates. Entries survive a shard outage, which is what lets a recovering
    shard adopt a decision reached while it was down. *)

val max_keys : int
(** [2^24], the largest keyspace {!create} accepts. The store keeps two
    [keys]-word arrays (owners and versions) and the service one more
    (lock holders), so this bounds start-up memory at about 400 MB. *)

type t

val create : n:int -> keys:int -> t
(** [n] shards over keys [0 .. keys-1], every version 0 and nothing
    staged.
    @raise Invalid_argument unless [1 <= keys <= max_keys]. *)

val owner : t -> int -> int
(** The index of the shard owning a key. *)

val owners : t -> int array -> int -> int array -> int
(** [owners t keys n into] writes the distinct owner shards of
    [keys.(0 .. n-1)] into [into], ascending, and returns how many there
    are. [into] must have room for [n]. *)

val version : t -> int -> int
(** The number of committed transactions that wrote the key. *)

val stage : t -> shard:int -> txn:int -> int array -> writes:int -> unit
(** [stage t ~shard ~txn keys ~writes] records transaction [txn]'s write
    keys, the first [writes] of [keys] (all of them; {!apply} picks the
    shard's own), in [shard]'s write-ahead table, replacing an earlier
    entry of the same transaction. The array is kept, not copied. *)

val staged : t -> shard:int -> txn:int -> bool

val apply : t -> shard:int -> txn:int -> unit
(** Bump the version of every staged write key [shard] owns and drop the
    entry; nothing happens when [txn] has nothing staged there. *)

val discard : t -> shard:int -> txn:int -> unit

val staged_count : t -> shard:int -> int
(** Entries in [shard]'s write-ahead table: 0 once it has drained. *)

val compare_names : int -> int -> int
(** [compare_names a b] orders keys [a] and [b] as [String.compare]
    orders their names ["k<a>"] and ["k<b>"] (same sign), by arithmetic
    on the indices, which must be non-negative. *)

val sort_names : int array -> unit
(** Sort key indices in place into name order ({!compare_names}); an
    insertion sort, for the few keys of one transaction. *)
