(** Allocation-lean 126-bit state fingerprints.

    An incremental two-lane FNV-1a-style hasher over machine words with a
    murmur-style finalizer. The model checker fingerprints every visited
    state through this module instead of marshalling it: per-protocol
    [hash_state] canonicalizers ({!Proto.PROTOCOL.hash_state}) feed the
    accumulator with [add_int]/[add_bool]/[add_string], and the visited
    table stores the resulting two-word {!digest}s.

    Hashing is order-sensitive and unframed: a canonicalizer must feed
    variable-length data with an explicit length (which [add_string] does
    internally) so that adjacent fields cannot alias. *)

type t
(** The mutable accumulator. Reusable across states via {!reset}. *)

val create : unit -> t
val reset : t -> unit

val save : t -> unit
(** Remember the accumulator's lanes, so that several digests sharing a
    prefix of feeds feed it once. *)

val restore : t -> unit
(** Rewind the lanes to the last {!save} (to the empty feed when there
    was none). The installed renaming is left as it is. *)

val add_int : t -> int -> unit
val add_bool : t -> bool -> unit

val add_string : t -> string -> unit
(** Folds the length and then the contents, eight bytes at a word. *)

(** {2 Pid renaming (symmetry canonicalization)}

    The model checker hashes a state under a candidate process
    permutation by installing a renaming array and feeding the state
    through canonicalizers that route every pid-valued datum through
    {!add_pid}, and every pid-keyed collection whose stored order is
    path-dependent through {!add_pid_set} or {!add_pid_assoc}. With no
    renaming installed all three feed the stored data as it is, so the
    symmetry-off path feeds word-for-word what it always did. {!reset}
    clears the renaming. *)

val set_perm : t -> int array -> unit
(** Install [sigma]: subsequent {!add_pid}[ h i] feeds [sigma.(i)]. The
    array is borrowed, not copied, and must cover every fed index. *)

val perm_active : t -> bool

val add_pid : t -> int -> unit
(** Feed a process {e index} through the renaming. Equivalent to
    [add_int] when no renaming is installed. *)

val add_pid_set : t -> Pid.t list -> unit
(** Feed a pid list that is semantically a (multi)set: its length, then
    its pids. Under a renaming the renamed indices are fed in ascending
    order; with none, the stored indices in stored order. *)

val add_pid_assoc : t -> (t -> 'a -> unit) -> (Pid.t * 'a) list -> unit
(** [add_pid_assoc h f l] feeds a pid-keyed association list: its length,
    then per binding the pid (through the renaming) and [f h] of the
    value. Under a renaming the bindings go in renamed-key order, and
    bindings whose keys rename alike keep their stored order: exactly
    what a stable sort by renamed key would feed. With no renaming they
    go in stored order. [f] may feed nested collections. Pass a
    top-level function: a fresh closure allocates on every call. *)

val perm_size : t -> int
(** Length of the installed renaming array ([0] when none) — the process
    count [n], for canonicalizers that must decompose pid-encoding
    integers (e.g. Paxos ballots [k*n + i]). *)

type digest = { d1 : int; d2 : int }
(** Two finalized 63-bit lanes. Both are avalanched, so [d1] alone is a
    well-mixed hash-table key; {!equal} compares both. *)

val digest : t -> digest
(** Finalize (the accumulator is not consumed and may keep accumulating,
    but successive digests of a growing accumulator are unrelated). *)

val digest_d1 : t -> int
val digest_d2 : t -> int
(** The two lanes {!digest} would return, without allocating the
    record. *)

val equal : digest -> digest -> bool
val pp : Format.formatter -> digest -> unit
