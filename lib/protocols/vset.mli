(** Finite maps from processes to votes — the "collections" that the
    paper's pseudo-code accumulates ([collection0], [collection_help],
    the payload of [C] and [HELPED] messages, ...).

    Kept canonical (sorted by pid, no duplicate) so that structural
    equality of two collections is meaningful. Adding a second vote for
    the same pid keeps the first: perfect links never deliver conflicting
    votes from a correct process, and keeping the first makes replays
    idempotent. *)

type t

val empty : t
val is_empty : t -> bool
val singleton : Pid.t -> Vote.t -> t
val add : Pid.t -> Vote.t -> t -> t
(** [add p v t] is [t] itself, physically, when [p] is already bound. *)

val union : t -> t -> t
(** [union a b] binds every pid of [a] and [b]; a pid bound in both keeps
    [a]'s vote. It is [a] itself, physically, when [b] binds no pid
    outside [a]. *)

val mem : Pid.t -> t -> bool
val find : Pid.t -> t -> Vote.t option
val cardinal : t -> int
val bindings : t -> (Pid.t * Vote.t) list

val covers : t -> Pid.t list -> bool
(** Does the collection contain a vote for every listed process? *)

val covers_first : int -> t -> bool
(** [covers_first k t] is [covers t [P1; ...; Pk]], read off the sorted
    bindings without building the list. *)

val complete : n:int -> t -> bool
(** [covers] the whole system [P1..Pn]. *)

val conjunction : t -> Vote.t
(** Logical AND of all votes present ([Yes] on the empty collection). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
