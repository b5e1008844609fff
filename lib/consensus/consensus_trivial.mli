(** A deliberately naive consensus: each process instantly decides its
    own proposal. Satisfies validity and termination but {e not} agreement
    on mixed proposals — test plumbing only (the test suite asserts the
    non-agreement on purpose). *)

type state
type msg = |

val name : string
val pp_msg : Format.formatter -> msg -> unit
val init : Proto.env -> state
val on_propose : Proto.env -> state -> Vote.t -> state * msg Proto.action list

val on_deliver :
  Proto.env -> state -> src:Pid.t -> msg -> state * msg Proto.action list

val on_timeout : Proto.env -> state -> id:string -> state * msg Proto.action list

val hash_state : state Proto.state_hasher
(** See {!Proto.PROTOCOL.hash_state}. *)

val hash_msg : msg Proto.msg_hasher
(** See {!Proto.CONSENSUS.hash_msg}. *)

val symmetry : n:int -> f:int -> Symmetry.t
(** Rank-oblivious: each process decides its own proposal locally. *)
