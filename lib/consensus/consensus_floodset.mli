(** FloodSet: synchronous uniform consensus tolerating up to [f] crashes
    (any [f <= n - 1]) in [f + 1] rounds of one message delay each.

    Used for the paper's crash-failure-only cells, where termination must
    hold for arbitrary [f] (Paxos needs a correct majority). Each proposer
    floods the set of values it knows for [f + 1] rounds and then decides
    [0] if it ever saw a [0], else [1] — a deterministic rule over the
    common final knowledge set.

    Assumption (documented, asserted nowhere): correct in synchronous
    (crash-failure) systems when all proposals happen within the same
    [U]-slot, which holds for the protocols that we pair with it (their
    proposals fire at a synchronized timeout). Under network failures,
    or with badly staggered proposals, its agreement can break — use
    {!Consensus_paxos} there. *)

type state
type msg

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
(** Rank-oblivious flooding: every permutation preserves behavior. *)
