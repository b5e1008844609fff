(** Single-decree Paxos over binary values: the indulgent uniform consensus
    service ([uc] / [iuc]) used by INBAC, 1NBAC, 0NBAC and (2n-2+f)NBAC.

    Every process is an acceptor and a learner; a process becomes a
    proposer when the commit layer proposes to it. Ballot [k*n + i] is
    owned by the process of index [i]; proposers retry with exponentially
    backed-off timeouts, so the protocol terminates in every execution that
    is eventually synchronous, provided a majority of processes is correct
    — exactly the premise under which the paper's termination claims for
    consensus-based protocols hold (Appendix B). Agreement and validity
    hold unconditionally, as required by the paper's Definition 5. *)

type state
type msg

val name : string
val pp_msg : Format.formatter -> msg -> unit
val init : Proto.env -> state
val on_propose : Proto.env -> state -> Vote.t -> state * msg Proto.action list

val on_deliver :
  Proto.env -> state -> src:Pid.t -> msg -> state * msg Proto.action list

val on_timeout : Proto.env -> state -> id:string -> state * msg Proto.action list

val retry_base_delay : u:Sim_time.t -> Sim_time.t
(** First retry timeout (4·U); doubles on each failed attempt, capped at
    2^8 · 4 · U. Exposed for tests. *)

val hash_state : state Proto.state_hasher
(** See {!Proto.PROTOCOL.hash_state}. *)

val hash_msg : msg Proto.msg_hasher
(** See {!Proto.CONSENSUS.hash_msg}. *)

val symmetry : n:int -> f:int -> Symmetry.t
(** The full symmetric group: rank enters Paxos only through the ballot
    encoding [k*n + i], which the hashers rename ballot-wise. *)
