(** INBAC — the paper's optimal indulgent atomic commit protocol
    (Section 5 and Appendix A).

    Solves indulgent atomic commit: every network-failure execution solves
    NBAC (given an indulgent uniform consensus service with a correct
    majority for termination). In every nice execution, each process
    decides after exactly two message delays and the [n] processes
    exchange exactly [2*f*n] messages — both optimal (Theorems 1, 5, 6).

    Outline of a nice execution: at time 0 every process sends its vote to
    its [f] backup processes; at time [U] each backup acknowledges all the
    votes it holds in a single consolidated [C] message; at time [2U]
    every process has [f] complete acknowledgements, decides the
    conjunction of all votes, and consensus is never invoked.

    Two details of the appendix pseudo-code are typeset ambiguously in our
    source text and were reconstructed from the complexity and agreement
    proofs (DESIGN.md records this): (a) the backup set of [P_i] with
    [i <= f] is [{P1..Pf, P_{f+1}} \ {P_i}] and every such [P_i] also
    sends its vote to [P_{f+1}]; (b) at time [U] each [P_j], [j <= f],
    sends its [C] acknowledgement to every other process while [P_{f+1}]
    sends it to [P1..Pf] — this is the unique assignment that yields the
    claimed [2*f*n] messages with [f] acknowledgements arriving at every
    process. *)

module type CONFIG = sig
  val variant_name : string

  val fast_abort : bool
  (** The Section 5.2 optimization: a process voting 0 broadcasts its vote
      and decides 0 at time 0, and any process receiving a 0 vote decides
      0 immediately, so a failure-free aborting execution finishes within
      one message delay. Off in the standard protocol. *)

  val ack_undershoot : bool
  (** Decide with [f-1] acknowledgements instead of Lemma 5's [f] — a
      deliberately unsound variant demonstrating that the lemma's bound
      is tight (agreement breaks under a crafted network failure). Off in
      the standard protocol. *)

  val naive_backups : bool
  (** Drop the reconstructed [P_{f+1}] role: every process backs its vote
      up at [P1..Pf] only. Demonstrates that the naive reading of the
      OCR-damaged pseudo-code cannot be the paper's — nice executions
      then use [2fn - 2f] messages and the low ranks reach only [f-1]
      processes, short of Lemma 1. Off in the standard protocol. *)
end

module Make (_ : CONFIG) : Proto.PROTOCOL

include Proto.PROTOCOL

val backups : Proto.env -> Pid.t list
(** The backup set [B_P] of the calling process, exposed for tests. *)

val acks_complete :
  ack_undershoot:bool -> naive_backups:bool -> n:int -> f:int -> rank:int ->
  (Pid.t * Vset.t) list -> bool
(** [acks_complete ~ack_undershoot ~naive_backups ~n ~f ~rank collection1]:
    whether [collection1] (a [(sender, set)] list of received [C]
    acknowledgements) holds every acknowledgement the process of rank
    [rank] awaits for a direct decision at 2U, each with its coverage:
    all [n] votes from every [P_j], [j <= f], other than itself, and, for
    a rank [<= f], the votes of [P1..Pf] from [P_{f+1}] (not awaited
    under [naive_backups]). [ack_undershoot] drops the last, highest
    ranked, requirement. One loop over ranks, with no list of
    requirements built; exposed for tests. *)

val first_binding_conjunction : Vset.t -> (Pid.t * Vset.t) list -> Vote.t
(** [first_binding_conjunction collection0 collection1] is the vote a
    direct decision takes: the conjunction of [collection0] united with
    every acknowledged set of [collection1] (a [(sender, set)] list),
    where a pid's first binding wins — [collection0]'s, else that of the
    first listed set holding it — exactly as {!Vset.union} folds them.
    Computed without building the union; exposed for tests. *)
