(** Protocol and consensus automaton signatures.

    Every protocol of the paper is implemented as a pure state machine: the
    handlers receive the current state and an event and return the new
    state together with a list of {!type:action}s. All effects (message
    transmission, timers, decisions, invoking the consensus service) are
    interpreted by the engine, which keeps protocol code directly
    comparable to the paper's pseudo-code and unit-testable in isolation.

    Conventions shared with the pseudo-code:
    - [Env.u] is the known upper bound [U] on synchronous message delay;
      one "unit" of a timer equals [U] (appendix remark (d));
    - timers are named, may be set several times, and deliver one timeout
      per set (unless cancelled in the meantime — see {!Cancel_timer});
    - a message delivery event has priority over a timeout event at the
      same instant (appendix remark (b));
    - guards model the pseudo-code's "upon <state predicate>" events
      (e.g. INBAC's [cnt + cnt_help >= n - f and wait ...]). *)

type env = {
  n : int;  (** number of processes *)
  f : int;  (** maximum number of crashes tolerated, 1 <= f <= n - 1 *)
  u : Sim_time.t;  (** synchronous delay bound U, in ticks *)
  self : Pid.t;
}

(** When a timer fires, relative to now ([After]) or at an absolute
    multiple of [U] ([At_delay k] = instant [k * U]), matching the
    pseudo-code's "set timer to time k". *)
type fire = At_delay of int | After of Sim_time.t

type 'msg action =
  | Send of Pid.t * 'msg
      (** [pl.Send]: transmit over the perfect point-to-point link. A
          self-addressed send is delivered immediately and not counted as
          a network message (paper footnote 10). *)
  | Set_timer of { id : string; fire : fire }
  | Cancel_timer of string
      (** Invalidate every timeout of this name (at this layer) that is
          currently outstanding: a cancelled set is suppressed at fire
          time and does not invoke the protocol handler. A later
          [Set_timer] with the same name arms the timer afresh.
          Cancelling a timer that was never set is a no-op. Protocols use
          this to retire their timeout machinery once they have decided,
          so stale timeouts neither run handlers nor stretch the run's
          quiescence time. *)
  | Decide of Vote.decision
      (** Decide at this layer: the commit protocol's decision, or the
          consensus service's decision when emitted by a consensus
          automaton. Only the first decision of each process is recorded
          (and traced — a conflicting re-decision is additionally traced
          so the checkers can flag the stability breach); protocols guard
          with their own [decided] flags as in the paper. *)
  | Propose_consensus of Vote.t
      (** Commit layer only: propose to the underlying uniform consensus
          instance [uc]/[iuc]. *)
  | Note of string * string
      (** Trace annotation, e.g. INBAC phase transitions (Figure 1). *)

type 'state state_hasher = Fingerprint.t -> 'state -> unit
(** Canonical state hasher: feed every semantically relevant field of the
    state into the accumulator, in a fixed order, framing variable-length
    data with an explicit length. Two states must feed identical word
    sequences iff they are structurally equal — the model checker
    deduplicates visited states by the resulting digest, so an
    under-hashed field is an unsoundness (distinct states equated), not a
    slowdown.

    Renaming discipline (symmetry reduction): every pid-valued datum must
    go through {!Fingerprint.add_pid} (helpers: {!Proto_util.fp_pid} and
    friends), and pid-{e keyed} collections whose order is not itself
    semantically meaningful must go through {!Fingerprint.add_pid_set} or
    {!Fingerprint.add_pid_assoc} ([Proto_util.fp_vset] and
    [fp_assoc_vsets] do), which feed them in renamed-pid order. The checker
    then hashes a state under candidate process permutations and
    collapses each symmetry orbit to one fingerprint; with no permutation
    installed the renaming helpers feed the stored data unchanged. *)

type 'msg msg_hasher = Fingerprint.t -> 'msg -> unit
(** Canonical {e message} hasher, the payload-side companion of
    {!type:state_hasher} with the same renaming discipline. The model
    checker normally covers an in-flight payload by its intern id (one
    word), but a canonicalization pass must re-hash payloads under the
    candidate renaming, which is what this hook provides. [None] is only
    sound for symmetry reduction when the message type embeds no pids and
    no rank-derived data (the fallback marshals the payload, which is
    renaming-blind). *)

module type PROTOCOL = sig
  type state
  type msg

  val name : string

  val uses_consensus : bool
  (** Whether any execution may invoke the consensus service. Protocols
      with [uses_consensus = false] never emit [Propose_consensus]. *)

  val pp_msg : Format.formatter -> msg -> unit

  val init : env -> state

  val on_propose : env -> state -> Vote.t -> state * msg action list
  (** The process proposes its vote (the [Propose] event). *)

  val on_deliver : env -> state -> src:Pid.t -> msg -> state * msg action list
  val on_timeout : env -> state -> id:string -> state * msg action list

  val on_consensus_decide :
    env -> state -> Vote.t -> state * msg action list
  (** The underlying consensus instance decided. Never invoked for
      protocols with [uses_consensus = false]. *)

  val guards : (string * (env -> state -> bool)) list
  (** State-predicate events. After every handler, the engine fires
      [on_guard] for each guard whose predicate holds, re-evaluating until
      none holds (each firing must change the state so that its predicate
      becomes false, as in the pseudo-code). *)

  val on_guard : env -> state -> id:string -> state * msg action list

  val hash_state : state state_hasher option
  (** Zero-marshal fingerprinting for the model checker. [None] falls
      back to hashing [Marshal.to_string state []] — correct but an order
      of magnitude slower, and additionally sensitive to the physical
      sharing of the state value where the canonical hasher sees only
      structure. *)

  val hash_msg : msg msg_hasher option
  (** See {!type:msg_hasher}. *)

  val symmetry : n:int -> f:int -> Symmetry.t
  (** The protocol's process-permutation group: which processes are
      behaviorally interchangeable at this [(n, f)]. Most protocols of
      the paper are symmetric in everything but a coordinator prefix
      ({!Symmetry.after_rank}); chain- and ring-structured ones are
      {!Symmetry.trivial}. Declaring too little loses state-space
      collapse; declaring too much is unsound (see {!Symmetry}). *)
end

module type CONSENSUS = sig
  type state
  type msg

  val name : string

  val pp_msg : Format.formatter -> msg -> unit
  val init : env -> state
  val on_propose : env -> state -> Vote.t -> state * msg action list
  val on_deliver : env -> state -> src:Pid.t -> msg -> state * msg action list
  val on_timeout : env -> state -> id:string -> state * msg action list

  val hash_state : state state_hasher option
  (** See {!PROTOCOL.hash_state}. *)

  val hash_msg : msg msg_hasher option
  (** See {!type:msg_hasher}. *)

  val symmetry : n:int -> f:int -> Symmetry.t
  (** See {!PROTOCOL.symmetry}. A consensus automaton whose behavior
      depends on rank only through renamable data (e.g. Paxos ballot
      ownership, provided [hash_msg]/[hash_state] rename it) may declare
      {!Symmetry.full}; the machine meets it with the commit layer's
      group. *)
end
