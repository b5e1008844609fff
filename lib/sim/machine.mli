(** The pluggable automata-composition core.

    [Make (P) (C)] interprets the pure protocol automaton [P], co-hosted
    with one consensus instance of [C] per process, exactly as the paper's
    engine does — action interpretation, the guard loop, the
    commit/consensus mutual recursion, decision recording, crash marking,
    send budgets and timer-cancellation epochs — but leaves {e scheduling}
    to the caller through a {!sink}: every message transmission and timer
    arming is reported to the sink, and the caller decides when (and
    whether, and in which order) the resulting delivery and timeout events
    re-enter through {!propose} / {!deliver} / {!timeout} / {!crash}.

    Two drivers share this core: {!Engine} plugs a timed event queue and a
    network model into the sink (the simulation), and [ac_mc] plugs a
    pending-event frontier into it (the model checker), so both execute
    bit-identical protocol semantics. *)

val guard_fuel : int
(** Guard-loop re-evaluation bound before the run is declared divergent. *)

module Make (P : Proto.PROTOCOL) (C : Proto.CONSENSUS) : sig
  type wire = Commit_msg of P.msg | Cons_msg of C.msg

  val layer_of_wire : wire -> Trace.layer
  val tag_of_wire : wire -> string

  type sink = {
    send :
      now:Sim_time.t -> src:Pid.t -> dst:Pid.t -> wire -> Sim_time.t;
        (** Schedule a delivery (self-addressed sends included: the engine
            delivers those at [now], footnote 10). Returns the delivery
            instant for the trace. Only called for transmissions that
            actually happen: sends of crashed processes and sends beyond a
            [During_sends] budget are suppressed before the sink. *)
    set_timer :
      now:Sim_time.t -> pid:Pid.t -> layer:Trace.layer -> id:string ->
      fire:Proto.fire -> at:Sim_time.t -> epoch:int -> unit;
        (** Schedule a timeout at absolute instant [at] (the protocol's
            [fire] spec resolved against [now] and clamped to [now]; the
            raw spec is also passed so a replaying driver can re-anchor
            [After] timers to shifted instants). [epoch] is the timer's
            cancellation epoch at set time; pass it back to {!timeout},
            which suppresses stale fires. *)
  }

  type t

  val create :
    ?record_trace:bool ->
    ?renamings:int array array ->
    env_of:(Pid.t -> Proto.env) -> n:int -> u:Sim_time.t -> sink:sink ->
    unit -> t
  (** [env_of] is called once per pid, here: the machine keeps the envs
      and hands each automaton step its pid's env, so a step builds no
      env, and neither the guard loop nor action interpretation
      allocates a closure.

      [?record_trace] (default [true]) controls whether {!trace}
      accumulates an entry per event. Tracing never feeds back into the
      automata, so turning it off changes no observable behaviour — it
      skips the per-event entry allocation and the message-tag rendering,
      which is what a driver that never reads traces (the multi-shot
      commit service, the model checker) wants on its hot path.

      [?renamings] (default none) are the process renamings, given as
      index arrays, under which {!feed_proc} keeps each process's digest;
      with none it keeps one digest per process, hashed under no
      renaming. *)

  val reset : t -> sink:sink -> unit
  (** Reinitialize the machine for a fresh run under a new [sink]:
      protocol and consensus states return to [init], crash/decision/
      timer bookkeeping and the trace are cleared. Equivalent to
      {!create} with the original parameters but reuses every array and
      the envs built by {!create} — the per-instance recycling path of
      the commit service. Snapshot
      records captured before a reset must not be restored after it. *)

  (* ---- inspection ------------------------------------------------ *)

  val trace : t -> Trace.t
  val pstate : t -> Pid.t -> P.state
  val cstate : t -> Pid.t -> C.state
  val decisions : t -> (Sim_time.t * Vote.decision) option array
  val crashed_at : t -> Sim_time.t option array
  val is_crashed : t -> Pid.t -> bool
  val cons_handed : t -> Pid.t -> bool
  (** Whether the consensus decision was already handed to the commit layer
      at this process. *)

  val timer_epoch : t -> Pid.t -> Trace.layer -> string -> int

  val crash_count : t -> int
  val epoch_bump_count : t -> int
  (** Monotone-per-path mutation counters: crashes marked and timer-epoch
      bumps ([Cancel_timer]) so far on the current execution path. Both
      are rewound by {!restore}. The model checker compares them across a
      step to skip re-filtering its pending event lists when nothing
      could have gone stale. *)

  val redecision : t -> (Pid.t * Vote.decision * Vote.decision) option
  (** The first conflicting re-decision on the current execution path: the
      process, its first decision and the one that contradicts it. Kept
      whether or not a trace is recorded, and rewound by {!restore}. *)

  val feed_proc : t -> Fingerprint.t -> renaming:int -> int -> unit
  (** [feed_proc t h ~renaming i] feeds [h] two words: the digest of
      process [i]'s protocol state, consensus state and handed flag
      ({!cons_handed}), hashed through the modules' [hash_state] under the
      [renaming]-th renaming given to {!create} ([0] when none was).
      A process is re-hashed, under every renaming at once, only when it
      was mutated since its digests were last computed; the digests
      travel with the state through {!snapshot} and {!restore}. *)

  val forget_digest : t -> Pid.t -> unit
  (** Drop the process's digests as a mutation would, so the next
      {!feed_proc} re-hashes it (to time or test that path). *)

  val hash_wire : Fingerprint.t -> wire -> unit
  (** Feed a message payload (layer tag first) through the per-module
      {!Proto.PROTOCOL.hash_msg} canonicalizers. *)

  val symmetry : n:int -> f:int -> Symmetry.t
  (** The machine's process-interchangeability group: the meet of the
      protocol's and the consensus service's declared groups. *)

  (* ---- steps ----------------------------------------------------- *)

  val set_send_budget : t -> Pid.t -> at:Sim_time.t -> int -> unit
  (** Arm a [During_sends] crash: at instant [at] the process may transmit
      that many more network messages, then dies mid-action-list. *)

  val crash : t -> now:Sim_time.t -> Pid.t -> unit

  val propose : t -> now:Sim_time.t -> Pid.t -> Vote.t -> unit
  (** No-op (beyond nothing) when the process already crashed. *)

  val deliver :
    t -> now:Sim_time.t -> sent_at:Sim_time.t -> src:Pid.t -> dst:Pid.t ->
    wire -> unit
  (** Runs the destination handler, or traces a [Discard] when the
      destination has crashed. *)

  val timeout :
    t -> now:Sim_time.t -> pid:Pid.t -> layer:Trace.layer -> id:string ->
    epoch:int -> bool
  (** [false] when the fire was cancelled in the meantime (its epoch lags
      the current one): the event must count as suppressed, not as
      activity. A valid-epoch fire at a crashed process returns [true]
      without running the handler, like the engine always did. *)

  (* ---- snapshots (for the model checker) ------------------------- *)

  type snapshot

  val snapshot : t -> snapshot
  (** Capture the machine's state. A record {!release}d earlier is
      recycled: only the per-pid slots mutated since that record's own
      capture are copied again. *)

  val restore : t -> snapshot -> unit
  (** [restore t s] rewinds [t] to the exact state captured by
      [snapshot t]: process states with their {!feed_proc} digests,
      decisions, the first re-decision, crashes, budgets, timer epochs
      and the trace. Only the per-pid slots mutated since the capture
      are written back. Sink callbacks are not rewound — the
      caller owns whatever the sink accumulated. *)

  val release : t -> snapshot -> unit
  (** Return a snapshot record to the machine's pool for recycling by a
      later {!snapshot}. The caller promises never to {!restore} from it
      again. Releasing the same record twice is a no-op.

      Pools are strictly domain-local: if the machine is driven from a
      new domain, {!snapshot} abandons the records pooled on the old one
      and starts a fresh pool, and [release] retires (rather than pools)
      a record captured under another domain — pooled records are never
      handed across domains. *)
end
