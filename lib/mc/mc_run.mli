(** Front end of the [ac_mc] model checker: registry dispatch, execution
    classes, and engine-verified outcomes. *)

type exec_class =
  | Nice  (** synchronous, failure-free, all votes 1 *)
  | Crash  (** up to [f] crash injections, synchronous network *)
  | Network  (** arbitrarily late deliveries, no crashes *)
  | All  (** both failure kinds *)

val class_name : exec_class -> string
val class_of_string : string -> exec_class option

val default_vote_sets : n:int -> exec_class -> Vote.t array list
(** All-1, plus (outside the nice class) a vector with one 0 vote. *)

type outcome = {
  protocol : string;
  klass : exec_class;
  n : int;
  f : int;
  counters : Mc_limits.counters;
  visited : Mc_limits.visited_mode;
      (** dedup scope the counters were produced under (see
          {!Mc_limits.visited_mode} for the determinism contract) *)
  naive : float option;
      (** schedules a naive enumerator (no sleep sets, no dedup) walks *)
  naive_partial : bool;
  violation : Mc_replay.violation option;  (** shrunk and concretized *)
  replay_verified : bool option;
      (** [Some true] iff the engine reproduces the violation from the
          concrete witness scenario; [None] when the space is clean *)
  shard_load : (int * int) option;
      (** (occupied, buckets) of the fullest {!Mc_shards} table, when a
          shared-visited or swarm mode ran — the occupancy line of
          [mc --stats]; [None] in the default per-item mode *)
}

val clean : outcome -> bool

val run :
  ?consensus:Registry.consensus_impl ->
  ?u:Sim_time.t ->
  ?vote_sets:Vote.t array list ->
  ?budgets:Mc_limits.budgets ->
  ?symmetry:bool ->
  ?jobs:int ->
  ?naive:bool ->
  ?visited:Mc_limits.visited_mode ->
  ?swarm:bool ->
  protocol:string ->
  n:int ->
  f:int ->
  klass:exec_class ->
  unit ->
  outcome
(** Explore every schedule of the bounded configuration (one exploration
    per vote vector, parallel over domains). Every mode hands its work
    items — frontier prefixes or swarm walkers — to {!Batch.run}'s
    shared cursor. In the default [~visited:Per_item] mode the counters
    are deterministic and independent of [jobs]; [~visited:Shared]
    dedups states globally per vote-set group — fewer states explored,
    but counters become jobs-dependent.

    [~swarm:true] replaces the frontier decomposition with independent
    randomized-order DFS walks, one per domain, coupled only through the
    shared visited table (implied; no frontier handoff). Each walker
    descends through already-claimed states for its first six tree
    levels before the visited cut engages. Walk orders are seeded
    deterministically from [Rng]; counters remain jobs- and
    timing-dependent like any shared-table mode, verdicts are
    unaffected. [~swarm:false] never swarms; omitting
    the argument picks swarm automatically when [~visited:Shared] runs
    at four or more effective jobs (the scale where the walks win — see
    DESIGN.md).

    [~symmetry] (default {!Mc_limits.default_symmetry}) canonicalizes
    fingerprints under the protocol's declared process-permutation group
    ({!Proto.PROTOCOL.symmetry}, vote-refined), prunes permutation-twin
    crash candidates and orbit-duplicate frontier items. Verdicts are
    unaffected (a violation below a pruned branch has a permutation
    image below a kept one); the counters shrink by the orbit collapse.
    @raise Not_found on unknown protocol names. *)

type canonical = {
  decisions : (Pid.t * Vote.decision) list;
  commit_msgs : int;  (** commit-layer network sends *)
  cons_msgs : int;  (** consensus-layer network sends *)
}

val canonical :
  ?consensus:Registry.consensus_impl ->
  protocol:string ->
  n:int ->
  f:int ->
  ?u:Sim_time.t ->
  unit ->
  canonical
(** The single engine-ordered synchronous schedule, for cross-validation
    against [Engine.run] on [Scenario.nice]. *)

val fingerprint_sampler :
  ?consensus:Registry.consensus_impl ->
  ?u:Sim_time.t ->
  ?prefix_steps:int ->
  ?symmetry:bool ->
  ?votes:Vote.t array ->
  protocol:string ->
  n:int ->
  f:int ->
  klass:exec_class ->
  unit ->
  int -> unit
(** [fingerprint_sampler ... ()] prepares one checker context advanced
    [prefix_steps] transitions into the canonical schedule and returns
    [probe]: [probe calls] recomputes the context's state fingerprint
    [calls] times. For isolating the per-call fingerprint cost from the rest
    of the exploration loop (context preparation happens before [probe] is
    returned, so callers time only the fingerprint work). Before each call
    the probe drops the cached digests of the processes the prefix's last
    step touched (one process, unless that step was the proposals), so a
    call costs what a DFS node pays: that process re-hashed under every
    renaming, the other processes' cached digests and the digests of the
    pending messages and timers. Without that, it would time a state
    whose every digest is cached. With
    [~symmetry:true] the probe times the full canonicalization — every group
    renaming plus the orbit minimum — so the delta against the default
    sampler is the per-call cost of symmetry reduction. [votes] (default:
    every process votes yes) refines the group as in an exploration of that
    vote vector, so pass the vector a run explores to time its group. *)

val verdict_string : outcome -> string
val pp_outcome : Format.formatter -> outcome -> unit
