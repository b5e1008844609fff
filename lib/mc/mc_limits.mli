(** Exploration budgets and counters of the [ac_mc] model checker. *)

type budgets = {
  max_depth : int;  (** schedule steps per path before a depth cut *)
  max_states : int;
      (** distinct fingerprints stored per visited table — per frontier
          item in {!Per_item} mode, per vote-set group in {!Shared}
          mode *)
  horizon : Sim_time.t;
      (** timers armed beyond this instant never fire: bounds the
          otherwise-unbounded consensus retry cascade *)
  max_late : int;
      (** network-failure classes: at most this many commit-layer
          messages may miss their synchronous slot (the paper's witness
          adversaries procrastinate commit-layer messages only;
          consensus-layer delays stay within [U]) *)
}

val default_budgets : u:Sim_time.t -> budgets

val default_symmetry : bool
(** Whether the checker canonicalizes fingerprints under the protocol's
    declared process-permutation group ({!Proto.PROTOCOL.symmetry}) by
    default. *)

type visited_mode =
  | Per_item
      (** every frontier item dedups within its own visited table: a
          state reachable from several prefixes is explored once per
          prefix, [max_states] bounds each table separately, and the
          counters are bit-identical across [--jobs] (the default, and
          what [mctable] prints) *)
  | Shared
      (** all frontier items of one vote-set group dedup against a
          single {!Mc_shards.t}: shared states are explored once
          globally, [max_states] bounds the group's table, and the
          (smaller, faster-to-reach) counters depend on scheduling
          timing — reported only under the explicit [--shared-visited]
          flag *)

val default_visited : visited_mode
val visited_mode_of_string : string -> visited_mode option
val visited_mode_to_string : visited_mode -> string

type counters = {
  mutable states : int;  (** distinct state fingerprints stored *)
  mutable transitions : int;  (** events executed *)
  mutable schedules : int;  (** maximal explored paths (leaves of the DFS) *)
  mutable terminals : int;  (** leaves with no pending event at all *)
  mutable dedup_hits : int;  (** paths cut at an already-visited state *)
  mutable sleep_skips : int;  (** sibling transitions pruned by sleep sets *)
  mutable horizon_cuts : int;
      (** leaves whose only pending events lie beyond the horizon *)
  mutable depth_cuts : int;
  mutable budget_hit : bool;  (** some subtree ran out of state budget *)
  mutable peak_visited : int;
      (** largest visited-table occupancy of any frontier item (merged
          with [max], not [+]). Deliberately absent from {!pp_counters}
          so the [mctable] artifact stays byte-stable across job
          counts. *)
  mutable canon_calls : int;
      (** fingerprints computed with a non-trivial permutation group
          installed (zero exactly when symmetry reduction was off or the
          group collapsed to trivial) *)
  mutable orbit_hits : int;
      (** canonicalizations whose minimal digest was achieved by a
          non-identity permutation: states stored under a renamed
          representative (the orbit-collapse evidence) *)
  mutable twin_skips : int;
      (** candidate transitions dropped because they are the
          permutation-image of a sibling at a symmetric state *)
}

val fresh_counters : unit -> counters
val add_counters : counters -> counters -> unit

val exhausted : counters -> bool
(** Whether the bounded space was fully explored (no depth or state-budget
    truncation; horizon cuts are part of the bound, not a truncation). *)

val pp_counters : Format.formatter -> counters -> unit
(** Prints the historical counter line; a symmetry suffix (orbit hits,
    twin skips) is appended only when [canon_calls > 0], so symmetry-off
    output is byte-identical to the pre-symmetry format. *)
