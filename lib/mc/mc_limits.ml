type budgets = {
  max_depth : int;
  max_states : int;
  horizon : Sim_time.t;
  max_late : int;
}

let default_budgets ~u =
  { max_depth = 10_000; max_states = 400_000; horizon = 12 * u; max_late = 4 }

let default_symmetry = true

type visited_mode = Per_item | Shared

let default_visited = Per_item

let visited_mode_of_string = function
  | "per-item" -> Some Per_item
  | "shared" -> Some Shared
  | _ -> None

let visited_mode_to_string = function
  | Per_item -> "per-item"
  | Shared -> "shared"

type counters = {
  mutable states : int;
  mutable transitions : int;
  mutable schedules : int;
  mutable terminals : int;
  mutable dedup_hits : int;
  mutable sleep_skips : int;
  mutable horizon_cuts : int;
  mutable depth_cuts : int;
  mutable budget_hit : bool;
  mutable peak_visited : int;
  mutable canon_calls : int;
  mutable orbit_hits : int;
  mutable twin_skips : int;
}

let fresh_counters () =
  {
    states = 0;
    transitions = 0;
    schedules = 0;
    terminals = 0;
    dedup_hits = 0;
    sleep_skips = 0;
    horizon_cuts = 0;
    depth_cuts = 0;
    budget_hit = false;
    peak_visited = 0;
    canon_calls = 0;
    orbit_hits = 0;
    twin_skips = 0;
  }

(* Counters from independent frontier subtrees add up: schedules partition
   exactly by prefix; states/transitions are per-subtree sums (a state
   reached from two frontier items is counted in both, since each item
   explores with its own visited table for determinism across [--jobs]). *)
let add_counters acc c =
  acc.states <- acc.states + c.states;
  acc.transitions <- acc.transitions + c.transitions;
  acc.schedules <- acc.schedules + c.schedules;
  acc.terminals <- acc.terminals + c.terminals;
  acc.dedup_hits <- acc.dedup_hits + c.dedup_hits;
  acc.sleep_skips <- acc.sleep_skips + c.sleep_skips;
  acc.horizon_cuts <- acc.horizon_cuts + c.horizon_cuts;
  acc.depth_cuts <- acc.depth_cuts + c.depth_cuts;
  acc.budget_hit <- acc.budget_hit || c.budget_hit;
  acc.peak_visited <- max acc.peak_visited c.peak_visited;
  acc.canon_calls <- acc.canon_calls + c.canon_calls;
  acc.orbit_hits <- acc.orbit_hits + c.orbit_hits;
  acc.twin_skips <- acc.twin_skips + c.twin_skips

let exhausted c = not (c.budget_hit || c.depth_cuts > 0)
(* Horizon cuts do not forfeit exhaustiveness: the horizon is part of the
   bound ("every schedule in which no timer fires after H"), whereas a
   state/depth budget truncates schedules inside the bound. *)

(* The symmetry suffix is appended only when canonicalization actually
   ran: symmetry-off (and trivial-group) runs print byte-identically to
   the historical format, which test/golden/mctable_n3_f1_symmetry_off.txt
   pins. *)
let pp_counters ppf c =
  Format.fprintf ppf
    "states %d, transitions %d, schedules %d (terminals %d, horizon-cut \
     %d), dedup hits %d, sleep skips %d%s%s"
    c.states c.transitions c.schedules c.terminals c.horizon_cuts
    c.dedup_hits c.sleep_skips
    (if c.canon_calls > 0 then
       Printf.sprintf ", orbit hits %d, twin skips %d" c.orbit_hits
         c.twin_skips
     else "")
    (if c.budget_hit then ", STATE BUDGET EXHAUSTED" else "")
