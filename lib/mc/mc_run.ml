type exec_class = Nice | Crash | Network | All

let class_name = function
  | Nice -> "nice"
  | Crash -> "crash"
  | Network -> "network"
  | All -> "all"

let class_of_string = function
  | "nice" -> Some Nice
  | "crash" -> Some Crash
  | "network" -> Some Network
  | "all" -> Some All
  | _ -> None

let flags_of_class = function
  | Nice -> (false, false)
  | Crash -> (true, false)
  | Network -> (false, true)
  | All -> (true, true)

let default_vote_sets ~n klass =
  let all_yes = Array.make n Vote.yes in
  match klass with
  | Nice -> [ all_yes ]  (* a nice execution has every vote 1 *)
  | Crash | Network | All ->
      let one_no = Array.make n Vote.yes in
      one_no.(1) <- Vote.no;
      [ all_yes; one_no ]

type outcome = {
  protocol : string;
  klass : exec_class;
  n : int;
  f : int;
  counters : Mc_limits.counters;
  visited : Mc_limits.visited_mode;
  naive : float option;
  naive_partial : bool;
  violation : Mc_replay.violation option;
  replay_verified : bool option;
      (** engine confirmation of the counterexample; [None] when clean *)
  shard_load : (int * int) option;
      (** (occupied, buckets) of the fullest shared visited table, when
          one ran; [None] in per-item mode *)
}

let clean o = o.violation = None

let run ?(consensus = Registry.Paxos) ?u ?vote_sets ?budgets
    ?(symmetry = Mc_limits.default_symmetry) ?jobs ?(naive = false)
    ?(visited = Mc_limits.default_visited) ?swarm ~protocol ~n ~f ~klass () =
  let reg = Registry.find_exn protocol in
  let module P = (val reg.Registry.proto) in
  let module C =
    (val Registry.consensus_module ~uses_consensus:reg.Registry.uses_consensus
           consensus)
  in
  let module E = Mc_explore.Make (P) (C) in
  let u = Option.value u ~default:Sim_time.default_u in
  let budgets = Option.value budgets ~default:(Mc_limits.default_budgets ~u) in
  let vote_sets =
    Option.value vote_sets ~default:(default_vote_sets ~n klass)
  in
  (* forced swarm dedups through the shared table whatever the caller's
     [?visited] said; reporting [Shared] keeps the counter caveat honest *)
  let visited = if swarm = Some true then Mc_limits.Shared else visited in
  let allow_crashes, allow_late = flags_of_class klass in
  let r =
    E.run
      {
        E.n;
        f;
        u;
        vote_sets;
        klass = { E.allow_crashes; allow_late };
        budgets;
        symmetry;
        jobs;
        naive;
        visited;
        swarm;
      }
  in
  let replay_verified =
    Option.map
      (fun (v : Mc_replay.violation) ->
        Mc_replay.verify ~consensus v.Mc_replay.witness
          ~property:v.Mc_replay.property)
      r.E.violation
  in
  {
    protocol = reg.Registry.name;
    klass;
    n;
    f;
    counters = r.E.counters;
    visited;
    naive = r.E.naive;
    naive_partial = r.E.naive_partial;
    violation = r.E.violation;
    replay_verified;
    shard_load = r.E.shard_load;
  }

type canonical = {
  decisions : (Pid.t * Vote.decision) list;
  commit_msgs : int;
  cons_msgs : int;
}

let canonical ?(consensus = Registry.Paxos) ~protocol ~n ~f ?u () =
  let reg = Registry.find_exn protocol in
  let module P = (val reg.Registry.proto) in
  let module C =
    (val Registry.consensus_module ~uses_consensus:reg.Registry.uses_consensus
           consensus)
  in
  let module E = Mc_explore.Make (P) (C) in
  let u = Option.value u ~default:Sim_time.default_u in
  let c = E.canonical_run ~n ~f ~u () in
  {
    decisions = c.E.can_decisions;
    commit_msgs = c.E.can_commit_msgs;
    cons_msgs = c.E.can_cons_msgs;
  }

(* A fingerprint sampler: advance a context [prefix_steps] transitions
   along the engine-canonical order so it holds a representative
   mid-exploration state (live automata, in-flight messages, armed
   timers), then return a closure that recomputes its fingerprint as a
   DFS node does after that last step: the processes the step touched
   lose their cached digests first. Benchmarks time the closure; context
   preparation stays outside the measured region. *)
let fingerprint_sampler ?(consensus = Registry.Paxos) ?u
    ?(prefix_steps = 6) ?(symmetry = false) ?votes ~protocol ~n ~f ~klass
    () =
  let reg = Registry.find_exn protocol in
  let module P = (val reg.Registry.proto) in
  let module C =
    (val Registry.consensus_module ~uses_consensus:reg.Registry.uses_consensus
           consensus)
  in
  let module E = Mc_explore.Make (P) (C) in
  let u = Option.value u ~default:Sim_time.default_u in
  let allow_crashes, allow_late = flags_of_class klass in
  let cfg =
    {
      E.n;
      f;
      u;
      votes = Option.value votes ~default:(Array.make n Vote.yes);
      klass = { E.allow_crashes; allow_late };
      budgets = Mc_limits.default_budgets ~u;
      symmetry;
    }
  in
  let ctx = E.create_ctx cfg in
  ignore (E.exec_step ctx E.S_proposals);
  let touched = ref (Pid.all ~n) in
  (try
     for _ = 1 to prefix_steps do
       match E.enumerate ctx with
       | [] -> raise Exit
       | cand :: _ ->
           ignore (E.exec_step ctx cand);
           touched :=
             match cand with
             | E.S_proposals -> Pid.all ~n
             | E.S_crash p -> [ p ]
             | E.S_deliver { msg; _ } -> [ msg.E.dst ]
             | E.S_timeout t -> [ t.E.t_pid ]
     done
   with Exit -> ());
  let touched = !touched and forget = E.M.forget_digest ctx.E.m in
  (* [E.fingerprint] dispatches on the context: with [~symmetry] and a
     non-trivial group this times the full canonicalization (all
     renamings + orbit minimum), otherwise the plain single hash — the
     pair is mc --stats' canonicalization ns/call *)
  fun calls ->
    for _ = 1 to calls do
      List.iter forget touched;
      ignore (E.fingerprint ctx)
    done

let verdict_string o =
  match o.violation with
  | None ->
      if Mc_limits.exhausted o.counters then "ok (exhausted)"
      else "ok (budget-truncated)"
  | Some v ->
      Printf.sprintf "VIOLATION: %s%s"
        (Mc_replay.property_name v.Mc_replay.property)
        (match o.replay_verified with
        | Some true -> " (replay-verified)"
        | Some false -> " (REPLAY MISMATCH)"
        | None -> "")

let pp_outcome ppf o =
  Format.fprintf ppf "@[<v>%s, class %s, n=%d f=%d: %s@,%a" o.protocol
    (class_name o.klass) o.n o.f (verdict_string o) Mc_limits.pp_counters
    o.counters;
  (match o.visited with
  | Mc_limits.Shared ->
      Format.fprintf ppf
        "@,(shared visited table: states dedup globally; counters depend \
         on --jobs)"
  | Mc_limits.Per_item -> ());
  (match o.naive with
  | Some c ->
      Format.fprintf ppf "@,naive interleavings %s%.0f (%.1fx pruned)"
        (if o.naive_partial then ">= " else "")
        c
        (c /. float_of_int (max 1 o.counters.Mc_limits.schedules))
  | None -> ());
  (match o.violation with
  | Some v ->
      Format.fprintf ppf "@,%s@,%a" v.Mc_replay.detail Mc_replay.pp
        v.Mc_replay.witness
  | None -> ());
  Format.fprintf ppf "@]"
