(* Tests for ac_mc: cross-validation of the checker's canonical schedule
   against the engine, the L1 witnesses it must rediscover, counter
   determinism across domain counts, and the pruning ratio. *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let find_decision ds p =
  List.find_map (fun (q, d) -> if Pid.equal p q then Some d else None) ds

(* ------------------------------------------------------------------ *)
(* Canonical-schedule cross-validation: the checker's engine-ordered
   synchronous schedule must agree with [Engine.run] on [Scenario.nice]
   in every decision and in both per-layer message counts, for every
   registered protocol. A divergence means the interpreter the explorer
   branches from is not the semantics the engine executes. *)

let cross_validate protocol () =
  let n = 3 and f = 1 in
  let c = Mc_run.canonical ~protocol ~n ~f () in
  let report =
    (Registry.find_exn protocol).Registry.run (Scenario.nice ~n ~f ())
  in
  List.iter
    (fun p ->
      let mc_d = find_decision c.Mc_run.decisions p in
      let engine_d = Option.map snd (Report.decision_of report p) in
      check tbool
        (Printf.sprintf "%s: %s decides the same" protocol (Pid.to_string p))
        true
        (match (mc_d, engine_d) with
        | Some a, Some b -> Vote.decision_equal a b
        | None, None -> true
        | _ -> false))
    (Pid.all ~n);
  check tint
    (Printf.sprintf "%s: commit-layer messages" protocol)
    (Report.commit_messages report)
    c.Mc_run.commit_msgs;
  check tint
    (Printf.sprintf "%s: consensus-layer messages" protocol)
    (Report.consensus_messages report)
    c.Mc_run.cons_msgs

let cross_validation_tests =
  List.map
    (fun p -> Alcotest.test_case p `Quick (cross_validate p))
    Registry.names

(* ------------------------------------------------------------------ *)
(* The L1 witnesses, rediscovered by exhaustive search *)

let run ?budgets ?naive ~protocol ~klass () =
  Mc_run.run ?budgets ?naive ~protocol ~n:3 ~f:1 ~klass ()

let test_2pc_blocks_on_crash () =
  let o = run ~protocol:"2pc" ~klass:Mc_run.Crash () in
  check tbool "termination violation found" true
    (match o.Mc_run.violation with
    | Some v -> v.Mc_replay.property = Mc_replay.Termination
    | None -> false);
  check tbool "engine replays it" true (o.Mc_run.replay_verified = Some true);
  check tbool "the witness crashes someone" true
    (match o.Mc_run.violation with
    | Some v -> v.Mc_replay.witness.Mc_replay.crashes <> []
    | None -> false)

let test_undershoot_crash_disagreement () =
  (* found by the checker: at f=1 the undershoot's ack list is empty, so
     one crash splits the decision — no network failure needed *)
  let o = run ~protocol:"inbac-undershoot" ~klass:Mc_run.Crash () in
  check tbool "agreement violation found" true
    (match o.Mc_run.violation with
    | Some v -> v.Mc_replay.property = Mc_replay.Agreement
    | None -> false);
  check tbool "engine replays it" true (o.Mc_run.replay_verified = Some true)

let test_inbac_crash_clean () =
  let o = run ~protocol:"inbac" ~klass:Mc_run.Crash () in
  check tbool "no violation" true (Mc_run.clean o);
  check tbool "space exhausted" true (Mc_limits.exhausted o.Mc_run.counters)

let test_3pc_crash_clean () =
  let o = run ~protocol:"3pc" ~klass:Mc_run.Crash () in
  check tbool "no violation" true (Mc_run.clean o);
  check tbool "space exhausted" true (Mc_limits.exhausted o.Mc_run.counters)

(* ------------------------------------------------------------------ *)
(* Determinism and pruning *)

let test_counters_jobs_independent () =
  let at jobs =
    Mc_run.run ~jobs ~protocol:"inbac" ~n:3 ~f:1 ~klass:Mc_run.Crash ()
  in
  let a = (at 1).Mc_run.counters and b = (at 4).Mc_run.counters in
  check tint "states" a.Mc_limits.states b.Mc_limits.states;
  check tint "schedules" a.Mc_limits.schedules b.Mc_limits.schedules;
  check tint "sleep skips" a.Mc_limits.sleep_skips b.Mc_limits.sleep_skips;
  check tint "dedup hits" a.Mc_limits.dedup_hits b.Mc_limits.dedup_hits

let test_witness_deterministic () =
  let witness () =
    match
      (run ~protocol:"2pc" ~klass:Mc_run.Crash ()).Mc_run.violation
    with
    | Some v -> v.Mc_replay.witness.Mc_replay.schedule
    | None -> []
  in
  check (Alcotest.list Alcotest.string) "same shrunk schedule" (witness ())
    (witness ())

let test_dpor_prunes () =
  let o = run ~naive:true ~protocol:"inbac" ~klass:Mc_run.Crash () in
  check tbool "naive count computed" true (o.Mc_run.naive <> None);
  match o.Mc_run.naive with
  | Some naive ->
      check tbool "at least 10x fewer schedules than naive" true
        (naive /. float_of_int (max 1 o.Mc_run.counters.Mc_limits.schedules)
        >= 10.)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Fingerprint soundness. The hashed fingerprint stands for equality of
   the checker state, so it must (a) give independently rebuilt but
   structurally equal checker states equal digests, (b) change the digest
   whenever a vote, a protocol phase, or the pending-message set changes,
   and (c) partition the reachable states exactly as a digest of their
   marshalled bytes does. *)

module Fp_suite
    (Name : sig
      val name : string
    end)
    (P : Proto.PROTOCOL)
    (C : Proto.CONSENSUS) =
struct
  module E = Mc_explore.Make (P) (C)

  (* Symmetry stays off unless asked for: most of the suite exercises
     [fingerprint_hashed] directly, so the canonicalization layer stays
     out of the way. *)
  let cfg ?(symmetry = false)
      ?(klass = { E.allow_crashes = true; allow_late = false }) ?(f = 1) votes
      =
    {
      E.n = Array.length votes;
      f;
      u = Sim_time.default_u;
      votes;
      klass;
      budgets = Mc_limits.default_budgets ~u:Sim_time.default_u;
      symmetry;
    }

  let all_yes = [| Vote.yes; Vote.yes; Vote.yes |]
  let one_no = [| Vote.yes; Vote.no; Vote.yes |]

  (* A fresh context advanced [k] transitions along the deterministic
     first-candidate schedule: two calls build structurally equal states
     through entirely separate machines, sinks and intern tables. *)
  let ctx_at votes k =
    let ctx = E.create_ctx (cfg votes) in
    ignore (E.exec_step ctx E.S_proposals);
    (try
       for _ = 1 to k do
         match E.enumerate ctx with
         | [] -> raise Exit
         | c :: _ -> ignore (E.exec_step ctx c)
       done
     with Exit -> ());
    ctx

  let prop_equal_states_equal_digest =
    QCheck.Test.make ~count:30
      ~name:(Name.name ^ ": independently rebuilt equal states hash equal")
      QCheck.(int_range 0 12)
      (fun k ->
        Fingerprint.equal
          (E.fingerprint_hashed (ctx_at all_yes k))
          (E.fingerprint_hashed (ctx_at all_yes k)))

  let prop_step_changes_digest =
    QCheck.Test.make ~count:30
      ~name:
        (Name.name
       ^ ": a step (phase / message-set change) changes the digest")
      QCheck.(int_range 0 8)
      (fun k ->
        let ctx = ctx_at all_yes k in
        let before = E.fingerprint_hashed ctx in
        match E.enumerate ctx with
        | [] -> true (* terminal: nothing left to mutate *)
        | c :: _ ->
            ignore (E.exec_step ctx c);
            not (Fingerprint.equal before (E.fingerprint_hashed ctx)))

  let test_vote_mutation () =
    check tbool "flipping one vote changes the digest" true
      (not
         (Fingerprint.equal
            (E.fingerprint_hashed (ctx_at all_yes 0))
            (E.fingerprint_hashed (ctx_at one_no 0))))

  (* The oracle: an MD5 of the facts [E.fingerprint_hashed] feeds, with
     every automaton state and in-flight payload marshalled by value, so
     digest equality is byte equality up to MD5 collisions. [No_sharing]
     makes the bytes a function of the values alone, so two equal states
     digest alike whether or not their parts are physically shared.
     Unlike the hashed digest, which covers a payload by its intern id,
     it depends on nothing the context remembers across paths, so it
     also compares states of two different contexts. *)
  let marshal_digest (ctx : E.ctx) =
    let m = ctx.E.m in
    let bytes v = Marshal.to_string v [ Marshal.No_sharing ] in
    let procs =
      List.init ctx.E.cfg.E.n (fun i ->
          let p = Pid.of_index i in
          ( bytes (E.M.pstate m p),
            bytes (E.M.cstate m p),
            E.M.is_crashed m p,
            Option.map snd (E.M.decisions m).(i),
            E.M.cons_handed m p ))
    in
    let msgs =
      List.sort compare
        (List.map
           (fun (mg : E.pmsg) ->
             ( mg.E.nominal,
               Pid.index mg.E.src,
               Pid.index mg.E.dst,
               E.is_overtaken ctx mg,
               bytes mg.E.payload ))
           ctx.E.pending_msgs)
    in
    let timers =
      List.sort compare
        (List.map
           (fun (t : E.ptimer) ->
             (t.E.t_at, Pid.index t.E.t_pid, t.E.t_layer, t.E.t_id))
           ctx.E.pending_timers)
    in
    let md5 =
      Digest.string
        (bytes
           ( ctx.E.clock_t,
             ctx.E.clock_k,
             ctx.E.proposed,
             ctx.E.late_count,
             ctx.E.someone_no,
             ctx.E.crashes_left,
             procs,
             msgs,
             timers ))
    in
    {
      Fingerprint.d1 = Int64.to_int (String.get_int64_le md5 0);
      d2 = Int64.to_int (String.get_int64_le md5 8);
    }

  (* The partition property behind the explorer's counters: over every
     state a plain DFS reaches (deduplicated on the hashed digest, as the
     explorer does), a hashed digest never stands for two marshal
     digests — no two distinct states merged — and a marshal digest
     never splits over two hashed digests — no equal states told apart.
     Together they make a hashed-keyed exploration count exactly what a
     marshal-keyed one counts. [?cap] stops the DFS after that many
     nodes, for spaces too large to exhaust here. *)
  let test_partition ?klass ?f ?(cap = max_int) votes () =
    let ctx = E.create_ctx (cfg ?klass ?f votes) in
    let nodes = ref 0 in
    let to_marshal = Hashtbl.create 1024 and to_hashed = Hashtbl.create 1024 in
    let conflicts = ref 0 in
    let record tbl k v =
      match Hashtbl.find_opt tbl k with
      | Some v' ->
          if not (Fingerprint.equal v v') then incr conflicts;
          true
      | None ->
          Hashtbl.add tbl k v;
          false
    in
    let rec visit () =
      incr nodes;
      if !nodes > cap then raise Exit;
      let h = E.fingerprint_hashed ctx and md = marshal_digest ctx in
      ignore (record to_hashed md h);
      if not (record to_marshal h md) then begin
        let cands = E.enumerate ctx in
        let snap = E.save ctx in
        List.iter
          (fun cand ->
            E.restore ctx snap;
            match E.exec_step ctx cand with
            | Some _ -> () (* a violation ends the path, as in the explorer *)
            | None -> visit ())
          cands;
        E.release ctx snap
      end
    in
    (try visit () with Exit -> ());
    let classes = Hashtbl.length to_marshal in
    check tbool (Printf.sprintf "%d classes reached" classes) true
      (classes > 1);
    check tint "hashed and marshal digests partition alike" 0 !conflicts

  (* Save/restore exactness: a context driven through a random schedule,
     taking save / sibling step / restore / release detours at random
     steps, must stay indistinguishable from a twin that never detours.
     A detour executes a sibling candidate before restoring, so the
     restore always has dirty state to rewind, and releasing its record
     makes a later save recapture it. The twins are compared by marshal
     digest at every step: the hashed digest covers payloads by intern
     ids, which the detours' sends may have assigned, so it is compared
     only within the detouring context, before and after each detour. At
     the end the rendered traces must match, so both contexts record
     one (the explorer's do not). *)
  let restore_prop ~label klass =
    QCheck.Test.make ~count:25
      ~name:(Name.name ^ ": " ^ label ^ " detours exact")
      QCheck.(
        list_of_size Gen.(int_range 1 20) (pair (int_range 0 1000) bool))
      (fun choices ->
        let a = E.create_ctx ~record_trace:true (cfg ~klass all_yes) in
        let b = E.create_ctx ~record_trace:true (cfg ~klass all_yes) in
        ignore (E.exec_step a E.S_proposals);
        ignore (E.exec_step b E.S_proposals);
        List.for_all
          (fun (c, detour) ->
            let ca = E.enumerate a and cb = E.enumerate b in
            let la = List.length ca in
            la = List.length cb
            && (la = 0
               ||
               let i = c mod la in
               let exact =
                 (not detour) || la < 2
                 ||
                 let before = E.fingerprint_hashed a in
                 let s = E.save a in
                 ignore (E.exec_step a (List.nth ca ((i + 1) mod la)));
                 E.restore a s;
                 E.release a s;
                 Fingerprint.equal before (E.fingerprint_hashed a)
               in
               ignore (E.exec_step a (List.nth ca i));
               ignore (E.exec_step b (List.nth cb i));
               exact && Fingerprint.equal (marshal_digest a) (marshal_digest b)))
          choices
        && Format.asprintf "%a" Trace.pp (E.M.trace a.E.m)
           = Format.asprintf "%a" Trace.pp (E.M.trace b.E.m))

  let prop_restore_crash =
    restore_prop ~label:"crash" { E.allow_crashes = true; allow_late = false }

  let prop_restore_network =
    restore_prop ~label:"network" { E.allow_crashes = false; allow_late = true }

  (* The per-process digest cache: at every node of a random walk, the
     fingerprint fed from the machine's cached digests must equal the
     one computed after dropping every process's digests. The walk takes
     save / sibling step / restore / release detours, so restores rewind
     digests and later saves recapture released records. *)
  let cache_prop ~label ~n ~symmetry klass =
    QCheck.Test.make ~count:25
      ~name:
        (Printf.sprintf "%s: digest cache, %s, n=%d, symmetry %s" Name.name
           label n
           (if symmetry then "on" else "off"))
      QCheck.(
        list_of_size Gen.(int_range 1 25) (pair (int_range 0 1000) bool))
      (fun choices ->
        let ctx =
          E.create_ctx (cfg ~symmetry ~klass (Array.make n Vote.yes))
        in
        let agrees () =
          let cached = E.fingerprint ctx in
          List.iter (E.M.forget_digest ctx.E.m) (Pid.all ~n);
          Fingerprint.equal cached (E.fingerprint ctx)
        in
        ignore (E.exec_step ctx E.S_proposals);
        List.for_all
          (fun (c, detour) ->
            agrees ()
            &&
            match E.enumerate ctx with
            | [] -> true
            | cands ->
                let la = List.length cands in
                let i = c mod la in
                let detour_agrees =
                  (not detour) || la < 2
                  ||
                  let s = E.save ctx in
                  ignore (E.exec_step ctx (List.nth cands ((i + 1) mod la)));
                  let ok = agrees () in
                  E.restore ctx s;
                  E.release ctx s;
                  ok
                in
                ignore (E.exec_step ctx (List.nth cands i));
                detour_agrees)
          choices
        && agrees ())

  let cache_props =
    let crash = { E.allow_crashes = true; allow_late = false }
    and network = { E.allow_crashes = false; allow_late = true } in
    List.concat_map
      (fun (label, klass) ->
        [
          cache_prop ~label ~n:3 ~symmetry:false klass;
          cache_prop ~label ~n:4 ~symmetry:true klass;
        ])
      [ ("crash", crash); ("network", network) ]

  (* Recycled snapshot records must not alias live ones: releasing [s2]
     hands its record to the next [save]; mutating and restoring through
     the recycled record must reproduce its own capture point and leave
     the still-held older snapshot [s1] intact. *)
  let test_pool_no_aliasing () =
    let ctx = E.create_ctx (cfg all_yes) in
    ignore (E.exec_step ctx E.S_proposals);
    let step () =
      match E.enumerate ctx with
      | [] -> ()
      | c :: _ -> ignore (E.exec_step ctx c)
    in
    let s1 = E.save ctx in
    let fp1 = E.fingerprint_hashed ctx in
    step ();
    step ();
    let s2 = E.save ctx in
    step ();
    E.restore ctx s2;
    E.release ctx s2;
    let fp2 = E.fingerprint_hashed ctx in
    let s3 = E.save ctx in
    step ();
    step ();
    E.restore ctx s3;
    check tbool "s3 (recycled record) restores its own capture point" true
      (Fingerprint.equal fp2 (E.fingerprint_hashed ctx));
    E.release ctx s3;
    E.restore ctx s1;
    check tbool "s1 unaffected by pool reuse" true
      (Fingerprint.equal fp1 (E.fingerprint_hashed ctx))

  let tests =
    [
      QCheck_alcotest.to_alcotest prop_equal_states_equal_digest;
      QCheck_alcotest.to_alcotest prop_step_changes_digest;
      Alcotest.test_case (Name.name ^ ": vote mutation") `Quick
        test_vote_mutation;
      Alcotest.test_case (Name.name ^ " 111: marshal partition") `Quick
        (test_partition all_yes);
      Alcotest.test_case (Name.name ^ " 101: marshal partition") `Quick
        (test_partition one_no);
    ]

  let pool_tests =
    [
      QCheck_alcotest.to_alcotest prop_restore_crash;
      QCheck_alcotest.to_alcotest prop_restore_network;
      Alcotest.test_case (Name.name ^ ": recycled records do not alias")
        `Quick test_pool_no_aliasing;
    ]
    @ List.map QCheck_alcotest.to_alcotest cache_props
end

module Fp_inbac =
  Fp_suite
    (struct
      let name = "inbac"
    end)
    (Inbac)
    (Consensus_paxos)

module Fp_2pc =
  Fp_suite
    (struct
      let name = "2pc"
    end)
    (Two_pc)
    (Consensus_null)

(* Two INBAC spaces that reach states differing in one hashed field the
   n=3 crash spaces above never tell apart. With crashes and late
   deliveries at n=3, a process can end up waiting for help or not in
   otherwise equal states ([wait]); at n=4 f=2 a process acknowledged by
   two backups holds their [C]s in either arrival order ([collection1]).
   Neither space is exhausted here: the DFS stops after a fixed number
   of nodes, well past the first such pair (about 20k and 30k nodes). *)
let test_inbac_all_class_partition =
  Fp_inbac.test_partition
    ~klass:{ Fp_inbac.E.allow_crashes = true; allow_late = true }
    ~cap:50_000 Fp_inbac.all_yes

let test_inbac_f2_partition =
  Fp_inbac.test_partition ~f:2 ~cap:60_000 (Array.make 4 Vote.yes)

(* ------------------------------------------------------------------ *)
(* Decision stability without a trace: the explorer's machine records
   none, so a re-decision must reach [check_safety] through the machine.
   [Re_decider] (test/re_decider.ml) aborts on a no vote, then commits
   when its timer fires. *)

module Re_decider_mc = Mc_explore.Make (Re_decider) (Consensus_null)

let test_checker_flags_redecision () =
  let module E = Re_decider_mc in
  let n = 3 and u = Sim_time.default_u in
  let cfg =
    {
      E.n;
      f = 1;
      u;
      votes = Array.make n Vote.no;
      klass = { E.allow_crashes = false; allow_late = false };
      budgets = Mc_limits.default_budgets ~u;
      symmetry = false;
    }
  in
  let is_ac2 detail =
    String.starts_with ~prefix:"decision stability (AC2)" detail
  in
  let ctx = E.create_ctx cfg in
  check tbool "every process aborts first: no breach" true
    (E.exec_step ctx E.S_proposals = None);
  (match E.enumerate ctx with
  | [] -> Alcotest.fail "no timer armed"
  | step :: _ -> (
      match E.exec_step ctx step with
      | Some (Mc_replay.Agreement, detail) ->
          check tbool ("step reports " ^ detail) true (is_ac2 detail)
      | _ -> Alcotest.fail "the re-decision step reports no agreement breach"));
  check tint "the context recorded no trace" 0
    (Trace.length (E.M.trace ctx.E.m));
  let r =
    E.run
      ({
         E.n;
         f = 1;
         u;
         vote_sets = [ cfg.E.votes ];
         klass = cfg.E.klass;
         budgets = cfg.E.budgets;
         symmetry = false;
         jobs = Some 1;
         naive = false;
         visited = Mc_limits.Per_item;
         swarm = None;
       }
        : E.params)
  in
  match r.E.violation with
  | Some v ->
      check tbool "the run reports an agreement violation" true
        (v.Mc_replay.property = Mc_replay.Agreement);
      check tbool ("with detail " ^ v.Mc_replay.detail) true
        (is_ac2 v.Mc_replay.detail)
  | None -> Alcotest.fail "the run found no violation"

(* ------------------------------------------------------------------ *)
(* Frontier scheduling: the structural-progress fix, mctable
   byte-determinism across job counts, and the shared visited table's
   counter contract. *)

(* Regression for the frontier fixed-point bug: the root expansion
   [[]] -> [[S_proposals]] is a 1 -> 1 round, which the old
   equal-length check mistook for a fixed point — every crash-free
   exploration ran as a single frontier item, with no parallelism. *)
let test_frontier_nice_regression () =
  let cfg =
    {
      Fp_inbac.E.n = 3;
      f = 1;
      u = Sim_time.default_u;
      votes = Fp_inbac.all_yes;
      klass = { Fp_inbac.E.allow_crashes = false; allow_late = false };
      budgets = Mc_limits.default_budgets ~u:Sim_time.default_u;
      symmetry = false;
    }
  in
  let items = Fp_inbac.E.frontier cfg in
  check tbool
    (Printf.sprintf "nice-class frontier splits (%d items)"
       (List.length items))
    true
    (List.length items > 1)

(* The deterministic contract, end to end: the rendered mctable — the
   user-facing artifact — must be byte-identical across job counts.
   Restricted to two protocols and the crash class to stay test-sized. *)
let test_mctable_bytes_across_jobs () =
  let render jobs =
    Table_mc.render ~protocols:[ "inbac"; "2pc" ] ~classes:[ Mc_run.Crash ]
      ~jobs ~n:3 ~f:1 ()
  in
  let j1 = render 1 in
  check Alcotest.string "jobs 1 = jobs 2" j1 (render 2);
  check Alcotest.string "jobs 1 = jobs 8" j1 (render 8)

(* Global dedup can only shrink the explored space: the shared table
   must never report MORE states than per-item mode, and must reach the
   same (clean, exhausted) verdict on the pinned config. Jobs 2 runs the
   shared frontier over two domains; jobs 4 resolves to swarm walks
   unless swarm is forced off, which runs the frontier over four. *)
let test_shared_visited_fewer_states () =
  let at ?swarm visited jobs =
    Mc_run.run ~visited ?swarm ~jobs ~protocol:"inbac" ~n:3 ~f:1
      ~klass:Mc_run.Crash ()
  in
  let per_item = at Mc_limits.Per_item 1 in
  List.iter
    (fun (jobs, swarm) ->
      let shared = at ?swarm Mc_limits.Shared jobs in
      let where =
        Printf.sprintf "jobs %d%s" jobs
          (if swarm = Some false then " no swarm" else "")
      in
      let states = shared.Mc_run.counters.Mc_limits.states in
      check tbool ("clean at " ^ where) true (Mc_run.clean shared);
      check tbool ("no budget hit at " ^ where) false
        shared.Mc_run.counters.Mc_limits.budget_hit;
      check tbool
        ("0 < shared states <= per-item states at " ^ where)
        true
        (states > 0 && states <= per_item.Mc_run.counters.Mc_limits.states))
    [ (1, None); (2, None); (4, None); (4, Some false) ]

(* Per-item mode maps every frontier item to exactly one exploration
   against its own table, so which domain claims which item cannot move
   a counter: the whole record (peak occupancy and symmetry counters
   included) at jobs 4 must equal the sequential one. *)
let test_per_item_counters_across_jobs () =
  let at jobs =
    (Mc_run.run ~jobs ~protocol:"paxos-commit" ~n:3 ~f:1
       ~klass:Mc_run.Crash ())
      .Mc_run.counters
  in
  check
    (Alcotest.testable Mc_limits.pp_counters ( = ))
    "full counter record" (at 1) (at 4)

(* ------------------------------------------------------------------ *)
(* Swarm mode: independent randomized-order walks, one per domain,
   coupled only through the shared visited table. *)

(* Differential contract, property-tested over the job count: whatever
   the domain count, a swarm run must reach the same verdict as the
   sequential per-item explorer (clean runs stay clean, violations name
   the same property), explore at least one state, and — when the
   baseline exhausts a clean space — stay within the per-item envelope
   (global dedup plus the bounded open-depth prefix can only shrink the
   space). Counters themselves are jobs-dependent by contract, so only
   the envelope is asserted, never equality. *)
let swarm_differential ~protocol ~klass ~budgets =
  let name =
    Printf.sprintf "swarm %s/%s verdict = sequential (any jobs)" protocol
      (Mc_run.class_name klass)
  in
  let baseline =
    Mc_run.run ~budgets ~jobs:1 ~protocol ~n:3 ~f:1 ~klass ()
  in
  let violation_key o =
    Option.map
      (fun (v : Mc_replay.violation) ->
        Mc_replay.property_name v.Mc_replay.property)
      o.Mc_run.violation
  in
  let base_exhausted =
    Mc_run.clean baseline
    && Mc_limits.exhausted baseline.Mc_run.counters
  in
  QCheck.Test.make ~count:6 ~name
    QCheck.(int_range 1 6)
    (fun jobs ->
      let swarm =
        Mc_run.run ~budgets ~swarm:true ~jobs ~protocol ~n:3 ~f:1 ~klass ()
      in
      let states = swarm.Mc_run.counters.Mc_limits.states in
      violation_key swarm = violation_key baseline
      && states > 0
      && ((not base_exhausted)
         || states <= baseline.Mc_run.counters.Mc_limits.states))

let network_capped =
  {
    (Mc_limits.default_budgets ~u:Sim_time.default_u) with
    Mc_limits.max_states = 2_000;
  }

let swarm_differential_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      swarm_differential ~protocol:"inbac" ~klass:Mc_run.Crash
        ~budgets:(Mc_limits.default_budgets ~u:Sim_time.default_u);
      swarm_differential ~protocol:"2pc" ~klass:Mc_run.Crash
        ~budgets:(Mc_limits.default_budgets ~u:Sim_time.default_u);
      swarm_differential ~protocol:"inbac" ~klass:Mc_run.Network
        ~budgets:network_capped;
      swarm_differential ~protocol:"2pc" ~klass:Mc_run.Network
        ~budgets:network_capped;
    ]

(* Eight domains hammer one lock-free shards table with overlapping key
   streams: [find_or_insert] acknowledges each distinct key fresh
   ([None]) exactly once table-wide, so the per-domain fresh counts must
   sum to both the table size and the distinct-key count, while a
   concurrent reader checks [size] never moves backwards (the counter is
   monotone and acknowledgment-consistent — no transient under-report
   window between a winning CAS and the size bump being visible). *)
let test_shards_stress () =
  let distinct = 4_096 and domains = 8 in
  let table = Mc_shards.create ~capacity:distinct () in
  let stop = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let last = ref 0 in
        let monotone = ref true in
        while not (Atomic.get stop) do
          let s = Mc_shards.size table in
          if s < !last then monotone := false;
          last := s;
          Domain.cpu_relax ()
        done;
        !monotone)
  in
  let key i =
    { Fingerprint.d1 = i * 0x2545F4914F6CDD1D land max_int; d2 = i }
  in
  let worker d () =
    let fresh = ref 0 in
    for k = 0 to distinct - 1 do
      (* every domain inserts every key, each in a different order *)
      let i = (k + (d * 997)) mod distinct in
      if Mc_shards.find_or_insert table (key i) d = None then incr fresh
    done;
    !fresh
  in
  let workers = List.init domains (fun d -> Domain.spawn (worker d)) in
  let fresh_sum =
    List.fold_left (fun acc w -> acc + Domain.join w) 0 workers
  in
  Atomic.set stop true;
  check tbool "size monotone under concurrent inserts" true
    (Domain.join reader);
  check tint "fresh-insert acknowledgments sum to distinct keys" distinct
    fresh_sum;
  check tint "size equals distinct keys" distinct (Mc_shards.size table);
  (* and every key is findable with some inserter's value *)
  let missing = ref 0 in
  for i = 0 to distinct - 1 do
    if Mc_shards.find_opt table (key i) = None then incr missing
  done;
  check tint "no key lost" 0 !missing

(* n=5-sized budgets must not preallocate the shards index space: the
   spine caps at 2^21 buckets, segments materialize on first touch, and
   keys stay findable across segment boundaries. A fresh segment is a
   minor-heap allocation: one that forced a minor collection would stop
   every domain of a shared or swarm run. (64 first touches allocate
   about 50k words, well inside the default 256k-word minor heap.) *)
let test_shards_growth () =
  let huge = Mc_shards.create ~capacity:100_000_000 () in
  check tint "buckets capped at 2^21" (1 lsl 21) (Mc_shards.buckets huge);
  check tint "no segments before the first insert" 0
    (Mc_shards.segments_allocated huge);
  let key i =
    { Fingerprint.d1 = i * 0x2545F4914F6CDD1D land max_int; d2 = i }
  in
  let insert lo hi =
    for i = lo to hi do
      ignore (Mc_shards.find_or_insert huge (key i) i)
    done
  in
  let minors () = (Gc.quick_stat ()).Gc.minor_collections in
  Gc.minor ();
  let before = minors () in
  insert 0 63;
  check tint "64 first-touch inserts force no minor collection" before
    (minors ());
  insert 64 999;
  check tint "inserts land" 1_000 (Mc_shards.size huge);
  check tbool "segments materialize lazily, at most one per insert" true
    (let segs = Mc_shards.segments_allocated huge in
     segs >= 1 && segs <= 1_000);
  let missing = ref 0 in
  for i = 0 to 999 do
    if Mc_shards.find_opt huge (key i) = None then incr missing
  done;
  check tint "no key lost across segments" 0 !missing

(* ------------------------------------------------------------------ *)
(* Symmetry reduction: canonicalization must be invisible in verdicts. *)

let violation_property o =
  Option.map
    (fun (v : Mc_replay.violation) ->
      Mc_replay.property_name v.Mc_replay.property)
    o.Mc_run.violation

(* Differential contract, property-tested over budget shapes and vote
   vectors: symmetry-on and symmetry-off must reach the same verdict
   (same violated property, or both clean) with the same
   counterexample-replay outcome, and when the off arm exhausts a clean
   space the on arm must exhaust it too, inside the off arm's state
   envelope — canonicalization merges orbits, it never drops an
   equivalence class. Randomizing the vote vector exercises the
   vote-refinement of the permutation group (unequal votes split the
   process classes). *)
let symmetry_differential ~protocol ~klass =
  let name =
    Printf.sprintf "symmetry %s/%s verdict = plain (any budgets/votes)"
      protocol
      (Mc_run.class_name klass)
  in
  let u = Sim_time.default_u in
  QCheck.Test.make ~count:4 ~name
    QCheck.(
      triple (int_range 1 2) (int_range 1 2)
        (array_of_size (Gen.return 4) bool))
    (fun (late, hor, yeas) ->
      (* network classes stay at horizon U: one more horizon unit opens
         the consensus retry cascade and a minutes-long space — the
         differential is about verdict equality, not about stressing the
         cascade (the crash classes do range over the horizon) *)
      let hor = match klass with Mc_run.Network -> 1 | _ -> hor in
      let budgets =
        {
          (Mc_limits.default_budgets ~u) with
          Mc_limits.horizon = hor * u;
          max_late = late;
        }
      in
      let votes =
        Array.map (fun y -> if y then Vote.yes else Vote.no) yeas
      in
      let arm symmetry =
        Mc_run.run ~budgets ~symmetry ~vote_sets:[ votes ] ~jobs:1 ~protocol
          ~n:4 ~f:1 ~klass ()
      in
      let off = arm false and on = arm true in
      violation_property off = violation_property on
      && off.Mc_run.replay_verified = on.Mc_run.replay_verified
      &&
      if Mc_run.clean off && Mc_limits.exhausted off.Mc_run.counters then
        Mc_limits.exhausted on.Mc_run.counters
        && on.Mc_run.counters.Mc_limits.states
           <= off.Mc_run.counters.Mc_limits.states
      else true)

let symmetry_differential_tests =
  List.map QCheck_alcotest.to_alcotest
    (List.concat_map
       (fun protocol ->
         [
           symmetry_differential ~protocol ~klass:Mc_run.Crash;
           symmetry_differential ~protocol ~klass:Mc_run.Network;
         ])
       [ "inbac"; "2pc"; "paxos-commit" ])

(* Budgets at which the network classes exhaust in both modes, so
   symmetry on and off compare complete explorations. *)
let exhaustible =
  {
    (Mc_limits.default_budgets ~u:Sim_time.default_u) with
    Mc_limits.horizon = Sim_time.default_u;
    max_late = 1;
  }

(* The artifact-level neutrality: every mctable row — verdict string and
   consistency flag, violated or clean — identical between the modes, on
   exhaustible spaces (crash at the default budgets, network at
   max_late=1 horizon=U) so "exhausted" annotations match too. *)
let test_mctable_verdicts_symmetry () =
  let protocols = [ "inbac"; "2pc"; "inbac-undershoot" ] in
  let compare_rows ~classes ~budgets =
    let rows symmetry =
      Table_mc.rows ~protocols ~classes ~budgets ~symmetry ~jobs:2 ~n:4 ~f:1
        ()
    in
    List.iter2
      (fun (a : Table_mc.row) (b : Table_mc.row) ->
        check Alcotest.string "verdict"
          (Mc_run.verdict_string a.Table_mc.outcome)
          (Mc_run.verdict_string b.Table_mc.outcome);
        check tbool "consistency flag" a.Table_mc.ok b.Table_mc.ok)
      (rows false) (rows true)
  in
  compare_rows ~classes:[ Mc_run.Crash ]
    ~budgets:(Mc_limits.default_budgets ~u:Sim_time.default_u);
  compare_rows ~classes:[ Mc_run.Network ] ~budgets:exhaustible

(* The reduction itself, on five INBAC f=1 spaces at --jobs 1: crash at
   n=4 at the default budgets, and network and all at n=4 and crash and
   network at n=5 at the exhaustible bound (horizon U, max_late 1). Both
   runs of an arm must exhaust with the same verdict, the state counts
   off -> on are pinned, and the best ratio must stay at least 5x (it
   reads 13.3x, on the n=5 crash space). *)
let test_bench_symmetry_arms () =
  let arms =
    [
      ("crash n=4", 4, Mc_run.Crash, None, 124940, 13046);
      ("network n=4", 4, Mc_run.Network, Some exhaustible, 2088, 532);
      ("all n=4", 4, Mc_run.All, Some exhaustible, 13364, 2504);
      ("crash n=5", 5, Mc_run.Crash, Some exhaustible, 12880, 968);
      ("network n=5", 5, Mc_run.Network, Some exhaustible, 9440, 840);
    ]
  in
  let best =
    List.fold_left
      (fun best (name, n, klass, budgets, off_states, on_states) ->
        let arm symmetry =
          Mc_run.run ?budgets ~symmetry ~jobs:1 ~naive:false
            ~protocol:"inbac" ~n ~f:1 ~klass ()
        in
        let off = arm false and on = arm true in
        let states o = o.Mc_run.counters.Mc_limits.states in
        check tint (name ^ ": states, symmetry off") off_states (states off);
        check tint (name ^ ": states, symmetry on") on_states (states on);
        check tbool (name ^ ": both exhaust") true
          (Mc_limits.exhausted off.Mc_run.counters
          && Mc_limits.exhausted on.Mc_run.counters);
        check Alcotest.string (name ^ ": verdict")
          (Mc_run.verdict_string off) (Mc_run.verdict_string on);
        Float.max best
          (float_of_int (states off) /. float_of_int (max 1 (states on))))
      0.0 arms
  in
  check tbool
    (Printf.sprintf "best reduction %.2fx >= 5x" best)
    true (best >= 5.0)

(* ------------------------------------------------------------------ *)
(* Golden counters of the benchmark sweep. A verdict alone does not
   guard canonicalization: a fingerprint that wrongly merges two states
   can still leave a clean space clean, only smaller. The full counter
   record of every sweep space (each run at --jobs 1, the vote vectors
   it picks from, plus the vote-0-at-rank-1 variant of the spaces that
   default to all yes) is pinned instead, so any change to what the
   checker explores shows up here, however the verdict lands. *)

let sweep_spaces =
  let c states transitions schedules terminals dedup_hits sleep_skips
      horizon_cuts peak_visited canon_calls orbit_hits twin_skips =
    {
      Mc_limits.states;
      transitions;
      schedules;
      terminals;
      dedup_hits;
      sleep_skips;
      horizon_cuts;
      depth_cuts = 0;
      budget_hit = false;
      peak_visited;
      canon_calls;
      orbit_hits;
      twin_skips;
    }
  in
  let ok = "ok (exhausted)" in
  [
    ( ("inbac", 4, Mc_run.Crash, []),
      ok,
      c 13046 19004 4826 54 4596 19384 176 658 19040 9276 574 );
    ( ("inbac", 4, Mc_run.Crash, [ 1 ]),
      ok,
      c 6523 9502 2413 27 2298 9692 88 658 9520 4436 287 );
    ( ("inbac", 4, Mc_run.Crash, [ 2 ]),
      ok,
      c 6523 9502 2413 27 2298 9692 88 658 9520 4692 287 );
    ( ("paxos-commit", 4, Mc_run.Crash, [ 1 ]),
      ok,
      c 8040 11697 3212 77 3031 10541 104 632 11724 5904 394 );
    ( ("paxos-commit", 4, Mc_run.Crash, [ 2 ]),
      ok,
      c 8209 11931 3255 80 3071 10737 104 632 11958 5573 408 );
    ( ("faster-paxos-commit", 4, Mc_run.Crash, [ 1 ]),
      ok,
      c 2705 6903 3657 71 3578 2654 8 505 6930 2935 632 );
    ( ("faster-paxos-commit", 4, Mc_run.Crash, [ 2 ]),
      ok,
      c 2705 6903 3657 71 3578 2654 8 505 6930 2798 632 );
    ( ("3pc", 3, Mc_run.Network, []),
      "VIOLATION: agreement (replay-verified)",
      c 64166 162172 89571 4302 85269 51324 0 28696 0 0 0 );
    ( ("3pc", 3, Mc_run.Network, [ 1 ]),
      ok,
      c 11134 27114 14508 1026 13482 8048 0 2370 0 0 0 );
  ]

let counters_testable =
  let pp ppf (c : Mc_limits.counters) =
    Format.fprintf ppf
      "%a; depth cuts %d, budget hit %b, peak visited %d, canonicalizations \
       %d"
      Mc_limits.pp_counters c c.Mc_limits.depth_cuts c.Mc_limits.budget_hit
      c.Mc_limits.peak_visited c.Mc_limits.canon_calls
  in
  Alcotest.testable pp ( = )

let sweep_golden_tests =
  List.map
    (fun ((protocol, n, klass, ranks), verdict, counters) ->
      let name =
        Printf.sprintf "%s n=%d %s vote0 [%s]" protocol n
          (Mc_run.class_name klass)
          (String.concat "," (List.map string_of_int ranks))
      in
      Alcotest.test_case name `Quick (fun () ->
          let vote_sets =
            match ranks with
            | [] -> None
            | _ ->
                let votes = Array.make n Vote.yes in
                List.iter
                  (fun r -> votes.(Pid.index (Pid.of_rank r)) <- Vote.no)
                  ranks;
                Some [ votes ]
          in
          let o =
            Mc_run.run ?vote_sets ~jobs:1 ~protocol ~n ~f:1 ~klass ()
          in
          check Alcotest.string "verdict" verdict (Mc_run.verdict_string o);
          check counters_testable "counters" counters o.Mc_run.counters))
    sweep_spaces

(* Allocation pin on the fingerprint hot path. A warm probe context
   (INBAC n=4, f=1, all yes: the group swaps the two plain participants,
   order 2) recomputes its fingerprint; every renaming-aware feeder, the
   message rows, the payload-digest cache and the timer sort reuse their
   buffers, so what remains per call is the digest record. The ceilings
   leave room for the compiler, not for a per-renaming sort or closure:
   the sorting canonicalizers allocated 1242 and 152 words a call. *)
let test_fingerprint_allocation () =
  let words_per_call ~symmetry =
    let probe =
      Mc_run.fingerprint_sampler ~symmetry ~protocol:"inbac" ~n:4 ~f:1
        ~klass:Mc_run.Crash ()
    in
    let calls = 1_000 in
    probe 100;
    let w0 = Gc.minor_words () in
    probe calls;
    (Gc.minor_words () -. w0) /. float_of_int calls
  in
  let canon = words_per_call ~symmetry:true in
  let plain = words_per_call ~symmetry:false in
  check tbool
    (Printf.sprintf "canonical fingerprint: %.1f <= 128 minor words/call" canon)
    true (canon <= 128.);
  check tbool
    (Printf.sprintf "plain fingerprint: %.1f <= 64 minor words/call" plain)
    true (plain <= 64.)

let () =
  let quick name fn = Alcotest.test_case name `Quick fn in
  Alcotest.run "mc"
    [
      ("canonical-vs-engine", cross_validation_tests);
      ( "fingerprint",
        Fp_inbac.tests @ Fp_2pc.tests
        @ [
            quick "inbac 111 crash+late: marshal partition (capped)"
              test_inbac_all_class_partition;
            quick "inbac 1111 f=2: marshal partition (capped)"
              test_inbac_f2_partition;
          ] );
      ( "witnesses",
        [
          quick "2pc blocks on coordinator crash" test_2pc_blocks_on_crash;
          quick "undershoot splits on one crash"
            test_undershoot_crash_disagreement;
          quick "inbac crash space clean" test_inbac_crash_clean;
          quick "3pc crash space clean" test_3pc_crash_clean;
          quick "re-decision flagged without a trace"
            test_checker_flags_redecision;
        ] );
      ( "determinism",
        [
          quick "counters independent of --jobs" test_counters_jobs_independent;
          quick "shrunk witness deterministic" test_witness_deterministic;
          quick "dpor + dedup prune >= 10x" test_dpor_prunes;
        ] );
      ( "frontier-scheduling",
        [
          quick "nice frontier splits (fixed-point regression)"
            test_frontier_nice_regression;
          quick "mctable bytes identical across jobs 1/2/8"
            test_mctable_bytes_across_jobs;
          quick "shared visited never more states"
            test_shared_visited_fewer_states;
          quick "per-item counters identical across jobs 1/4"
            test_per_item_counters_across_jobs;
        ] );
      ( "swarm",
        swarm_differential_tests
        @ [
            quick "shards: 8-domain stress, size = fresh-insert sum"
              test_shards_stress;
            quick "shards: capped spine, lazy segments" test_shards_growth;
          ] );
      ( "symmetry",
        symmetry_differential_tests
        @ [
            quick "mctable verdicts identical symmetry on/off"
              test_mctable_verdicts_symmetry;
            quick "bench symmetry arms" test_bench_symmetry_arms;
            quick "fingerprint allocation per call"
              test_fingerprint_allocation;
          ] );
      ("sweep-golden", sweep_golden_tests);
      ("snapshot-pool", Fp_inbac.pool_tests @ Fp_2pc.pool_tests);
    ]
