(* INBAC-focused tests: backup topology, the 2U direct-decision path, the
   acknowledgement structure, the helping path, the fast-abort variant and
   INBAC's indulgence (full NBAC under crashes and network failures). *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let u = Sim_time.default_u
let run scenario = (Registry.find_exn "inbac").Registry.run scenario

let env ~n ~f rank =
  { Proto.n; f; u; self = Pid.of_rank rank }

(* ------------------------------------------------------------------ *)
(* Backup topology (Section 5.2) *)

let test_backups_low_ranks () =
  (* P_i, i <= f: backups are {P1..Pf, P_{f+1}} minus itself — f others *)
  let n = 6 and f = 3 in
  List.iter
    (fun i ->
      let b = Inbac.backups (env ~n ~f i) in
      check tint (Printf.sprintf "P%d has f backups" i) f (List.length b);
      check tbool "does not back up at itself" false
        (List.exists (fun q -> Pid.rank q = i) b);
      check tbool "all backups within P1..P_{f+1}" true
        (List.for_all (fun q -> Pid.rank q <= f + 1) b))
    [ 1; 2; 3 ]

let test_backups_high_ranks () =
  let n = 6 and f = 3 in
  List.iter
    (fun i ->
      let b = Inbac.backups (env ~n ~f i) in
      check (Alcotest.list tint) (Printf.sprintf "P%d backs up at P1..Pf" i)
        [ 1; 2; 3 ] (List.map Pid.rank b))
    [ 4; 5; 6 ]

(* ------------------------------------------------------------------ *)
(* Nice executions *)

let test_nice_two_delays_everywhere () =
  List.iter
    (fun (n, f) ->
      let report = run (Scenario.nice ~n ~f ()) in
      List.iter
        (fun p ->
          match Report.decision_of report p with
          | Some (at, d) ->
              check tbool
                (Printf.sprintf "n=%d f=%d %s decides commit at exactly 2U" n f
                   (Pid.to_string p))
                true
                (at = 2 * u && Vote.decision_equal d Vote.commit)
          | None -> Alcotest.fail "process did not decide")
        (Pid.all ~n))
    [ (2, 1); (3, 1); (3, 2); (5, 2); (8, 7); (13, 6) ]

let test_nice_message_structure () =
  let n = 5 and f = 2 in
  let report = run (Scenario.nice ~n ~f ()) in
  let sends = Trace.network_sends ~layer:Trace.Commit_layer report.Report.trace in
  let at_time t =
    List.length (List.filter (fun e -> Trace.time_of e = t) sends)
  in
  (* fn vote messages at time 0, fn consolidated acks at time U *)
  check tint "fn messages at time 0" (f * n) (at_time 0);
  check tint "fn messages at time U" (f * n) (at_time u);
  check tint "nothing else" (2 * f * n) (List.length sends)

let test_nice_acks_arrive_at_each_process () =
  let n = 6 and f = 2 in
  let report = run (Scenario.nice ~n ~f ()) in
  (* every process receives exactly f [C] acknowledgements at 2U *)
  List.iter
    (fun p ->
      let acks =
        List.filter
          (function
            | Trace.Deliver { at; dst; tag; src; _ } ->
                at = 2 * u && Pid.equal dst p
                && (not (Pid.equal src dst))
                && String.length tag >= 2
                && String.sub tag 0 2 = "[C"
            | _ -> false)
          (Trace.entries report.Report.trace)
      in
      check tint
        (Printf.sprintf "%s receives f acks" (Pid.to_string p))
        f (List.length acks))
    (Pid.all ~n)

let test_nice_no_consensus_no_help () =
  let report = run (Scenario.nice ~n:7 ~f:3 ()) in
  check tbool "consensus never invoked" false (Report.consensus_invoked report);
  let help_sent =
    List.exists
      (function
        | Trace.Send { tag = "[HELP]"; _ } -> true
        | _ -> false)
      (Trace.entries report.Report.trace)
  in
  check tbool "no HELP message" false help_sent

(* ------------------------------------------------------------------ *)
(* Decision paths *)

let decide_paths report =
  Trace.notes ~label:"decide-path" report.Report.trace
  |> List.map (fun (_, pid, _, value) -> (Pid.rank pid, value))

let test_direct_path_in_nice_runs () =
  let report = run (Scenario.nice ~n:5 ~f:2 ()) in
  check tbool "every decision is direct" true
    (List.for_all (fun (_, path) -> path = "direct") (decide_paths report))

let test_consensus_path_under_crash () =
  let scenario =
    Scenario.with_crashes (Scenario.nice ~n:5 ~f:2 ())
      [
        (Pid.of_rank 1, Scenario.Before u); (Pid.of_rank 2, Scenario.Before u);
      ]
  in
  let report = run scenario in
  check tbool "NBAC" true (Check.solves_nbac (Check.run report));
  check tbool "someone used consensus" true
    (List.exists (fun (_, path) -> path = "consensus") (decide_paths report))

let test_helping_path_when_all_backups_die () =
  (* every backup of the high-rank processes dies at time 0: no [C] can
     ever arrive, cnt = 0, so they must HELP each other *)
  let scenario =
    Scenario.with_crashes (Scenario.nice ~n:5 ~f:2 ())
      [
        (Pid.of_rank 1, Scenario.Before 0); (Pid.of_rank 2, Scenario.Before 0);
      ]
  in
  let report = run scenario in
  check tbool "NBAC" true (Check.solves_nbac (Check.run report));
  let helped =
    List.exists
      (function
        | Trace.Send { tag = "[HELP]"; src; dst; _ } -> not (Pid.equal src dst)
        | _ -> false)
      (Trace.entries report.Report.trace)
  in
  check tbool "the HELP protocol ran" true helped

let test_late_acks_force_but_do_not_break () =
  let report = run (Witness.inbac_slow_backup ~n:5 ~f:2) in
  check tbool "NBAC despite late acknowledgements" true
    (Check.solves_nbac (Check.run report));
  check tbool "commit preserved (all voted yes)" true
    (List.for_all
       (fun d -> Vote.decision_equal d Vote.commit)
       (Report.decided_values report))

(* ------------------------------------------------------------------ *)
(* Fast abort variant *)

let test_fast_abort_one_delay () =
  let scenario =
    Scenario.with_no_votes (Scenario.nice ~n:5 ~f:2 ()) [ Pid.of_rank 3 ]
  in
  let report = (Registry.find_exn "inbac-fast-abort").Registry.run scenario in
  check tbool "NBAC" true (Check.solves_nbac (Check.run report));
  List.iter
    (fun p ->
      match Report.decision_of report p with
      | Some (at, d) ->
          check tbool
            (Printf.sprintf "%s aborts within one delay" (Pid.to_string p))
            true
            (at <= u && Vote.decision_equal d Vote.abort)
      | None -> Alcotest.fail "process did not decide")
    (Pid.all ~n:5)

let test_fast_abort_nice_unchanged () =
  let std = Measure.nice_run ~protocol:"inbac" ~n:5 ~f:2 () in
  let fast = Measure.nice_run ~protocol:"inbac-fast-abort" ~n:5 ~f:2 () in
  check tint "same messages" std.Measure.metrics.Metrics.messages
    fast.Measure.metrics.Metrics.messages;
  check (Alcotest.float 1e-9) "same delays" std.Measure.metrics.Metrics.delays
    fast.Measure.metrics.Metrics.delays

let test_standard_abort_two_delays () =
  (* without the optimization, a failure-free abort costs the same two
     delays as a nice execution (the paper's remark) *)
  let scenario =
    Scenario.with_no_votes (Scenario.nice ~n:5 ~f:2 ()) [ Pid.of_rank 3 ]
  in
  let report = run scenario in
  List.iter
    (fun p ->
      match Report.decision_of report p with
      | Some (at, _) -> check tint "decides at 2U" (2 * u) at
      | None -> Alcotest.fail "process did not decide")
    (Pid.all ~n:5)

(* ------------------------------------------------------------------ *)
(* Lemma 5 tightness: f acknowledgements are necessary *)

let test_undershoot_breaks_agreement () =
  let scenario = Witness.inbac_undershoot_disagreement () in
  let under = (Registry.find_exn "inbac-undershoot").Registry.run scenario in
  let v = Check.run under in
  check tbool "f-1 acks: agreement broken" false v.Check.agreement;
  check tbool "the fast decider committed at 2U" true
    (match Report.decision_of under (Pid.of_rank 5) with
    | Some (at, d) -> at = 2 * u && Vote.decision_equal d Vote.commit
    | None -> false)

let test_real_inbac_survives_the_same_adversary () =
  let scenario = Witness.inbac_undershoot_disagreement () in
  let real = (Registry.find_exn "inbac").Registry.run scenario in
  let v = Check.run real in
  check tbool "f acks: agreement preserved" true v.Check.agreement;
  check tbool "validity preserved" true (Check.validity v)

let test_undershoot_nice_identical () =
  let std = Measure.nice_run ~protocol:"inbac" ~n:5 ~f:2 () in
  let under = Measure.nice_run ~protocol:"inbac-undershoot" ~n:5 ~f:2 () in
  check tint "same messages" std.Measure.metrics.Metrics.messages
    under.Measure.metrics.Metrics.messages;
  check (Alcotest.float 1e-9) "same delays" std.Measure.metrics.Metrics.delays
    under.Measure.metrics.Metrics.delays

(* ------------------------------------------------------------------ *)
(* Regression (found by the chaos fuzzer): a low-rank process must not
   decide directly when its own [C] broadcast was incomplete — late
   vote arrivals that complete its knowledge *after* the broadcast do
   not help the processes that acted on the broadcast. In this schedule
   P1's votes from P2/P3 land after U: P1's [C] carries only {P1}, so
   P2 and P3 propose 0; if P1 fast-commits on its late-completed
   knowledge, agreement breaks. *)

let test_stale_ack_snapshot_regression () =
  let n = 3 and f = 1 in
  let network =
    Network.adversary ~name:"late-votes-to-P1" (fun info ->
        let src = Pid.rank info.Network.src
        and dst = Pid.rank info.Network.dst in
        match info.Network.layer with
        | Trace.Commit_layer ->
            if dst = 1 && src <> 1 && info.Network.sent_at = 0 then
              (* votes to P1 arrive after its [C] broadcast, before 2U *)
              (2 * u) - 100
            else u / 2
        | Trace.Consensus_layer -> u / 2)
  in
  let scenario = Scenario.make ~n ~f ~network () in
  let report = (Registry.find_exn "inbac").Registry.run scenario in
  let v = Check.run report in
  check tbool "agreement preserved" true v.Check.agreement;
  check tbool "validity preserved" true (Check.validity v)

(* Regression (found by the chaos fuzzer): when the help-quorum guard
   fires on a late [C] acknowledgement, the direct decision must fold the
   acknowledged votes in — deciding from the stale local collection
   committed past a 0 vote. Reconstructed schedule: P2 votes 0, P1's
   complete [C] (carrying the 0) reaches P3 only after P3 started
   help-waiting. *)

let test_guard_decision_uses_acks_regression () =
  let n = 3 and f = 1 in
  let network =
    Network.adversary ~name:"late-C-into-guard" (fun info ->
        let src = Pid.rank info.Network.src
        and dst = Pid.rank info.Network.dst in
        match info.Network.layer with
        | Trace.Commit_layer ->
            if src = 1 && info.Network.sent_at >= u then
              (* P1's [C] lands during the HELP wait *)
              2 * u
            else if src = 1 && dst = 2 then 1100
            else u / 2
        | Trace.Consensus_layer -> u / 2)
  in
  let scenario =
    Scenario.with_no_votes (Scenario.make ~n ~f ~network ()) [ Pid.of_rank 2 ]
  in
  let report = (Registry.find_exn "inbac").Registry.run scenario in
  let v = Check.run report in
  check tbool "commit-validity preserved" true v.Check.commit_validity;
  check tbool "agreement preserved" true v.Check.agreement;
  check tbool "everyone aborts" true
    (List.for_all
       (Vote.decision_equal Vote.abort)
       (Report.decided_values report))

(* ------------------------------------------------------------------ *)
(* DESIGN.md reconstruction note 1: the naive backup reading cannot be
   the paper's protocol *)

module Inbac_naive = Inbac.Make (struct
  let variant_name = "inbac-naive-backups"
  let fast_abort = false
  let ack_undershoot = false
  let naive_backups = true
end)

module Naive_engine = Engine.Make (Inbac_naive) (Consensus_paxos)

let test_naive_backups_misses_the_bound () =
  let n = 5 and f = 2 in
  let report = Naive_engine.run (Scenario.nice ~n ~f ()) in
  (* without P_{f+1}'s role the nice execution costs 2fn - 2f messages —
     below the tight 2fn, so something must give... *)
  check tint "2fn - 2f messages" ((2 * f * n) - (2 * f))
    (Report.commit_messages report);
  (* ... and what gives is Lemma 1: the low ranks reach only f-1
     processes by t2 = U, so their votes are under-backed-up *)
  let reach = Reach.of_report report in
  List.iter
    (fun rank ->
      let reached = Reach.reached_set reach ~src:(Pid.of_rank rank) ~at:u in
      check tint
        (Printf.sprintf "P%d reaches only f-1 processes" rank)
        (f - 1) (List.length reached))
    [ 1; 2 ];
  (* the reconstructed protocol reaches f, as Lemma 1 demands *)
  let real = (Registry.find_exn "inbac").Registry.run (Scenario.nice ~n ~f ()) in
  let reach = Reach.of_report real in
  List.iter
    (fun rank ->
      check tint
        (Printf.sprintf "real INBAC: P%d reaches f processes" rank)
        f
        (List.length (Reach.reached_set reach ~src:(Pid.of_rank rank) ~at:u)))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Consensus substrate independence (Theorem 6's premise) *)

let test_consensus_independence () =
  let scenario =
    Scenario.with_crashes (Scenario.nice ~n:5 ~f:2 ())
      [ (Pid.of_rank 1, Scenario.Before u) ]
  in
  let with_paxos =
    (Registry.find_exn "inbac").Registry.run ~consensus:Registry.Paxos scenario
  in
  let with_floodset =
    (Registry.find_exn "inbac").Registry.run ~consensus:Registry.Floodset
      scenario
  in
  check tbool "paxos run solves NBAC" true
    (Check.solves_nbac (Check.run with_paxos));
  check tbool "floodset run agreement+validity" true
    (let v = Check.run with_floodset in
     v.Check.agreement && Check.validity v)

(* ------------------------------------------------------------------ *)
(* Direct-decision conjunction *)

(* The direct decision reads the conjunction of [collection0] united with
   every acknowledged set, computed without building the union. It must
   agree with the union it replaces, including when the sets disagree
   about a pid's vote: the union keeps a pid's first binding. Ranks are
   drawn from a small range so the sets overlap, and one vote in four is
   a [no] so both outcomes occur. *)
let prop_first_binding_conjunction =
  let binding = QCheck.(pair (int_range 1 5) (int_range 0 3)) in
  QCheck.Test.make ~count:500
    ~name:"direct-decision conjunction equals the union's"
    QCheck.(
      pair (small_list binding) (list_of_size Gen.(0 -- 4) (small_list binding)))
    (fun (c0, c1) ->
      let vset bindings =
        List.fold_left
          (fun acc (rank, v) ->
            Vset.add (Pid.of_rank rank) (Vote.of_bool (v > 0)) acc)
          Vset.empty bindings
      in
      let collection0 = vset c0 in
      let collection1 = List.mapi (fun i c -> (Pid.of_index i, vset c)) c1 in
      let merged =
        List.fold_left
          (fun acc (_, c) -> Vset.union acc c)
          Vset.empty collection1
      in
      Vote.equal
        (Inbac.first_binding_conjunction collection0 collection1)
        (Vset.conjunction (Vset.union collection0 merged)))

(* ------------------------------------------------------------------ *)
(* Properties: indulgence *)

let prop_inbac_crash_nbac =
  QCheck.Test.make ~count:150 ~name:"INBAC solves NBAC under random crashes"
    QCheck.(pair small_int (int_range 4 9))
    (fun (seed, n) ->
      let f = min 2 ((n - 1) / 2) in
      let scenario = Witness.crash_storm ~n ~f ~seed in
      Check.solves_nbac (Check.run (run scenario)))

let prop_inbac_network_nbac =
  QCheck.Test.make ~count:100
    ~name:"INBAC solves NBAC under eventual synchrony"
    QCheck.(pair small_int (int_range 4 9))
    (fun (seed, n) ->
      let f = min 2 ((n - 1) / 2) in
      let scenario = Witness.eventual_synchrony ~n ~f ~seed in
      Check.solves_nbac (Check.run (run scenario)))

let prop_inbac_mixed_faults =
  QCheck.Test.make ~count:80
    ~name:"INBAC stays safe under crashes plus late messages"
    QCheck.(pair small_int (int_range 5 8))
    (fun (seed, n) ->
      let f = (n - 1) / 2 in
      let rng = Rng.create seed in
      let victim = Pid.of_rank (1 + Rng.int rng ~bound:n) in
      let scenario =
        Scenario.with_crashes
          (Witness.eventual_synchrony ~n ~f ~seed)
          [ (victim, Scenario.During_sends (Rng.int rng ~bound:(4 * u), 1)) ]
      in
      let v = Check.run (run scenario) in
      (* agreement and validity unconditionally; termination needs the
         correct majority, which one crash preserves here *)
      v.Check.agreement && Check.validity v && v.Check.termination)

let () =
  let quick name fn = Alcotest.test_case name `Quick fn in
  let prop t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "inbac"
    [
      ( "backups",
        [
          quick "low ranks" test_backups_low_ranks;
          quick "high ranks" test_backups_high_ranks;
        ] );
      ( "nice executions",
        [
          quick "two delays everywhere" test_nice_two_delays_everywhere;
          quick "message structure" test_nice_message_structure;
          quick "f acks per process" test_nice_acks_arrive_at_each_process;
          quick "no consensus, no help" test_nice_no_consensus_no_help;
        ] );
      ( "decision paths",
        [
          quick "direct in nice runs" test_direct_path_in_nice_runs;
          quick "consensus under crash" test_consensus_path_under_crash;
          quick "helping when backups die" test_helping_path_when_all_backups_die;
          quick "late acks" test_late_acks_force_but_do_not_break;
        ] );
      ( "fast abort",
        [
          quick "one delay" test_fast_abort_one_delay;
          quick "nice unchanged" test_fast_abort_nice_unchanged;
          quick "standard abort is 2 delays" test_standard_abort_two_delays;
        ] );
      ( "reconstruction notes",
        [
          quick "naive backups miss the bound" test_naive_backups_misses_the_bound;
          quick "stale ack snapshot regression" test_stale_ack_snapshot_regression;
          quick "guard decision uses acks regression"
            test_guard_decision_uses_acks_regression;
        ] );
      ( "lemma 5 tightness",
        [
          quick "undershoot breaks agreement" test_undershoot_breaks_agreement;
          quick "real inbac survives" test_real_inbac_survives_the_same_adversary;
          quick "nice executions identical" test_undershoot_nice_identical;
        ] );
      ( "direct decision",
        [ prop prop_first_binding_conjunction ] );
      ( "indulgence",
        [
          quick "consensus independence" test_consensus_independence;
          prop prop_inbac_crash_nbac;
          prop prop_inbac_network_nbac;
          prop prop_inbac_mixed_faults;
        ] );
    ]
