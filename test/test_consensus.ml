(* Tests for the consensus substrates (Paxos, Floodset): agreement,
   validity, termination under crashes and delay adversaries, driven
   through a minimal commit-layer probe that proposes its vote to the
   consensus service at time 0. *)

let check = Alcotest.check
let tbool = Alcotest.bool
let u = Sim_time.default_u

module Cons_probe = struct
  type msg = |
  type state = { decided : bool }

  let name = "cons-probe"
  let uses_consensus = true
  let pp_msg _ppf (m : msg) = (match m with _ -> .)
  let init _env = { decided = false }
  let on_propose _env state v = (state, [ Proto.Propose_consensus v ])
  let on_deliver _env _state ~src:_ (m : msg) = (match m with _ -> .)
  let on_timeout _env state ~id:_ = (state, [])
  let guards = []
  let on_guard _env _state ~id = failwith ("cons-probe: unknown guard " ^ id)

  let on_consensus_decide _env state d =
    if state.decided then (state, [])
    else ({ decided = true }, [ Proto.Decide (Vote.decision_of_vote d) ])

  let hash_state h s = Fingerprint.add_bool h s.decided
  let hash_msg _h (m : msg) = (match m with _ -> .)
  let symmetry ~n ~f:_ = Symmetry.trivial ~n
end

module Paxos_run = Engine.Make (Cons_probe) (Consensus_paxos)
module Trivial_run = Engine.Make (Cons_probe) (Consensus_trivial)
module Floodset_run = Engine.Make (Cons_probe) (Consensus_floodset)

let consensus_verdict (report : Report.t) =
  let decisions = Report.decided_values report in
  let proposals = Trace.proposals report.Report.trace in
  let agreement =
    match decisions with
    | [] -> true
    | d :: rest -> List.for_all (Vote.decision_equal d) rest
  in
  let validity =
    List.for_all
      (fun d ->
        List.exists
          (fun (_, v) -> Vote.equal (Vote.vote_of_decision d) v)
          proposals)
      decisions
  in
  (agreement, validity)

let test_paxos_unanimous () =
  let report = Paxos_run.run (Scenario.nice ~n:5 ~f:2 ()) in
  check tbool "all decided" true (Report.all_correct_decided report);
  List.iter
    (fun d -> check tbool "commit" true (Vote.decision_equal d Vote.commit))
    (Report.decided_values report)

let test_paxos_mixed_votes () =
  let scenario =
    Scenario.with_no_votes (Scenario.nice ~n:5 ~f:2 ())
      [ Pid.of_rank 2; Pid.of_rank 4 ]
  in
  let report = Paxos_run.run scenario in
  let agreement, validity = consensus_verdict report in
  check tbool "agreement" true agreement;
  check tbool "validity" true validity;
  check tbool "termination" true (Report.all_correct_decided report)

let test_paxos_minority_crash () =
  let scenario =
    Scenario.with_crashes (Scenario.nice ~n:5 ~f:2 ())
      [
        (Pid.of_rank 1, Scenario.Before (2 * u));
        (Pid.of_rank 3, Scenario.Before 0);
      ]
  in
  let report = Paxos_run.run scenario in
  let agreement, validity = consensus_verdict report in
  check tbool "agreement" true agreement;
  check tbool "validity" true validity;
  check tbool "correct majority decides" true (Report.all_correct_decided report)

let test_paxos_majority_crash_safe () =
  (* with only a minority alive, Paxos may not terminate — but it must
     never disagree *)
  let scenario =
    Scenario.with_crashes
      (Scenario.make ~n:5 ~f:4 ~max_time:(60 * u) ())
      [
        (Pid.of_rank 1, Scenario.Before u);
        (Pid.of_rank 2, Scenario.Before u);
        (Pid.of_rank 3, Scenario.Before (2 * u));
      ]
  in
  let report = Paxos_run.run scenario in
  let agreement, validity = consensus_verdict report in
  check tbool "agreement regardless of liveness" true agreement;
  check tbool "validity regardless of liveness" true validity

let test_paxos_eventual_synchrony () =
  List.iter
    (fun seed ->
      let scenario =
        Scenario.make ~n:5 ~f:2 ~seed
          ~network:
            (Network.eventually_synchronous ~u ~gst:(10 * u)
               ~max_early_delay:(5 * u))
          ()
      in
      let report = Paxos_run.run scenario in
      let agreement, validity = consensus_verdict report in
      check tbool "agreement" true agreement;
      check tbool "validity" true validity;
      check tbool "terminates after GST" true (Report.all_correct_decided report))
    [ 1; 2; 3; 4; 5 ]

let test_paxos_retry_backoff () =
  check tbool "base delay is 4u" true (Consensus_paxos.retry_base_delay ~u = 4 * u)

let prop_paxos_random =
  QCheck.Test.make ~count:60 ~name:"paxos: agreement+validity, random faults"
    QCheck.(triple small_int (int_range 3 7) (int_range 0 1))
    (fun (seed, n, crash_one) ->
      let votes =
        Array.init n (fun i ->
            if (seed + i) mod 3 = 0 then Vote.no else Vote.yes)
      in
      let crashes =
        if crash_one = 1 then
          [ (Pid.of_rank ((seed mod n) + 1), Scenario.Before (seed mod 4 * u)) ]
        else []
      in
      let scenario =
        Scenario.make ~n ~f:1 ~votes ~crashes ~seed
          ~network:(Network.jittered ~u) ()
      in
      let report = Paxos_run.run scenario in
      let agreement, validity = consensus_verdict report in
      agreement && validity && Report.all_correct_decided report)

let test_floodset_unanimous () =
  let report = Floodset_run.run (Scenario.nice ~n:5 ~f:3 ()) in
  check tbool "all decided" true (Report.all_correct_decided report);
  List.iter
    (fun d -> check tbool "commit" true (Vote.decision_equal d Vote.commit))
    (Report.decided_values report)

let test_floodset_zero_dominates () =
  let scenario =
    Scenario.with_no_votes (Scenario.nice ~n:5 ~f:2 ()) [ Pid.of_rank 4 ]
  in
  let report = Floodset_run.run scenario in
  List.iter
    (fun d -> check tbool "abort wins" true (Vote.decision_equal d Vote.abort))
    (Report.decided_values report);
  check tbool "terminates" true (Report.all_correct_decided report)

let test_floodset_tolerates_many_crashes () =
  (* n-1 crashes: beyond any majority requirement, f+1 rounds still end *)
  let scenario =
    Scenario.with_crashes (Scenario.nice ~n:5 ~f:4 ())
      [
        (Pid.of_rank 1, Scenario.During_sends (0, 1));
        (Pid.of_rank 2, Scenario.Before u);
        (Pid.of_rank 3, Scenario.Before (2 * u));
        (Pid.of_rank 4, Scenario.Before (3 * u));
      ]
  in
  let report = Floodset_run.run scenario in
  let agreement, validity = consensus_verdict report in
  check tbool "agreement" true agreement;
  check tbool "validity" true validity;
  check tbool "the survivor decides" true (Report.all_correct_decided report)

let prop_floodset_random_crashes =
  QCheck.Test.make ~count:60
    ~name:"floodset: uniform agreement under aligned starts and crashes"
    QCheck.(pair small_int (int_range 3 6))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let f = 1 + Rng.int rng ~bound:(n - 1) in
      let crashes =
        List.filteri (fun i _ -> i < f) (Rng.shuffle rng (Pid.all ~n))
        |> List.map (fun p ->
               let at = Rng.int rng ~bound:((f + 2) * u) in
               if Rng.bool rng then (p, Scenario.Before at)
               else (p, Scenario.During_sends (at, Rng.int rng ~bound:n)))
      in
      let votes =
        Array.init n (fun i -> if (seed + i) mod 4 = 0 then Vote.no else Vote.yes)
      in
      let scenario = Scenario.make ~n ~f ~votes ~crashes ~seed () in
      let report = Floodset_run.run scenario in
      let agreement, validity = consensus_verdict report in
      agreement && validity && Report.all_correct_decided report)

let test_trivial_is_unsafe_on_purpose () =
  (* the documented non-agreement of the test-plumbing consensus *)
  let scenario =
    Scenario.with_no_votes (Scenario.nice ~n:3 ~f:1 ()) [ Pid.of_rank 2 ]
  in
  let report = Trivial_run.run scenario in
  let agreement, _ = consensus_verdict report in
  check tbool "trivial consensus disagrees on mixed proposals" false agreement

let test_null_consensus_rejects_proposals () =
  Alcotest.match_raises "null consensus"
    (function Failure _ -> true | _ -> false)
    (fun () ->
      let module Null_run = Engine.Make (Cons_probe) (Consensus_null) in
      ignore (Null_run.run (Scenario.nice ~n:3 ~f:1 ())))

let () =
  let quick name fn = Alcotest.test_case name `Quick fn in
  let prop t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "consensus"
    [
      ( "paxos",
        [
          quick "unanimous" test_paxos_unanimous;
          quick "mixed votes" test_paxos_mixed_votes;
          quick "minority crash" test_paxos_minority_crash;
          quick "majority crash stays safe" test_paxos_majority_crash_safe;
          quick "eventual synchrony" test_paxos_eventual_synchrony;
          quick "retry backoff" test_paxos_retry_backoff;
          prop prop_paxos_random;
        ] );
      ( "floodset",
        [
          quick "unanimous" test_floodset_unanimous;
          quick "zero dominates" test_floodset_zero_dominates;
          quick "tolerates n-1 crashes" test_floodset_tolerates_many_crashes;
          prop prop_floodset_random_crashes;
        ] );
      ( "plumbing",
        [
          quick "trivial is unsafe by design" test_trivial_is_unsafe_on_purpose;
          quick "null rejects proposals" test_null_consensus_rejects_proposals;
        ] );
    ]
