(* The benchmark harness.

   Part 1 regenerates every table and figure of the paper (printed in
   full, with the measured-vs-bound verification columns) — these are the
   reproduction artifacts; EXPERIMENTS.md discusses them.

   Part 2 runs one Bechamel micro-benchmark per reproduced artifact
   (Table 1 .. Table 4, the robustness matrix, Figure 1) plus per-protocol
   nice-execution benches, measuring the wall-clock cost of the simulated
   runs behind each artifact.

   The only argument is --jobs N (or -j N). The figures that gate
   regressions live in the golden outputs under test/golden, the
   checker's --stats legs in CI, and perfbench. *)

open Bechamel
open Toolkit

let pairs = [ (3, 1); (5, 1); (5, 2); (8, 3); (13, 6) ]

(* A refused argument exits 2 with one [bench:] line, before any work. *)
let refuse arg msg =
  Printf.eprintf "bench: %s: %s\n" arg msg;
  exit 2

(* --jobs N (or -j N) limits the batch runner's domains when regenerating
   the Part 1 artifacts; artifacts are identical whatever the value. The
   Bechamel micro-benches below always pin jobs=1 so they time the
   simulation itself, not the domain fan-out. A value that is not an
   integer, is below 1 or is missing is refused, and so is any other
   argument: ignored, a typo would run the whole regeneration. *)
let jobs =
  let rec parse jobs = function
    | [] -> jobs
    | (("--jobs" | "-j") as flag) :: rest -> (
        match rest with
        | [] -> refuse flag "missing value"
        | v :: rest -> (
            match int_of_string_opt v with
            | Some j when j >= 1 -> parse (Some j) rest
            | Some j -> refuse flag (Printf.sprintf "%d is below 1" j)
            | None -> refuse flag (Printf.sprintf "%S is not an integer" v)))
    | arg :: _ -> refuse arg "unknown argument (only --jobs N or -j N)"
  in
  parse None (List.tl (Array.to_list Sys.argv))

let banner title =
  Printf.printf "\n%s\n%s\n%s\n\n" (String.make 78 '=') title
    (String.make 78 '=')

(* ------------------------------------------------------------------ *)
(* Part 1: the reproduction artifacts *)

let print_artifacts () =
  banner "Table 1 - complexity of atomic commit (27 cells)";
  print_string (Table_one.render ?jobs ~pairs ());
  banner "Table 2 - delay-optimal protocols";
  print_string (Table_optimal.render_delay_optimal ~pairs);
  banner "Table 3 - message-optimal protocols";
  print_string (Table_optimal.render_message_optimal ~pairs);
  banner "Table 4 - Section 6 comparison (2PC / 3PC / Paxos Commit / INBAC)";
  print_string (Table_compare.render ?jobs ~pairs ());
  print_newline ();
  print_string (Table_compare.render_claims ?jobs ());
  banner "Lower-bound lemmas, observed on real traces";
  print_string (Lemma_report.render ());
  banner "Section 6.3 - weak-semantics baselines";
  print_string (Table_weak.render ());
  banner "Robustness matrix (fault-injection battery)";
  print_string (Robustness.render ?jobs ());
  banner "Figure 1 - INBAC state transitions";
  print_string (Figure_one.render ());
  banner "Complexity series (the reproduction's figures)";
  let series_protocols =
    [ "inbac"; "2pc"; "paxos-commit"; "faster-paxos-commit"; "(2n-2+f)nbac" ]
  in
  print_string
    (Series.render_over_n ?jobs ~protocols:series_protocols ~f:2
       ~ns:[ 3; 5; 8; 13; 21 ] ());
  print_newline ();
  print_string
    (Series.render_over_f ?jobs ~protocols:series_protocols ~n:13
       ~fs:[ 1; 2; 3; 6; 9; 12 ] ());
  print_newline ();
  print_endline "f = 1 crossover (INBAC pays exactly 2 messages over 2PC):";
  List.iter
    (fun (n, inbac, two_pc) ->
      Printf.printf "  n=%-3d inbac=%-4d 2pc=%-4d delta=%d\n" n inbac two_pc
        (inbac - two_pc))
    (Series.crossover_f1 ~ns:[ 3; 5; 8; 13; 21 ]);
  banner "Ablations";
  print_string (Ablation.render ());
  banner "Database view: the same workload across protocols";
  Format.printf
    "80 read-validate-write transactions, hot-set contention 0.5; abort \
     rates coincide@.(validation is protocol-independent), message and \
     latency costs are the protocol's:@.@.";
  List.iter
    (fun (p, s) -> Format.printf "  %-22s %a@." p Workload.pp_stats s)
    (Workload.protocol_comparison ?jobs
       ~protocols:[ "inbac"; "2pc"; "paxos-commit"; "(2n-2+f)nbac" ]
       ~n:5 ~f:2 Workload.default);
  banner "Stress batteries";
  print_string
    (Stress.render ~runs:30 ?jobs ~protocols:[ "inbac"; "2pc"; "3pc" ] ~n:5
       ~f:2 ());
  banner "Lower-bound witnesses";
  List.iter
    (fun (name, scenario, expect) ->
      let report = (Registry.find_exn name).Registry.run scenario in
      let v = Check.run report in
      Printf.printf "%-22s %-18s agreement=%-5b termination=%-5b  %s\n" name
        (Classify.to_string (Classify.of_report report))
        v.Check.agreement v.Check.termination expect)
    [
      ("2pc", Witness.two_pc_blocks ~n:5, "expect blocked");
      ("1nbac", Witness.one_nbac_disagreement ~n:5, "expect disagreement");
      ("(n-1+f)nbac", Witness.chain_nbac_disagreement ~n:5, "expect disagreement");
      ("(2n-2)nbac", Witness.star_nbac_disagreement ~n:5, "expect disagreement");
      ("inbac", Witness.inbac_slow_backup ~n:5 ~f:2, "expect full NBAC");
    ]

(* ------------------------------------------------------------------ *)
(* Part 2: bechamel micro-benchmarks *)

let nice_run protocol n f =
  Staged.stage (fun () ->
      ignore ((Registry.find_exn protocol).Registry.run (Scenario.nice ~n ~f ())))

let protocol_tests =
  Test.make_grouped ~name:"nice-run(n=8,f=3)"
    (List.map
       (fun p -> Test.make ~name:p (nice_run p 8 3))
       Registry.names)

let table_tests =
  Test.make_grouped ~name:"artifacts"
    [
      Test.make ~name:"table1"
        (Staged.stage (fun () ->
             ignore (Table_one.verifications ~jobs:1 ~pairs:[ (5, 2) ] ())));
      Test.make ~name:"table2"
        (Staged.stage (fun () ->
             ignore (Table_optimal.render_delay_optimal ~pairs:[ (5, 2) ])));
      Test.make ~name:"table3"
        (Staged.stage (fun () ->
             ignore (Table_optimal.render_message_optimal ~pairs:[ (5, 2) ])));
      Test.make ~name:"table4"
        (Staged.stage (fun () ->
             ignore (Table_compare.render ~jobs:1 ~pairs:[ (5, 2) ] ())));
      Test.make ~name:"robustness(n=4,f=1)"
        (Staged.stage (fun () ->
             ignore (Robustness.matrix ~n:4 ~f:1 ~seeds:[ 1 ] ~jobs:1 ())));
      Test.make ~name:"fig1"
        (Staged.stage (fun () -> ignore (Figure_one.render ())));
      Test.make ~name:"series"
        (Staged.stage (fun () ->
             ignore
               (Series.over_n ~jobs:1 ~protocols:[ "inbac"; "2pc" ] ~f:2
                  ~ns:[ 5; 8 ] ())));
      Test.make ~name:"ablations"
        (Staged.stage (fun () -> ignore (Ablation.priority_flip ~n:4 ~f:1 ())));
      Test.make ~name:"weak-semantics"
        (Staged.stage (fun () -> ignore (Table_weak.rows ~n:4 ())));
      Test.make ~name:"kv-workload"
        (Staged.stage (fun () ->
             let db = Txn_system.create ~n:4 ~f:1 ~protocol:"inbac" () in
             ignore
               (Workload.run db
                  { Workload.default with Workload.batches = 3 })));
    ]

let fault_tests =
  Test.make_grouped ~name:"fault-paths(n=5,f=2)"
    [
      Test.make ~name:"inbac+crash-storm"
        (Staged.stage (fun () ->
             ignore
               ((Registry.find_exn "inbac").Registry.run
                  (Witness.crash_storm ~n:5 ~f:2 ~seed:1))));
      Test.make ~name:"inbac+eventual-synchrony"
        (Staged.stage (fun () ->
             ignore
               ((Registry.find_exn "inbac").Registry.run
                  (Witness.eventual_synchrony ~n:5 ~f:2 ~seed:1))));
      Test.make ~name:"3pc+coordinator-crash"
        (Staged.stage (fun () ->
             ignore
               ((Registry.find_exn "3pc").Registry.run
                  (Witness.two_pc_blocks ~n:5))));
    ]

(* Scaling benches: one series per protocol of the Section-6 comparison,
   over n — the wall-clock analogue of the message-count series. *)
let scaling_tests =
  Test.make_grouped ~name:"scaling"
    (List.concat_map
       (fun p ->
         List.map
           (fun n -> Test.make ~name:(Printf.sprintf "%s/n=%d" p n) (nice_run p n 2))
           [ 8; 16; 32 ])
       [ "inbac"; "2pc"; "paxos-commit"; "(2n-2+f)nbac" ])

let run_benchmarks () =
  banner "Bechamel micro-benchmarks (monotonic clock, ns per simulated run)";
  let tests =
    Test.make_grouped ~name:"bench"
      [ protocol_tests; table_tests; fault_tests; scaling_tests ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let estimate =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> e
          | Some [] | None -> Float.nan
        in
        let r2 = Option.value (Analyze.OLS.r_square ols) ~default:Float.nan in
        (name, estimate, r2) :: acc)
      results []
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  let table = Ascii.create ~header:[ "benchmark"; "ns/run"; "r2" ] in
  List.iter
    (fun (name, estimate, r2) ->
      Ascii.add_row table
        [ name; Printf.sprintf "%.0f" estimate; Printf.sprintf "%.4f" r2 ])
    rows;
  Ascii.print table

let () =
  print_artifacts ();
  run_benchmarks ();
  print_newline ();
  print_endline "All artifacts regenerated. See EXPERIMENTS.md for the";
  print_endline "paper-vs-measured discussion of every table and figure."
