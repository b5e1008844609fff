(* The benchmark harness.

   Part 1 regenerates every table and figure of the paper (printed in
   full, with the measured-vs-bound verification columns) — these are the
   reproduction artifacts; EXPERIMENTS.md discusses them.

   Part 2 runs one Bechamel micro-benchmark per reproduced artifact
   (Table 1 .. Table 4, the robustness matrix, Figure 1) plus per-protocol
   nice-execution benches, measuring the wall-clock cost of the simulated
   runs behind each artifact.

   --json PATH switches to the machine-readable regression mode instead:
   time the per-protocol nice executions, the per-table regenerations and
   the model checker's pinned configuration (both fingerprint backends),
   and write the numbers as JSON (default file: BENCH_results.json). CI's
   bench-smoke step diffs that file's keys and gates on a states/sec
   floor via --min-mc-states-per-sec; the multi-core leg additionally
   gates on --min-swarm-j4-speedup (swarm+shared j4 wall vs the
   sequential cursor j1 arm). *)

open Bechamel
open Toolkit

let pairs = [ (3, 1); (5, 1); (5, 2); (8, 3); (13, 6) ]

let argv = Array.to_list Sys.argv

(* --jobs N limits the batch runner's domains when regenerating the Part 1
   artifacts; artifacts are identical whatever the value. The Bechamel
   micro-benches below always pin jobs=1 so they time the simulation
   itself, not the domain fan-out. *)
let jobs =
  let rec scan = function
    | "--jobs" :: v :: _ | "-j" :: v :: _ -> int_of_string_opt v
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan argv

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

(* ------------------------------------------------------------------ *)
(* --json: the machine-readable bench-regression mode *)

let json_flag =
  let rec scan = function
    | "--json" :: next :: _ when String.length next > 0 && next.[0] <> '-' ->
        Some next
    | "--json" :: _ -> Some "BENCH_results.json"
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan argv

(* A gate flag's threshold ([Gate.threshold]). A value that is not a
   number, is NaN or is negative, or a missing value, exits 2 with one
   [bench:] line: read as "no gate" it would let every run pass. *)
let gate_flag flag =
  let refuse msg =
    Printf.eprintf "bench: %s: %s\n" flag msg;
    exit 2
  in
  let rec scan = function
    | f :: v :: _ when String.equal f flag -> (
        match Gate.threshold v with Ok x -> Some x | Error msg -> refuse msg)
    | [ f ] when String.equal f flag -> refuse "missing value"
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan argv

let min_mc_floor = gate_flag "--min-mc-states-per-sec"

(* Multi-core acceptance gate: fail when the swarm arm at jobs=4 is not
   at least this much faster (wall-clock) than the sequential jobs=1
   per-item baseline. Only meaningful on a runner with 4+ cores — the
   CI multi-core leg passes 1.0; the 1-core smoke leg omits the flag. *)
let min_swarm_speedup = gate_flag "--min-swarm-j4-speedup"

(* Multi-shot service floor: fail when any multishot arm's committed
   transactions per wall-clock second fall below this. *)
let min_multishot_floor = gate_flag "--min-multishot-commits-per-sec"

(* Multi-shot workload scale: how many closed-loop clients and total
   transactions each multishot arm runs. The defaults keep the smoke run
   cheap; raise them to stress the service. *)
let multishot_clients =
  let rec scan = function
    | "--multishot-clients" :: v :: _ -> int_of_string_opt v
    | _ :: rest -> scan rest
    | [] -> None
  in
  Option.value (scan argv) ~default:100

let multishot_txns =
  let rec scan = function
    | "--multishot-txns" :: v :: _ -> int_of_string_opt v
    | _ :: rest -> scan rest
    | [] -> None
  in
  Option.value (scan argv) ~default:800

(* The streaming soak arm's scale: enough clients to hit real contention,
   budget-capped transactions so the smoke run stays cheap. The CI
   bench-soak leg raises the counts through these flags. *)
let soak_clients =
  let rec scan = function
    | "--soak-clients" :: v :: _ -> int_of_string_opt v
    | _ :: rest -> scan rest
    | [] -> None
  in
  Option.value (scan argv) ~default:1000

let soak_txns =
  let rec scan = function
    | "--soak-txns" :: v :: _ -> int_of_string_opt v
    | _ :: rest -> scan rest
    | [] -> None
  in
  Option.value (scan argv) ~default:20_000

(* Allocation ceiling for the soak arm: fail when it allocates more
   minor-heap words per issued transaction than this. *)
let max_minor_words = gate_flag "--max-minor-words-per-txn"

(* Symmetry-reduction gate: fail when the best measured symmetry-on vs
   symmetry-off state-count ratio falls below this. The crash-class arm
   is the headline (~9.6x at inbac n=4 f=1); the network-class arm has
   no crash candidates to twin-prune and its order-2 process group caps
   it near ~3.9x, so the gate reads the best arm and reports all. *)
let min_symmetry_reduction = gate_flag "--min-symmetry-reduction"

(* NxF pairs for the timed table regenerations; defaults to a tiny pair
   list so the smoke run stays cheap. *)
let json_pairs =
  let rec scan acc = function
    | "--pair" :: v :: rest -> (
        match String.split_on_char 'x' v with
        | [ n; f ] -> (
            match (int_of_string_opt n, int_of_string_opt f) with
            | Some n, Some f -> scan ((n, f) :: acc) rest
            | _ -> scan acc rest)
        | _ -> scan acc rest)
    | _ :: rest -> scan acc rest
    | [] -> List.rev acc
  in
  match scan [] argv with [] -> [ (3, 1); (5, 2) ] | ps -> ps

let time_best ~reps f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

(* Like [time_best] over several subjects, but interleaved: every subject
   runs once per repetition, so a slow drift in machine speed (frequency
   scaling) degrades all subjects alike instead of whichever happened to
   be measured last. Ratios between subjects stay meaningful even when
   the absolute timings wobble. *)
let time_best_each ~reps subjects run =
  let k = List.length subjects in
  let best = Array.make k infinity in
  let results = Array.make k None in
  for _ = 1 to reps do
    List.iteri
      (fun i s ->
        let t0 = Unix.gettimeofday () in
        let r = run s in
        let dt = Unix.gettimeofday () -. t0 in
        if dt < best.(i) then best.(i) <- dt;
        results.(i) <- Some r)
      subjects
  done;
  List.mapi (fun i s -> (s, Option.get results.(i), best.(i))) subjects

(* The pinned model-checking configuration of the regression gate:
   inbac, crash class, n=3, f=1, jobs=1 — small enough for CI, large
   enough (thousands of states) that fingerprinting cost dominates. *)
let mc_pinned ~fp () =
  Mc_run.run ~fp ~jobs:1 ~naive:false ~protocol:"inbac" ~n:3 ~f:1
    ~klass:Mc_run.Crash ()

(* Frontier-scheduling matrix on the same pinned configuration: per-item
   and shared (globally-deduplicating) visited tables over the one
   shared cursor, and swarm walks, at jobs=1 and jobs=4. The per-item
   rows keep identical counters by construction; the shared rows explore
   strictly fewer states (global dedup), which is where the states/sec
   and wall-clock win comes from even on few cores. *)
let mc_frontier_configs =
  [
    (* the frontier arms pin [swarm = Some false] so auto-swarm (which
       would otherwise kick in for shared visited at jobs >= 4) cannot
       silently change what they measure across releases *)
    ("per_item_cursor_j1", Mc_limits.Per_item, 1, Some false);
    ("per_item_cursor_j4", Mc_limits.Per_item, 4, Some false);
    ("shared_cursor_j1", Mc_limits.Shared, 1, Some false);
    ("shared_cursor_j4", Mc_limits.Shared, 4, Some false);
    ("swarm_shared_j1", Mc_limits.Shared, 1, Some true);
    ("swarm_shared_j4", Mc_limits.Shared, 4, Some true);
  ]

let mc_frontier_run (_, visited, jobs, swarm) =
  Mc_run.run ~fp:Mc_limits.Fp_hashed ~jobs ~naive:false ~visited ?swarm
    ~protocol:"inbac" ~n:3 ~f:1 ~klass:Mc_run.Crash ()

(* Snapshot-pool A/B on the pinned configuration. Timing is interleaved
   ([time_best_each]) so frequency drift cannot bias one arm; allocation
   is measured separately with [Gc.quick_stat] deltas around a single
   run — at jobs=1 the exploration runs inline on this domain, so the
   deltas are exact, and allocation is deterministic so one run is
   enough. *)
let mc_pool_run pool =
  Mc_run.run ~fp:Mc_limits.Fp_hashed ~pool ~jobs:1 ~naive:false
    ~protocol:"inbac" ~n:3 ~f:1 ~klass:Mc_run.Crash ()

(* Second pinned configuration: the network class, where the enumerate
   path (overtake bookkeeping, late-budget pruning, snapshot traffic) is
   the hot loop rather than the machine interpreter. Budget-capped so one
   run stays a few hundred ms; per-item visited mode keeps the capped
   counters deterministic, so the A/B is still exploration-neutral. *)
let network_budgets =
  {
    (Mc_limits.default_budgets ~u:Sim_time.default_u) with
    Mc_limits.max_states = 2_000;
  }

let mc_network_run pool =
  Mc_run.run ~budgets:network_budgets ~fp:Mc_limits.Fp_hashed ~pool ~jobs:1
    ~naive:false ~protocol:"inbac" ~n:3 ~f:1 ~klass:Mc_run.Network ()

(* Symmetry-reduction arms: inbac n=4 f=1, symmetry off vs on, per-item
   jobs=1 so every state counter is deterministic and the off arm is
   byte-for-byte the pre-symmetry exploration. Three execution classes:
   crash at the default budgets (exhausted in under a second either
   way), and the network and all classes at an exhaustible bound
   (max_late=1, horizon=U) so the ratio compares two complete
   explorations rather than two budget truncations. inbac's vote-refined
   group at n=4 f=1 has order 2 — the backup P1 and the reconstructed
   P_{f+1} are singleton roles, only the plain participants P3/P4
   permute — which caps the pure orbit collapse at 2x; the crash arm
   lands near 9.6x anyway because crash-twin pruning and frontier-orbit
   dedup compound on top, while the network arm (nothing to crash-prune)
   sits near 3.9x. *)
let symmetry_budgets =
  {
    (Mc_limits.default_budgets ~u:Sim_time.default_u) with
    Mc_limits.horizon = Sim_time.default_u;
    max_late = 1;
  }

let symmetry_arms =
  [
    ("crash", 4, Mc_run.Crash, None);
    ("network", 4, Mc_run.Network, Some symmetry_budgets);
    ("all", 4, Mc_run.All, Some symmetry_budgets);
    (* n=5 is where the reduction unlocks new ground: the vote-refined
       group grows to order 6 (three interchangeable plain participants)
       and the exhaustible horizon-U spaces shrink ~11-13x — the
       unreduced space is explorable too, so the ratio stays measurable *)
    ("crash_n5", 5, Mc_run.Crash, Some symmetry_budgets);
    ("network_n5", 5, Mc_run.Network, Some symmetry_budgets);
  ]

let symmetry_run ~symmetry (_, n, klass, budgets) =
  Mc_run.run ?budgets ~fp:Mc_limits.Fp_hashed ~symmetry ~jobs:1 ~naive:false
    ~protocol:"inbac" ~n ~f:1 ~klass ()

let gc_measure run =
  let g0 = Gc.quick_stat () in
  let outcome = run () in
  let g1 = Gc.quick_stat () in
  let states = outcome.Mc_run.counters.Mc_limits.states in
  let per_state x = x /. float_of_int (max states 1) in
  ( states,
    per_state (g1.Gc.minor_words -. g0.Gc.minor_words),
    per_state (g1.Gc.promoted_words -. g0.Gc.promoted_words),
    g1.Gc.major_collections - g0.Gc.major_collections )

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let run_json path =
  let reps = 3 in
  let nice_runs =
    List.map
      (fun p ->
        let runner = Registry.find_exn p in
        let _, secs =
          time_best ~reps (fun () ->
              runner.Registry.run (Scenario.nice ~n:5 ~f:2 ()))
        in
        (p, secs))
      Registry.names
  in
  let tables =
    List.map
      (fun (name, render) ->
        let _, secs = time_best ~reps:1 (fun () -> render ()) in
        (name, secs))
      [
        ("table1", fun () -> ignore (Table_one.render ~jobs:1 ~pairs:json_pairs ()));
        ("table2", fun () -> ignore (Table_optimal.render_delay_optimal ~pairs:json_pairs));
        ("table3", fun () -> ignore (Table_optimal.render_message_optimal ~pairs:json_pairs));
        ("table4", fun () -> ignore (Table_compare.render ~jobs:1 ~pairs:json_pairs ()));
        ("fig1", fun () -> ignore (Figure_one.render ()));
      ]
  in
  let mc_backends =
    List.map
      (fun (fp, outcome, secs) ->
        let c = outcome.Mc_run.counters in
        ( Mc_limits.fp_backend_to_string fp,
          secs,
          c.Mc_limits.states,
          c.Mc_limits.schedules,
          float_of_int c.Mc_limits.states /. secs,
          float_of_int c.Mc_limits.schedules /. secs ))
      (time_best_each ~reps:5
         [ Mc_limits.Fp_hashed; Mc_limits.Fp_marshal ]
         (fun fp -> mc_pinned ~fp ()))
  in
  let per_sec_of name =
    let _, _, _, _, sps, _ =
      List.find (fun (b, _, _, _, _, _) -> b = name) mc_backends
    in
    sps
  in
  let speedup = per_sec_of "hashed" /. per_sec_of "marshal" in
  (* Per-call fingerprint cost in isolation (same mid-exploration state,
     both backends): this is the number the backend swap actually moves;
     end-to-end states/sec also carries the shared transition-execution
     cost, which dilutes it (Amdahl). *)
  let fp_calls = 100_000 in
  let fp_probe =
    Mc_run.fingerprint_sampler ~protocol:"inbac" ~n:3 ~f:1
      ~klass:Mc_run.Crash ()
  in
  let fp_hashed_ns, fp_marshal_ns =
    match
      time_best_each ~reps:5
        [ Mc_limits.Fp_hashed; Mc_limits.Fp_marshal ]
        (fun backend -> fp_probe backend fp_calls)
    with
    | [ (_, (), h); (_, (), m) ] ->
        ( h *. 1e9 /. float_of_int fp_calls,
          m *. 1e9 /. float_of_int fp_calls )
    | _ -> assert false
  in
  let frontier =
    List.map
      (fun ((name, _, _, _), outcome, secs) ->
        let c = outcome.Mc_run.counters in
        ( name,
          secs,
          c.Mc_limits.states,
          c.Mc_limits.schedules,
          float_of_int c.Mc_limits.states /. secs ))
      (time_best_each ~reps:5 mc_frontier_configs mc_frontier_run)
  in
  let frontier_secs name =
    let _, s, _, _, _ =
      List.find (fun (n, _, _, _, _) -> n = name) frontier
    in
    s
  in
  let per_item_speedup =
    frontier_secs "per_item_cursor_j1" /. frontier_secs "per_item_cursor_j4"
  in
  let shared_speedup =
    frontier_secs "per_item_cursor_j1" /. frontier_secs "shared_cursor_j4"
  in
  let swarm_speedup =
    frontier_secs "per_item_cursor_j1" /. frontier_secs "swarm_shared_j4"
  in
  let frontier_sps name =
    let _, _, _, _, sps =
      List.find (fun (n, _, _, _, _) -> n = name) frontier
    in
    sps
  in
  let swarm_sps_ratio =
    frontier_sps "swarm_shared_j4" /. frontier_sps "per_item_cursor_j1"
  in
  let pool_times =
    List.map
      (fun (pool, outcome, secs) ->
        (pool, outcome.Mc_run.counters.Mc_limits.states, secs))
      (time_best_each ~reps:5 [ true; false ] mc_pool_run)
  in
  let pool_arm b =
    let _, states, secs = List.find (fun (p, _, _) -> p = b) pool_times in
    (states, secs)
  in
  let pool_speedup = snd (pool_arm false) /. snd (pool_arm true) in
  let p_states, p_minor, p_promoted, p_major =
    gc_measure (fun () -> mc_pool_run true)
  in
  let u_states, u_minor, u_promoted, u_major =
    gc_measure (fun () -> mc_pool_run false)
  in
  let net_times =
    List.map
      (fun (pool, outcome, secs) ->
        (pool, outcome.Mc_run.counters.Mc_limits.states, secs))
      (time_best_each ~reps:5 [ true; false ] mc_network_run)
  in
  let net_arm b =
    let _, states, secs = List.find (fun (p, _, _) -> p = b) net_times in
    (states, secs)
  in
  let net_pool_speedup = snd (net_arm false) /. snd (net_arm true) in
  let np_states, np_minor, np_promoted, np_major =
    gc_measure (fun () -> mc_network_run true)
  in
  let nu_states, nu_minor, nu_promoted, nu_major =
    gc_measure (fun () -> mc_network_run false)
  in
  (* Symmetry arms: single runs per mode — the reduction ratio is a
     ratio of deterministic state counts, not of wall times, so
     repetition buys nothing; the seconds are informational. *)
  let symmetry_results =
    List.map
      (fun ((name, n, _, _) as arm) ->
        let off, off_secs =
          time_best ~reps:1 (fun () -> symmetry_run ~symmetry:false arm)
        in
        let on, on_secs =
          time_best ~reps:1 (fun () -> symmetry_run ~symmetry:true arm)
        in
        let reduction =
          float_of_int off.Mc_run.counters.Mc_limits.states
          /. float_of_int (max 1 on.Mc_run.counters.Mc_limits.states)
        in
        (name, n, off, off_secs, on, on_secs, reduction))
      symmetry_arms
  in
  let best_symmetry_reduction =
    List.fold_left
      (fun acc (_, _, _, _, _, _, r) -> Float.max acc r)
      0.0 symmetry_results
  in
  (* Canonicalization cost in isolation: the same mid-exploration state
     fingerprinted with the full orbit minimization (every group
     renaming) vs the plain single hash. *)
  let canon_calls = 20_000 in
  let canon_ns ~symmetry =
    let probe =
      Mc_run.fingerprint_sampler ~symmetry ~protocol:"inbac" ~n:4 ~f:1
        ~klass:Mc_run.Network ()
    in
    let (), secs =
      time_best ~reps:5 (fun () -> probe Mc_limits.Fp_hashed canon_calls)
    in
    secs *. 1e9 /. float_of_int canon_calls
  in
  let canon_sym_ns = canon_ns ~symmetry:true in
  let canon_plain_ns = canon_ns ~symmetry:false in
  (* Multi-shot commit service arms: three protocols, each nominal and
     with a crash-injection arm (shard P1 down at 3U, back at 20U — the
     2PC arm parks its in-flight instances on the dead coordinator and
     must drain them through recovery, so re-election is off there), plus
     a 2PC arm whose coordinator NEVER recovers and must drain purely
     through elected stand-in coordinators. Single runs, not time_best:
     each arm IS a throughput measurement over hundreds of transactions,
     and its correctness flags (atomicity, agreement, drained staging)
     are what the bench gates on. The arms are independent seeded
     simulations, so they fan out across domains through Batch.run — the
     per-arm JSON bodies are pure functions of the spec and come out
     byte-identical at any --jobs. *)
  let ms_u = Sim_time.default_u in
  let ms_clients = multishot_clients and ms_txns = multishot_txns in
  let ms_spec ~crash =
    {
      Commit_service.default with
      Commit_service.clients = ms_clients;
      txns = ms_txns;
      seed = 11;
      (* the seven legacy arms predate queued admission: pin them to
         budget 0 (abort on every conflict) so they keep measuring the
         optimistic check they were introduced with *)
      wait_budget = 0;
      outages = (if crash then [ (1, 3 * ms_u, Some (20 * ms_u)) ] else []);
      election_timeout = None;
    }
  in
  let ms_elect_spec =
    {
      (ms_spec ~crash:false) with
      Commit_service.outages = [ (1, 3 * ms_u, None) ];
      election_timeout = Commit_service.default.Commit_service.election_timeout;
    }
  in
  (* the queued-admission pair: same skewed workload, only the wait
     budget differs (the default vs 0) — the goodput gap is the headline
     number *)
  let ms_zipf_spec wait_budget =
    {
      Commit_service.default with
      Commit_service.clients = ms_clients;
      txns = ms_txns;
      seed = 11;
      zipf_s = 0.8;
      wait_budget;
    }
  in
  (* the streaming soak arm: queued admission at soak scale with the
     constant-memory histograms, the configuration the 1M-txn run uses *)
  let ms_soak_spec =
    {
      Commit_service.default with
      Commit_service.clients = soak_clients;
      txns = soak_txns;
      seed = 11;
      zipf_s = 0.8;
      soak = true;
    }
  in
  let multishot_arms =
    List.concat_map
      (fun p ->
        [ (p, ms_spec ~crash:false); (p ^ "_crash", ms_spec ~crash:true) ])
      [ "inbac"; "paxos-commit"; "2pc" ]
    @ [
        ("2pc_elect", ms_elect_spec);
        ( "2pc_zipf_queue",
          ms_zipf_spec Commit_service.default.Commit_service.wait_budget );
        ("2pc_zipf_abort", ms_zipf_spec 0);
        ("2pc_soak", ms_soak_spec);
      ]
  in
  let multishot =
    Batch.run ?jobs
      (fun (name, spec) ->
        let protocol =
          match String.index_opt name '_' with
          | Some i -> String.sub name 0 i
          | None -> name
        in
        (name, Commit_service.run ~protocol ~n:3 ~f:1 spec))
      multishot_arms
  in
  let buf = Buffer.create 4096 in
  let field_block name kvs =
    Buffer.add_string buf (Printf.sprintf "  %S: {\n" name);
    List.iteri
      (fun i (k, v) ->
        Buffer.add_string buf
          (Printf.sprintf "    \"%s\": %s%s\n" (json_escape k) v
             (if i = List.length kvs - 1 then "" else ",")))
      kvs;
    Buffer.add_string buf "  }"
  in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"actable-bench/10\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"pairs\": [%s],\n"
       (String.concat ", "
          (List.map (fun (n, f) -> Printf.sprintf "[%d, %d]" n f) json_pairs)));
  field_block "nice_run_seconds"
    (List.map (fun (p, s) -> (p, Printf.sprintf "%.6f" s)) nice_runs);
  Buffer.add_string buf ",\n";
  field_block "table_seconds"
    (List.map (fun (t, s) -> (t, Printf.sprintf "%.6f" s)) tables);
  Buffer.add_string buf ",\n";
  Buffer.add_string buf "  \"mc\": {\n";
  Buffer.add_string buf
    "    \"protocol\": \"inbac\", \"class\": \"crash\", \"n\": 3, \"f\": 1, \
     \"jobs\": 1,\n";
  Buffer.add_string buf "    \"backends\": {\n";
  List.iteri
    (fun i (b, secs, states, schedules, sps, schps) ->
      Buffer.add_string buf
        (Printf.sprintf
           "      \"%s\": { \"seconds\": %.6f, \"states\": %d, \
            \"schedules\": %d, \"states_per_sec\": %.0f, \
            \"schedules_per_sec\": %.0f }%s\n"
           b secs states schedules sps schps
           (if i = List.length mc_backends - 1 then "" else ",")))
    mc_backends;
  Buffer.add_string buf "    },\n";
  Buffer.add_string buf
    (Printf.sprintf "    \"hashed_vs_marshal_speedup\": %.2f,\n" speedup);
  Buffer.add_string buf
    (Printf.sprintf
       "    \"fingerprint_ns_per_call\": { \"hashed\": %.1f, \"marshal\": \
        %.1f, \"marshal_vs_hashed\": %.2f },\n"
       fp_hashed_ns fp_marshal_ns
       (fp_marshal_ns /. fp_hashed_ns));
  Buffer.add_string buf "    \"frontier\": {\n";
  List.iter
    (fun (name, secs, states, schedules, sps) ->
      Buffer.add_string buf
        (Printf.sprintf
           "      \"%s\": { \"seconds\": %.6f, \"states\": %d, \
            \"schedules\": %d, \"states_per_sec\": %.0f },\n"
           name secs states schedules sps))
    frontier;
  Buffer.add_string buf
    (Printf.sprintf "      \"per_item_speedup_j4\": %.2f,\n" per_item_speedup);
  Buffer.add_string buf
    (Printf.sprintf "      \"shared_speedup_j4\": %.2f,\n" shared_speedup);
  Buffer.add_string buf
    (Printf.sprintf "      \"swarm_speedup_j4\": %.2f,\n" swarm_speedup);
  Buffer.add_string buf
    (Printf.sprintf "      \"swarm_states_per_sec_ratio_j4\": %.2f\n"
       swarm_sps_ratio);
  Buffer.add_string buf "    },\n";
  let gc_block rows speedup ratio =
    Buffer.add_string buf "    \"gc\": {\n";
    List.iter
      (fun (name, secs, states, minor, promoted, major) ->
        Buffer.add_string buf
          (Printf.sprintf
             "      \"%s\": { \"seconds\": %.6f, \"states\": %d, \
              \"minor_words_per_state\": %.1f, \
              \"promoted_words_per_state\": %.1f, \"major_collections\": \
              %d },\n"
             name secs states minor promoted major))
      rows;
    Buffer.add_string buf
      (Printf.sprintf "      \"pool_speedup\": %.2f,\n" speedup);
    Buffer.add_string buf
      (Printf.sprintf "      \"minor_words_ratio\": %.2f\n" ratio);
    Buffer.add_string buf "    }\n"
  in
  gc_block
    [
      ("pooled", snd (pool_arm true), p_states, p_minor, p_promoted, p_major);
      ( "unpooled",
        snd (pool_arm false),
        u_states,
        u_minor,
        u_promoted,
        u_major );
    ]
    pool_speedup
    (u_minor /. Float.max p_minor 1e-9);
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf "  \"mc_network\": {\n";
  Buffer.add_string buf
    "    \"protocol\": \"inbac\", \"class\": \"network\", \"n\": 3, \"f\": \
     1, \"jobs\": 1, \"max_states_budget\": 2000,\n";
  let net_states, net_secs = net_arm true in
  Buffer.add_string buf
    (Printf.sprintf
       "    \"hashed\": { \"seconds\": %.6f, \"states\": %d, \
        \"states_per_sec\": %.0f },\n"
       net_secs net_states
       (float_of_int net_states /. net_secs));
  gc_block
    [
      ("pooled", snd (net_arm true), np_states, np_minor, np_promoted,
       np_major);
      ( "unpooled",
        snd (net_arm false),
        nu_states,
        nu_minor,
        nu_promoted,
        nu_major );
    ]
    net_pool_speedup
    (nu_minor /. Float.max np_minor 1e-9);
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf "  \"symmetry\": {\n";
  Buffer.add_string buf
    (Printf.sprintf
       "    \"protocol\": \"inbac\", \"f\": 1, \"jobs\": 1, \
        \"exhaustible_max_late\": %d, \"exhaustible_horizon_u\": %d,\n"
       symmetry_budgets.Mc_limits.max_late
       (symmetry_budgets.Mc_limits.horizon / Sim_time.default_u));
  Buffer.add_string buf "    \"arms\": {\n";
  let n_sym = List.length symmetry_results in
  List.iteri
    (fun idx (name, n, off, off_secs, on, on_secs, reduction) ->
      let oc = off.Mc_run.counters and nc = on.Mc_run.counters in
      Buffer.add_string buf (Printf.sprintf "      \"%s\": {\n" name);
      Buffer.add_string buf (Printf.sprintf "        \"n\": %d,\n" n);
      Buffer.add_string buf
        (Printf.sprintf
           "        \"off\": { \"seconds\": %.6f, \"states\": %d, \
            \"schedules\": %d, \"exhausted\": %b },\n"
           off_secs oc.Mc_limits.states oc.Mc_limits.schedules
           (Mc_limits.exhausted oc));
      Buffer.add_string buf
        (Printf.sprintf
           "        \"on\": { \"seconds\": %.6f, \"states\": %d, \
            \"schedules\": %d, \"exhausted\": %b, \"orbit_hits\": %d, \
            \"twin_skips\": %d, \"canon_calls\": %d },\n"
           on_secs nc.Mc_limits.states nc.Mc_limits.schedules
           (Mc_limits.exhausted nc) nc.Mc_limits.orbit_hits
           nc.Mc_limits.twin_skips nc.Mc_limits.canon_calls);
      Buffer.add_string buf
        (Printf.sprintf "        \"reduction\": %.2f\n" reduction);
      Buffer.add_string buf
        (if idx = n_sym - 1 then "      }\n" else "      },\n"))
    symmetry_results;
  Buffer.add_string buf "    },\n";
  Buffer.add_string buf
    (Printf.sprintf "    \"best_reduction\": %.2f,\n" best_symmetry_reduction);
  Buffer.add_string buf
    (Printf.sprintf
       "    \"canonicalization_ns_per_call\": { \"symmetry\": %.1f, \
        \"plain\": %.1f, \"overhead\": %.2f }\n"
       canon_sym_ns canon_plain_ns
       (canon_sym_ns /. Float.max canon_plain_ns 1e-9));
  Buffer.add_string buf "  },\n";
  let num x = if Float.is_nan x then "0.0" else Printf.sprintf "%.3f" x in
  Buffer.add_string buf "  \"multishot\": {\n";
  Buffer.add_string buf
    (Printf.sprintf
       "    \"n\": 3, \"f\": 1, \"clients\": %d, \"txns\": %d, \
        \"soak_clients\": %d, \"soak_txns\": %d,\n"
       ms_clients ms_txns soak_clients soak_txns);
  Buffer.add_string buf "    \"arms\": {\n";
  let n_arms = List.length multishot in
  (* each arm is the deterministic body (byte-identical at any --jobs)
     plus the wall-clock fields measured on this run *)
  List.iteri
    (fun idx (name, (s : Commit_service.stats)) ->
      Buffer.add_string buf
        (Printf.sprintf "      \"%s\": { %s, \"seconds\": %.6f, \
                         \"commits_per_sec\": %s, \
                         \"minor_words_per_txn\": %s }%s\n"
           name
           (Commit_service.arm_json_body s)
           s.Commit_service.wall_seconds
           (num s.Commit_service.commits_per_sec)
           (num s.Commit_service.minor_words_per_txn)
           (if idx = n_arms - 1 then "" else ",")))
    multishot;
  Buffer.add_string buf "    }\n";
  Buffer.add_string buf "  }\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n" path;
  Printf.printf
    "mc pinned config: hashed %.0f states/sec, marshal %.0f states/sec \
     (%.2fx)\n"
    (per_sec_of "hashed") (per_sec_of "marshal") speedup;
  Printf.printf
    "fingerprint per call: hashed %.0fns, marshal %.0fns (%.1fx)\n"
    fp_hashed_ns fp_marshal_ns
    (fp_marshal_ns /. fp_hashed_ns);
  Printf.printf
    "frontier: per-item j4 %.2fx, shared-visited j4 %.2fx vs cursor j1\n"
    per_item_speedup shared_speedup;
  Printf.printf
    "frontier: swarm+shared-visited j4 %.2fx wall vs sequential cursor j1 \
     (%.2fx states/sec)\n"
    swarm_speedup swarm_sps_ratio;
  if
    p_states <> u_states
    || fst (pool_arm true) <> fst (pool_arm false)
    || np_states <> nu_states
    || fst (net_arm true) <> fst (net_arm false)
  then begin
    Printf.eprintf
      "bench: snapshot pool changed a state count (crash %d/%d, network \
       %d/%d pooled/unpooled) — the pool must be exploration-neutral\n"
      p_states u_states np_states nu_states;
    exit 1
  end;
  Printf.printf
    "snapshot pool (crash): %.2fx wall, minor words/state %.0f pooled vs \
     %.0f unpooled (%.2fx less allocation)\n"
    pool_speedup p_minor u_minor
    (u_minor /. Float.max p_minor 1e-9);
  Printf.printf
    "snapshot pool (network, capped): %.2fx wall, %.0f states/sec, minor \
     words/state %.0f pooled vs %.0f unpooled (%.2fx less allocation)\n"
    net_pool_speedup
    (float_of_int net_states /. net_secs)
    np_minor nu_minor
    (nu_minor /. Float.max np_minor 1e-9);
  List.iter
    (fun (name, n, off, off_secs, on, on_secs, reduction) ->
      (* symmetry reduction must be verdict-neutral: both arms clean (or
         both violated the same way) on every measured class *)
      if Mc_run.verdict_string off <> Mc_run.verdict_string on then begin
        Printf.eprintf
          "bench: symmetry arm %s changed the verdict (off %S, on %S) — \
           canonicalization must be verdict-neutral\n"
          name
          (Mc_run.verdict_string off)
          (Mc_run.verdict_string on);
        exit 1
      end;
      Printf.printf
        "symmetry %-10s n=%d %6d -> %5d states (%.2fx), %d twin skips, \
         wall %.2fs -> %.2fs\n"
        name n off.Mc_run.counters.Mc_limits.states
        on.Mc_run.counters.Mc_limits.states reduction
        on.Mc_run.counters.Mc_limits.twin_skips off_secs on_secs)
    symmetry_results;
  Printf.printf
    "symmetry canonicalization %.0f ns/call vs %.0f plain (%.2fx), best \
     reduction %.2fx\n"
    canon_sym_ns canon_plain_ns
    (canon_sym_ns /. Float.max canon_plain_ns 1e-9)
    best_symmetry_reduction;
  (match min_symmetry_reduction with
  | Some floor when best_symmetry_reduction < floor ->
      Printf.eprintf
        "bench: best symmetry reduction %.2fx below the floor %.2fx\n"
        best_symmetry_reduction floor;
      exit 1
  | _ -> ());
  List.iter
    (fun (name, (s : Commit_service.stats)) ->
      Printf.printf
        "multishot %-18s %6.0f commits/sec  %4d/%d committed (goodput \
         %.3f, %.0f words/txn), %d aborted (%d local), %d parked, \
         p50/p95/p99 %.1f/%.1f/%.1f delays%s%s\n"
        name s.Commit_service.commits_per_sec s.Commit_service.committed
        s.Commit_service.transactions s.Commit_service.goodput
        s.Commit_service.minor_words_per_txn s.Commit_service.aborted
        s.Commit_service.local_aborts s.Commit_service.parked
        s.Commit_service.latency.Histogram.p50
        s.Commit_service.latency.Histogram.p95
        s.Commit_service.latency.Histogram.p99
        (if s.Commit_service.retries > 0 then
           Printf.sprintf " (%d retries after recovery)"
             s.Commit_service.retries
         else "")
        (if s.Commit_service.elections > 0 then
           Printf.sprintf " (%d elections -> %d stand-in decisions)"
             s.Commit_service.elections s.Commit_service.stolen
         else ""))
    multishot;
  List.iter
    (fun (name, (s : Commit_service.stats)) ->
      let is_elect_arm =
        String.length name >= 6
        && String.sub name (String.length name - 6) 6 = "_elect"
      in
      if not (s.Commit_service.atomicity_ok && s.Commit_service.agreement_ok)
      then begin
        Printf.eprintf
          "bench: multishot arm %s violated %s (atomicity %b, agreement %b)\n"
          name
          (if s.Commit_service.atomicity_ok then "agreement" else "atomicity")
          s.Commit_service.atomicity_ok s.Commit_service.agreement_ok;
        exit 1
      end;
      if s.Commit_service.parked <> 0 || s.Commit_service.staged_left <> 0
      then begin
        Printf.eprintf
          "bench: multishot arm %s left %d parked transactions and %d \
           staged writes — every arm must drain (recovery or election)\n"
          name s.Commit_service.parked s.Commit_service.staged_left;
        exit 1
      end;
      if is_elect_arm then begin
        (* the coordinator never recovers: the arm can only have drained
           through elected stand-ins, and no recovery means no retries *)
        if s.Commit_service.elections < 1 || s.Commit_service.stolen < 1
        then begin
          Printf.eprintf
            "bench: multishot arm %s drained without elections (%d \
             elections, %d stolen) — the no-recovery outage must exercise \
             the stand-in path\n"
            name s.Commit_service.elections s.Commit_service.stolen;
          exit 1
        end;
        if s.Commit_service.retries <> 0 then begin
          Printf.eprintf
            "bench: multishot arm %s recorded %d recovery retries under a \
             never-healing outage\n"
            name s.Commit_service.retries;
          exit 1
        end
      end
      else if s.Commit_service.elections <> 0 then begin
        Printf.eprintf
          "bench: multishot arm %s ran with re-election off but recorded \
           %d elections\n"
          name s.Commit_service.elections;
        exit 1
      end)
    multishot;
  (* the admission differential: waiting on the holder must beat
     aborting on every conflict (budget 0) on goodput under the skewed
     workload, or the wait queues are not earning their keep *)
  let s_goodput (s : Commit_service.stats) = s.Commit_service.goodput in
  (match
     ( List.assoc_opt "2pc_zipf_queue" multishot,
       List.assoc_opt "2pc_zipf_abort" multishot )
   with
  | Some q, Some a ->
      if s_goodput q <= s_goodput a then begin
        Printf.eprintf
          "bench: queued admission goodput %.3f did not beat wait \
           budget 0 %.3f under the zipf 0.8 workload\n"
          (s_goodput q) (s_goodput a);
        exit 1
      end
  | _ -> ());
  (match max_minor_words with
  | Some ceiling ->
      List.iter
        (fun (name, (s : Commit_service.stats)) ->
          if
            name = "2pc_soak"
            && s.Commit_service.minor_words_per_txn > ceiling
          then begin
            Printf.eprintf
              "bench: soak arm %s allocated %.0f minor words/txn, above \
               the ceiling %.0f\n"
              name s.Commit_service.minor_words_per_txn ceiling;
            exit 1
          end)
        multishot
  | None -> ());
  (match min_multishot_floor with
  | Some floor ->
      List.iter
        (fun (name, (s : Commit_service.stats)) ->
          (* the _abort arm's goodput collapse is the point of the
             differential, not a regression — exempt it from the floor *)
          let is_abort_arm =
            String.length name >= 6
            && String.sub name (String.length name - 6) 6 = "_abort"
          in
          if (not is_abort_arm) && s.Commit_service.commits_per_sec < floor
          then begin
            Printf.eprintf
              "bench: multishot arm %s at %.0f commits/sec, below the \
               floor %.0f\n"
              name s.Commit_service.commits_per_sec floor;
            exit 1
          end)
        multishot
  | None -> ());
  (match min_swarm_speedup with
  | Some floor when swarm_speedup < floor ->
      Printf.eprintf
        "bench: swarm j4 speedup %.2fx below the multi-core floor %.2fx \
         (vs sequential cursor j1)\n"
        swarm_speedup floor;
      exit 1
  | _ -> ());
  match min_mc_floor with
  | Some floor when per_sec_of "hashed" < floor ->
      Printf.eprintf
        "bench: hashed states/sec %.0f below the regression floor %.0f\n"
        (per_sec_of "hashed") floor;
      exit 1
  | _ -> ()

let () =
  match json_flag with
  | Some path -> run_json path
  | None ->
      print_artifacts ();
      run_benchmarks ();
      print_newline ();
      print_endline "All artifacts regenerated. See EXPERIMENTS.md for the";
      print_endline "paper-vs-measured discussion of every table and figure."
