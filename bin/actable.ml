(* actable — the reproduction CLI.

   Subcommands mirror the per-experiment index of DESIGN.md: [run] drives
   one protocol through one scenario; [table1..table4], [robustness],
   [fig1] and [witness] regenerate the paper's tables and figures; [list]
   prints the protocol inventory. *)

open Cmdliner

let u = Sim_time.default_u

(* ------------------------------------------------------------------ *)
(* Shared argument parsing                                             *)

let protocol_arg =
  let doc =
    Printf.sprintf "Protocol to run. One of: %s."
      (String.concat ", " Registry.names)
  in
  Arg.(
    required
    & opt (some (enum (List.map (fun n -> (n, n)) Registry.names))) None
    & info [ "p"; "protocol" ] ~docv:"NAME" ~doc)

let n_arg =
  Arg.(value & opt int 5 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

let f_arg =
  Arg.(
    value & opt int 2
    & info [ "f" ] ~docv:"F" ~doc:"Maximum number of tolerated crashes.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

(* A command-line error found after parsing (flags that disagree with
   each other, a spec the library rejects): one [actable: CMD: MSG] line
   on stderr and cmdliner's command-line-error exit status. *)
let cli_error cmd msg =
  Format.eprintf "actable: %s: %s@." cmd msg;
  exit Cmd.Exit.cli_error

(* Delays (units of U) to ticks. [int_of_float] is unspecified on nan, on
   infinities and beyond the int range (amd64 yields 0), so such a value
   is refused instead of silently becoming the instant 0. *)
let ticks_of_delays d =
  let ticks = d *. float_of_int u in
  if Float.abs ticks < 0x1p62 then Ok (int_of_float ticks)
  else
    Error (`Msg (Printf.sprintf "%g delays is out of range" d))

(* A spec field holding a number of delays, as ticks; [err] when it is
   not a number. *)
let ticks_of_string ~err s =
  match float_of_string_opt s with
  | Some d -> ticks_of_delays d
  | None -> Error err

let ( let* ) = Result.bind

(* A float flag in units of U: refused at parse time unless it converts
   to ticks. *)
let delays_conv =
  let parse s =
    match float_of_string_opt s with
    | None ->
        Error
          (`Msg (Printf.sprintf "invalid value '%s', expected a number" s))
    | Some d -> Result.map (fun _ -> d) (ticks_of_delays d)
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

(* A floor or ceiling some measured figure must meet: refused at parse
   time when NaN or negative ([Gate.threshold]). *)
let threshold_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Gate.threshold s) in
  Arg.conv (parse, Arg.conv_printer Arg.float)

(* Ranks start at 1; whether a rank names one of the run's n processes
   is checked once n is known ([check_system]). *)
let rank_of_string s =
  match int_of_string_opt s with
  | Some r when r >= 1 -> Ok r
  | Some r -> Error (`Msg (Printf.sprintf "rank %d is below 1" r))
  | None -> Error (`Msg (Printf.sprintf "invalid rank '%s'" s))

let vote0_arg =
  let doc = "Rank of a process voting 0 (repeatable), e.g. --vote0 3." in
  let rank = Arg.conv (rank_of_string, Format.pp_print_int) in
  Arg.(value & opt_all rank [] & info [ "vote0" ] ~docv:"RANK" ~doc)

(* n, f and the --vote0 ranks arrive as separate flags; they must describe
   one system (the same rule [Scenario.make] applies to n and f). *)
let check_system cmd ~n ~f vote0 =
  if n < 2 then cli_error cmd (Printf.sprintf "-n %d: n must be >= 2" n);
  if f < 1 || f > n - 1 then
    cli_error cmd (Printf.sprintf "-f %d: f must be in 1..n-1 (n = %d)" f n);
  List.iter
    (fun r ->
      if r > n then
        cli_error cmd (Printf.sprintf "--vote0 %d: no such rank (n = %d)" r n))
    vote0

let crash_conv =
  let parse s =
    (* "<rank>@<delay-units>" or "<rank>@<delay-units>:sends=<k>" *)
    let err =
      `Msg
        (Printf.sprintf
           "cannot parse crash %S (expected RANK@DELAYS or RANK@DELAYS:sends=K)"
           s)
    in
    match String.split_on_char '@' s with
    | [ rank; rest ] -> (
        let* rank = rank_of_string rank in
        let pid = Pid.of_rank rank in
        match String.split_on_char ':' rest with
        | [ d ] ->
            let* at = ticks_of_string ~err d in
            Ok (pid, Scenario.Before at)
        | [ d; sends ] -> (
            match String.split_on_char '=' sends with
            | [ "sends"; k ] -> (
                let* at = ticks_of_string ~err d in
                match int_of_string_opt k with
                | Some k -> Ok (pid, Scenario.During_sends (at, k))
                | None -> Error err)
            | _ -> Error err)
        | _ -> Error err)
    | _ -> Error err
  in
  let print ppf (pid, crash) =
    match crash with
    | Scenario.Before t ->
        Format.fprintf ppf "%d@%g" (Pid.rank pid) (float_of_int t /. float_of_int u)
    | Scenario.During_sends (t, k) ->
        Format.fprintf ppf "%d@%g:sends=%d" (Pid.rank pid)
          (float_of_int t /. float_of_int u)
          k
  in
  Arg.conv (parse, print)

let crash_arg =
  let doc =
    "Crash schedule entry (repeatable): RANK@DELAYS kills the process at \
     that instant (in units of U); RANK@DELAYS:sends=K lets it transmit K \
     messages at that instant first ('crashes while sending')."
  in
  Arg.(value & opt_all crash_conv [] & info [ "crash" ] ~docv:"SPEC" ~doc)

let network_arg =
  let doc =
    "Network model: 'exact' (every delay exactly U — nice executions), \
     'jittered' (random delays up to U — still synchronous), or 'gst' \
     (eventually synchronous: delays up to 4U before GST = 10U)."
  in
  Arg.(
    value
    & opt (enum [ ("exact", `Exact); ("jittered", `Jittered); ("gst", `Gst) ]) `Exact
    & info [ "network" ] ~docv:"MODEL" ~doc)

let consensus_arg =
  let doc = "Consensus substrate for protocols that use one." in
  Arg.(
    value
    & opt
        (enum
           [
             ("paxos", Registry.Paxos);
             ("floodset", Registry.Floodset);
             ("trivial", Registry.Trivial);
           ])
        Registry.Paxos
    & info [ "consensus" ] ~docv:"IMPL" ~doc)

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print the full execution trace.")

let msc_arg =
  Arg.(
    value & flag
    & info [ "msc" ] ~doc:"Print the execution as an ASCII sequence chart.")

let dot_arg =
  Arg.(
    value & flag
    & info [ "dot" ]
        ~doc:"Print the execution as a Graphviz space-time digraph.")

let pairs_arg =
  let pair_conv =
    let parse s =
      match String.split_on_char 'x' s with
      | [ n; f ] -> (
          match (int_of_string_opt n, int_of_string_opt f) with
          | Some n, Some f -> Ok (n, f)
          | _ -> Error (`Msg (Printf.sprintf "cannot parse pair %S (NxF)" s)))
      | _ -> Error (`Msg (Printf.sprintf "cannot parse pair %S (NxF)" s))
    in
    Arg.conv (parse, fun ppf (n, f) -> Format.fprintf ppf "%dx%d" n f)
  in
  let doc = "(n, f) pair for the sweep, as NxF (repeatable)." in
  Arg.(value & opt_all pair_conv [] & info [ "pair" ] ~docv:"NxF" ~doc)

let default_pairs = [ (3, 1); (5, 1); (5, 2); (8, 3); (13, 6) ]
let pairs_or_default pairs = if pairs = [] then default_pairs else pairs

let jobs_arg =
  let doc =
    "Number of domains for the parallel batch runner (default: the \
     recommended domain count, capped by the ACTABLE_JOBS environment \
     variable when set). Results are identical whatever the value in the \
     deterministic modes; use 1 to force sequential execution."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* ------------------------------------------------------------------ *)
(* run                                                                 *)

let run_cmd =
  let action protocol n f seed vote0 crashes network consensus trace msc dot =
    let network =
      match network with
      | `Exact -> Network.exact ~u
      | `Jittered -> Network.jittered ~u
      | `Gst ->
          Network.eventually_synchronous ~u ~gst:(10 * u)
            ~max_early_delay:(4 * u)
    in
    check_system "run" ~n ~f vote0;
    let scenario =
      (* a crash schedule the scenario rejects is a command-line error;
         any other exception is a bug and stays uncaught *)
      try
        Scenario.with_no_votes
          (Scenario.make ~n ~f ~seed ~network ~crashes ())
          (List.map Pid.of_rank vote0)
      with
      | Invalid_argument msg when String.starts_with ~prefix:"Scenario: " msg
      ->
        cli_error "run" msg
    in
    let runner = Registry.find_exn protocol in
    let report = runner.Registry.run ~consensus scenario in
    if trace then Format.printf "%a@.@." Trace.pp report.Report.trace;
    if msc then print_string (Trace_export.msc report);
    if dot then print_string (Trace_export.dot report);
    Format.printf "%a@.@." Report.pp_summary report;
    let verdict = Check.run report in
    Format.printf "execution class: %a@.%a@." Classify.pp
      (Classify.of_report report) Check.pp verdict;
    List.iter (Format.printf "  - %s@.") verdict.Check.violations;
    if Classify.is_nice report then
      Format.printf "nice-execution metrics: %a@." Metrics.pp
        (Metrics.of_nice report)
  in
  let term =
    Term.(
      const action $ protocol_arg $ n_arg $ f_arg $ seed_arg $ vote0_arg
      $ crash_arg $ network_arg $ consensus_arg $ trace_arg $ msc_arg $ dot_arg)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one protocol through one scenario and check it.")
    term

(* ------------------------------------------------------------------ *)
(* tables and figures                                                  *)

let table_cmd name doc render =
  let action pairs = print_string (render ~pairs:(pairs_or_default pairs)) in
  Cmd.v (Cmd.info name ~doc) Term.(const action $ pairs_arg)

(* Verification failures must reach CI: report, then exit nonzero. *)
let gate what ok =
  if not ok then begin
    Format.eprintf "actable: %s verification failed@." what;
    exit 1
  end

let table1_cmd =
  let action pairs jobs =
    let text, ok = Table_one.render_checked ?jobs ~pairs:(pairs_or_default pairs) () in
    print_string text;
    gate "table1" ok
  in
  Cmd.v
    (Cmd.info "table1"
       ~doc:
         "Reproduce Table 1: the 27-cell lower-bound map, with verification.")
    Term.(const action $ pairs_arg $ jobs_arg)

let table2_cmd =
  table_cmd "table2" "Reproduce Table 2: delay-optimal protocols."
    Table_optimal.render_delay_optimal

let table3_cmd =
  table_cmd "table3" "Reproduce Table 3: message-optimal protocols."
    Table_optimal.render_message_optimal

let table4_cmd =
  let action pairs jobs =
    print_string (Table_compare.render ?jobs ~pairs:(pairs_or_default pairs) ());
    print_newline ();
    let text, ok = Table_compare.render_claims_checked ?jobs () in
    print_string text;
    gate "table4 claims" ok
  in
  Cmd.v
    (Cmd.info "table4"
       ~doc:
         "Reproduce the Section 6 comparison (the paper's Tables 4/5): INBAC \
          vs 2PC, 3PC, Paxos Commit, Faster Paxos Commit, (n-1+f)NBAC, 1NBAC.")
    Term.(const action $ pairs_arg $ jobs_arg)

let robustness_cmd =
  let action n f jobs =
    let text, ok = Robustness.render_checked ~n ~f ?jobs () in
    print_string text;
    gate "robustness" ok
  in
  Cmd.v
    (Cmd.info "robustness"
       ~doc:
         "Fault-injection battery: check each protocol's claimed cell against \
          observed properties per execution class.")
    Term.(const action $ n_arg $ f_arg $ jobs_arg)

let fig1_cmd =
  let action n f = print_string (Figure_one.render ~n ~f ()) in
  Cmd.v
    (Cmd.info "fig1"
       ~doc:"Reproduce Figure 1: INBAC state transitions (DOT + traced runs).")
    Term.(const action $ n_arg $ f_arg)

let lemmas_cmd =
  let action n f = print_string (Lemma_report.render ~n ~f ()) in
  Cmd.v
    (Cmd.info "lemmas"
       ~doc:
         "Observe the lower-bound lemmas on real traces: reachability \
          (Definitions 2/4), Lemma 1's backups, Lemma 5's acknowledgement \
          round trips, and the Section 6.1 send/receive phase profile.")
    Term.(const action $ n_arg $ f_arg)

let db_cmd =
  let action n f jobs =
    Format.printf
      "Transactional KV store over the commit protocols (n=%d, f=%d)@.@." n f;
    Format.printf "Contention sweep (INBAC; abort rate is validation-driven):@.";
    List.iter
      (fun (hf, s) ->
        Format.printf "  hot-fraction %.2f: %a@." hf Workload.pp_stats s)
      (Workload.contention_sweep ~protocol:"inbac" ~n ~f
         ~hot_fractions:[ 0.0; 0.25; 0.5; 0.75; 1.0 ]);
    Format.printf
      "@.Same workload across protocols (aborts coincide; message and \
       latency cost is the protocol's):@.";
    List.iter
      (fun (p, s) -> Format.printf "  %-22s %a@." p Workload.pp_stats s)
      (Workload.protocol_comparison ?jobs
         ~protocols:[ "inbac"; "2pc"; "paxos-commit"; "(2n-2+f)nbac" ]
         ~n ~f Workload.default)
  in
  Cmd.v
    (Cmd.info "db"
       ~doc:
         "Run the transactional key-value workload experiments: contention \
          sweep and per-protocol cost of the same workload.")
    Term.(const action $ n_arg $ f_arg $ jobs_arg)

let txserve_cmd =
  (* the delays flags below all went through [delays_conv] *)
  let ticks d = Result.get_ok (ticks_of_delays d) in
  let clients_arg =
    Arg.(
      value & opt int 128
      & info [ "clients" ] ~docv:"K" ~doc:"Closed-loop simulated clients.")
  in
  let txns_arg =
    Arg.(
      value & opt int 1000
      & info [ "txns" ] ~docv:"K" ~doc:"Total transactions to issue.")
  in
  let max_batch_arg =
    Arg.(
      value & opt int 8
      & info [ "max-batch" ] ~docv:"K"
          ~doc:"Transactions per commit instance (1 disables batching).")
  in
  let batch_window_arg =
    Arg.(
      value & opt delays_conv 0.5
      & info [ "batch-window" ] ~docv:"DELAYS"
          ~doc:
            "How long a batch collects co-resident transactions, in units \
             of U (0 launches immediately).")
  in
  let pipeline_arg =
    Arg.(
      value & opt int 64
      & info [ "pipeline" ] ~docv:"K"
          ~doc:"Concurrent commit instances cap (1 serializes).")
  in
  let think_arg =
    Arg.(
      value & opt delays_conv 1.0
      & info [ "think" ] ~docv:"DELAYS"
          ~doc:"Max client think time between transactions, units of U.")
  in
  let zipf_s_arg =
    Arg.(
      value
      & opt float Commit_service.default.Commit_service.zipf_s
      & info [ "zipf-s" ] ~docv:"S"
          ~doc:
            "Key-popularity exponent: rank i is drawn with probability \
             proportional to 1/(i+1)^S (0 = uniform). The default is the \
             exponent under which the 16 hottest of 2048 keys draw 10% \
             of the accesses.")
  in
  let election_timeout_arg =
    Arg.(
      value & opt delays_conv 12.0
      & info [ "election-timeout" ] ~docv:"DELAYS"
          ~doc:
            "How long a parked instance waits before the lowest live \
             shard takes over as stand-in coordinator and re-drives the \
             decision from the recorded votes, in units of U. 0 disables \
             re-election (parked instances wait for a recovery).")
  in
  let require_drained_arg =
    Arg.(
      value & flag
      & info [ "require-drained" ]
          ~doc:
            "Exit nonzero unless the run fully drains: no parked \
             instances and no write-ahead staging left on live shards.")
  in
  let outage_conv =
    let parse s =
      let err =
        `Msg
          (Printf.sprintf
             "cannot parse outage %S (expected RANK@DOWN or RANK@DOWN:UP, \
              instants in units of U)"
             s)
      in
      match String.split_on_char '@' s with
      | [ rank; rest ] -> (
          match (int_of_string_opt rank, String.split_on_char ':' rest) with
          | Some rank, [ d ] ->
              let* down = ticks_of_string ~err d in
              Ok (rank, down, None)
          | Some rank, [ d; back ] ->
              let* down = ticks_of_string ~err d in
              let* back = ticks_of_string ~err back in
              Ok (rank, down, Some back)
          | _ -> Error err)
      | _ -> Error err
    in
    let print ppf (rank, d, back) =
      let delays t = float_of_int t /. float_of_int u in
      match back with
      | None -> Format.fprintf ppf "%d@%g" rank (delays d)
      | Some b -> Format.fprintf ppf "%d@%g:%g" rank (delays d) (delays b)
    in
    Arg.conv (parse, print)
  in
  let outage_arg =
    let doc =
      "Shard outage (repeatable): RANK@DOWN:UP takes the shard down at \
       instant DOWN and brings it back at UP (units of U; omit :UP to \
       never recover). A recovering shard adopts the decisions it missed; \
       instances blocked on it (2PC's dead coordinator) park and re-run."
    in
    Arg.(value & opt_all outage_conv [] & info [ "outage" ] ~docv:"SPEC" ~doc)
  in
  let svc_network_arg =
    let doc =
      "Network model: 'exact', 'jittered' (default — random delays up to \
       U), or 'gst' (eventually synchronous)."
    in
    Arg.(
      value
      & opt
          (enum [ ("exact", `Exact); ("jittered", `Jittered); ("gst", `Gst) ])
          `Jittered
      & info [ "network" ] ~docv:"MODEL" ~doc)
  in
  let floor_arg =
    Arg.(
      value
      & opt (some threshold_conv) None
      & info
          [ "min-multishot-commits-per-sec" ]
          ~docv:"X"
          ~doc:
            "Exit nonzero when committed transactions per wall-clock \
             second fall below this floor.")
  in
  let wait_budget_arg =
    Arg.(
      value & opt int 64
      & info [ "wait-budget" ] ~docv:"K"
          ~doc:
            "Max times a transaction may wait FIFO on the instance holding \
             one of its keys before it aborts locally. 0 aborts on every \
             conflict (the coordinator-side OCC check).")
  in
  let keys_arg =
    Arg.(
      value & opt int 2048
      & info [ "keys" ] ~docv:"K"
          ~doc:
            (Printf.sprintf
               "Keyspace size, at most %d (2^24): the service keeps each \
                key's owner, version and lock holder in dense tables."
               Keyspace.max_keys))
  in
  let soak_arg =
    Arg.(
      value & flag
      & info [ "soak" ]
          ~doc:
            "Streaming soak mode: constant-memory fixed-bin histograms \
             (bounded percentile error) and periodic progress flushes to \
             stderr — the mode for million-transaction runs.")
  in
  let flush_every_arg =
    Arg.(
      value & opt int 0
      & info [ "flush-every" ] ~docv:"K"
          ~doc:
            "Progress line to stderr every K issued transactions (0 \
             disables; --soak defaults it to txns/20).")
  in
  let words_ceiling_arg =
    Arg.(
      value
      & opt (some threshold_conv) None
      & info
          [ "max-minor-words-per-txn" ]
          ~docv:"X"
          ~doc:
            "Exit nonzero when minor-heap words allocated per issued \
             transaction exceed this ceiling — the allocation gate the \
             soak CI leg uses.")
  in
  let action protocol n f seed consensus network clients txns max_batch
      batch_window pipeline think zipf_s election_timeout require_drained
      outages floor wait_budget keys soak
      flush_every words_ceiling =
    let network =
      match network with
      | `Exact -> Network.exact ~u
      | `Jittered -> Network.jittered ~u
      | `Gst ->
          Network.eventually_synchronous ~u ~gst:(10 * u)
            ~max_early_delay:(4 * u)
    in
    let spec =
      {
        Commit_service.default with
        Commit_service.clients;
        txns;
        seed;
        think_gap = max 1 (ticks think);
        keys;
        batch_window = ticks batch_window;
        max_batch;
        pipeline_depth = pipeline;
        wait_budget;
        zipf_s;
        election_timeout =
          (if election_timeout <= 0.0 then None
           else Some (max 1 (ticks election_timeout)));
        network;
        outages;
        soak;
        flush_every =
          (if flush_every > 0 then flush_every
           else if soak then max 1 (txns / 20)
           else 0);
      }
    in
    let stats =
      (* a spec the service rejects is a command-line error; any other
         exception is a bug and stays uncaught *)
      try Commit_service.run ~consensus ~protocol ~n ~f spec
      with Invalid_argument msg
      when String.starts_with ~prefix:"Commit_service.run: " msg ->
        cli_error "txserve" msg
    in
    Format.printf "%a@." Commit_service.pp_stats stats;
    gate "txserve atomicity" stats.Commit_service.atomicity_ok;
    gate "txserve agreement" stats.Commit_service.agreement_ok;
    if require_drained then begin
      gate "txserve drained (no parked instances)"
        (stats.Commit_service.parked = 0);
      gate "txserve drained (no staging left on live shards)"
        (stats.Commit_service.staged_left = 0)
    end;
    (match words_ceiling with
    | Some ceil when stats.Commit_service.minor_words_per_txn > ceil ->
        Format.eprintf
          "actable: txserve allocation %.0f minor words/txn above ceiling \
           %g@."
          stats.Commit_service.minor_words_per_txn ceil;
        exit 1
    | _ -> ());
    match floor with
    | Some fl when stats.Commit_service.commits_per_sec < fl ->
        Format.eprintf
          "actable: txserve throughput %.0f commits/sec below floor %g@."
          stats.Commit_service.commits_per_sec fl;
        exit 1
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "txserve"
       ~doc:
         "Serve a stream of transactions through the multi-shot commit \
          service: many concurrent instances of the selected protocol \
          multiplexed over one simulator run, with batching, pipelining, \
          parking of blocked instances, and shard crash/recovery.")
    Term.(
      const action $ protocol_arg $ n_arg $ f_arg $ seed_arg $ consensus_arg
      $ svc_network_arg $ clients_arg $ txns_arg $ max_batch_arg
      $ batch_window_arg $ pipeline_arg $ think_arg $ zipf_s_arg
      $ election_timeout_arg $ require_drained_arg $ outage_arg $ floor_arg
      $ wait_budget_arg $ keys_arg $ soak_arg $ flush_every_arg
      $ words_ceiling_arg)

let stress_cmd =
  let runs_arg =
    Arg.(value & opt int 50 & info [ "runs" ] ~docv:"K" ~doc:"Scenarios per battery.")
  in
  let action n f runs jobs =
    print_string
      (Stress.render ~runs ?jobs
         ~protocols:[ "inbac"; "(2n-2+f)nbac"; "2pc"; "3pc"; "paxos-commit" ]
         ~n ~f ())
  in
  Cmd.v
    (Cmd.info "stress"
       ~doc:
         "Statistical stress: many seeded crash/network scenarios per \
          protocol, with violation counts and decision-latency statistics.")
    Term.(const action $ n_arg $ f_arg $ runs_arg $ jobs_arg)

let weak_cmd =
  let action n = print_string (Table_weak.render ~n ()) in
  Cmd.v
    (Cmd.info "weak"
       ~doc:
         "Reproduce the Section 6.3 discussion: low-latency commit baselines \
          with weak semantics (Calvin-style, majority commit), the NBAC \
          property each gives up, and the weaker contract each keeps.")
    Term.(const action $ n_arg)

let ablation_cmd =
  let action n f = print_string (Ablation.render ~n ~f ()) in
  Cmd.v
    (Cmd.info "ablation"
       ~doc:
         "Run the design-decision ablations: event priority (appendix remark \
          (b)), consensus substrate modularity (Theorem 6), the fast-abort \
          optimization and the Section-6 normalization.")
    Term.(const action $ n_arg $ f_arg)

let sweep_cmd =
  let csv_arg =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a table.")
  in
  let fixed_f_arg =
    Arg.(value & opt int 2 & info [ "at-f" ] ~docv:"F" ~doc:"Fixed f for the n-sweep.")
  in
  let action csv f jobs =
    let protocols =
      [ "inbac"; "2pc"; "paxos-commit"; "faster-paxos-commit"; "(2n-2+f)nbac" ]
    in
    let ns = [ 3; 5; 8; 13; 21; 34 ] in
    if csv then begin
      print_string
        (Series.to_csv ~x_label:"n" (Series.over_n ?jobs ~protocols ~f ~ns ()));
      print_newline ();
      print_string
        (Series.to_csv ~x_label:"f"
           (Series.over_f ?jobs ~protocols ~n:13 ~fs:[ 1; 2; 3; 6; 9; 12 ] ()))
    end
    else begin
      print_string (Series.render_over_n ?jobs ~protocols ~f ~ns ());
      print_newline ();
      print_string
        (Series.render_over_f ?jobs ~protocols ~n:13 ~fs:[ 1; 2; 3; 6; 9; 12 ] ());
      print_newline ();
      print_endline "f = 1 crossover (INBAC pays exactly 2 extra messages over 2PC):";
      List.iter
        (fun (n, inbac, two_pc) ->
          Printf.printf "  n=%-3d inbac=%-4d 2pc=%-4d delta=%d\n" n inbac two_pc
            (inbac - two_pc))
        (Series.crossover_f1 ~ns)
    end
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Complexity series over n and f for the Section-6 protocols (the \
          reproduction's figures); --csv for plot-ready output.")
    Term.(const action $ csv_arg $ fixed_f_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* model checking                                                      *)

(* The model checker runs at small bounds by design (the space is
   exhaustive, not sampled), so [mc]/[mctable] default to n=3, f=1
   rather than the simulation commands' n=5, f=2. *)
let mc_n_arg =
  Arg.(value & opt int 3 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

let mc_f_arg =
  Arg.(
    value & opt int 1
    & info [ "f" ] ~docv:"F" ~doc:"Maximum number of tolerated crashes.")

let class_arg =
  let doc =
    "Execution class to explore: 'nice' (synchronous, failure-free), \
     'crash' (up to f crash injections), 'network' (commit-layer messages \
     may miss their synchronous slot), or 'all' (both failure kinds)."
  in
  Arg.(
    value
    & opt
        (enum
           [
             ("nice", Mc_run.Nice); ("crash", Mc_run.Crash);
             ("network", Mc_run.Network); ("all", Mc_run.All);
           ])
        Mc_run.Crash
    & info [ "class" ] ~docv:"CLASS" ~doc)

let expect_arg =
  let doc =
    "What the exploration must establish for exit status 0: 'none' (the \
     bounded space must hold no violation), 'agreement', 'validity' or \
     'termination' (a replay-verified violation of that property must \
     exist), or 'any' (some replay-verified violation must exist)."
  in
  Arg.(
    value
    & opt
        (enum
           [
             ("none", `None); ("any", `Any);
             ("agreement", `Prop Mc_replay.Agreement);
             ("validity", `Prop Mc_replay.Validity);
             ("termination", `Prop Mc_replay.Termination);
           ])
        `None
    & info [ "expect" ] ~docv:"WHAT" ~doc)

(* An integer flag confined to [lo..hi], refused at parse time outside
   it: a budget that is zero, negative or overflows its tick conversion
   would otherwise still print a verdict over a mangled space. *)
let int_in ?(hi = max_int) lo =
  let parse s =
    match int_of_string_opt s with
    | Some k when k < lo -> Error (`Msg (Printf.sprintf "%d is below %d" k lo))
    | Some k when k > hi ->
        Error (`Msg (Printf.sprintf "%d is out of range (at most %d)" k hi))
    | Some k -> Ok k
    | None ->
        Error
          (`Msg (Printf.sprintf "invalid value '%s', expected an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let budgets_term ~default_states =
  let depth =
    Arg.(
      value & opt (some (int_in 1)) None
      & info [ "depth" ] ~docv:"D" ~doc:"Schedule-step depth bound per path.")
  in
  let states =
    Arg.(
      value & opt (some (int_in 1)) None
      & info [ "max-states" ] ~docv:"K"
          ~doc:
            (Printf.sprintf
               "State-fingerprint budget (default %d): per frontier item in \
                the default per-item mode; under --shared-visited or \
                --swarm, per vote assignment's shared visited table."
               default_states))
  in
  let horizon =
    (* the horizon is kept in ticks: [h * u] must not overflow *)
    Arg.(
      value & opt (some (int_in ~hi:(max_int / u) 0)) None
      & info [ "horizon" ] ~docv:"T"
          ~doc:"Timer horizon in units of U (default 12).")
  in
  let late =
    Arg.(
      value & opt (some (int_in 0)) None
      & info [ "max-late" ] ~docv:"K"
          ~doc:
            "Network classes: at most K commit-layer messages may miss \
             their synchronous slot (default 4).")
  in
  let combine depth states horizon late =
    let b = Mc_limits.default_budgets ~u in
    {
      Mc_limits.max_depth = Option.value depth ~default:b.Mc_limits.max_depth;
      max_states = Option.value states ~default:default_states;
      horizon =
        (match horizon with Some h -> h * u | None -> b.Mc_limits.horizon);
      max_late = Option.value late ~default:b.Mc_limits.max_late;
    }
  in
  Term.(const combine $ depth $ states $ horizon $ late)

let symmetry_arg =
  let doc =
    "Symmetry reduction: canonicalize state fingerprints under the \
     protocol's declared process-permutation group (vote-refined), prune \
     permutation-twin crash candidates and orbit-duplicate frontier \
     items. 'on' (the default) cuts the explored space by the orbit \
     collapse; 'off' restores the historical exploration byte for byte. \
     Verdicts are identical either way."
  in
  Arg.(
    value
    & opt (enum [ ("on", true); ("off", false) ]) Mc_limits.default_symmetry
    & info [ "symmetry" ] ~docv:"on|off" ~doc)

let shared_visited_arg =
  let doc =
    "Dedup states globally per vote-set group (a digest-range-sharded \
     visited table shared by all frontier items) instead of per frontier \
     item: fewer states explored, higher states/sec, but the state \
     counters become dependent on --jobs timing. Verdicts are unaffected. \
     The default per-item mode keeps every counter bit-identical across \
     --jobs."
  in
  Arg.(value & flag & info [ "shared-visited" ] ~doc)

let swarm_arg =
  let doc =
    "Explore with independent randomized-order DFS walks, one per domain, \
     coupled only through a shared visited table (implies \
     --shared-visited): no frontier handoff. The mode \
     that actually scales with domains; counters are jobs-dependent like \
     any shared-table mode, verdicts are unaffected. Without this flag \
     (or --no-swarm) swarm turns on automatically when --shared-visited \
     runs at 4 or more jobs."
  in
  Arg.(value & flag & info [ "swarm" ] ~doc)

let no_swarm_arg =
  let doc =
    "Never use swarm exploration, even with --shared-visited at high \
     --jobs; keep the frontier decomposition."
  in
  Arg.(value & flag & info [ "no-swarm" ] ~doc)

let mc_cmd =
  let no_naive_arg =
    Arg.(
      value & flag
      & info [ "no-naive" ]
          ~doc:
            "Skip the naive-enumeration pass that measures the DPOR + \
             dedup pruning ratio (the pass is skipped anyway when a \
             violation is found).")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print exploration throughput (states/sec, schedules/sec over \
             the wall time of the exploration) and the peak visited-table \
             occupancy of any frontier item.")
  in
  let action protocol n f klass expect budgets symmetry stats consensus vote0
      no_naive msc jobs shared swarm no_swarm =
    check_system "mc" ~n ~f vote0;
    let vote_sets =
      match vote0 with
      | [] -> None
      | ranks ->
          let votes = Array.make n Vote.yes in
          List.iter
            (fun r -> votes.(Pid.index (Pid.of_rank r)) <- Vote.no)
            ranks;
          Some [ votes ]
    in
    let visited =
      if shared || swarm then Mc_limits.Shared else Mc_limits.default_visited
    in
    let swarm_opt =
      if swarm then Some true else if no_swarm then Some false else None
    in
    let gc0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    let outcome =
      Mc_run.run ~consensus ?vote_sets ~budgets ~symmetry ?jobs
        ~naive:(not no_naive) ~visited ?swarm:swarm_opt ~protocol ~n ~f
        ~klass ()
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    let gc1 = Gc.quick_stat () in
    Format.printf "%a@." Mc_run.pp_outcome outcome;
    if stats then begin
      let c = outcome.Mc_run.counters in
      let per_sec x = float_of_int x /. max elapsed 1e-9 in
      Format.printf
        "stats: %.3fs wall, %.0f states/sec, %.0f schedules/sec, peak \
         visited-table occupancy %d@."
        elapsed
        (per_sec c.Mc_limits.states)
        (per_sec c.Mc_limits.schedules)
        c.Mc_limits.peak_visited;
      (match outcome.Mc_run.shard_load with
      | Some (occ, bk) ->
          Format.printf
            "stats: shared-table occupancy %d/%d buckets (load %.2f)@." occ
            bk
            (float_of_int occ /. float_of_int (max bk 1))
      | None -> ());
      if c.Mc_limits.canon_calls > 0 then begin
        (* cost per call of the canonicalization itself, measured on a
           probe context (mid-exploration state, preparation outside the
           measurement): the symmetry-on sampler hashes under every
           renaming of the group the explored vote vector leaves, the
           plain one hashes once. A run over several vote vectors is
           probed on the first. *)
        let explored =
          match vote_sets with
          | Some sets -> sets
          | None -> Mc_run.default_vote_sets ~n klass
        in
        let votes = List.hd explored in
        let probe symmetry =
          Mc_run.fingerprint_sampler ~consensus ~symmetry ~votes ~protocol ~n
            ~f ~klass ()
        in
        let cost probe =
          let calls = 2_000 in
          probe 100 (* warm-up *);
          let w0 = Gc.minor_words () in
          let t0 = Unix.gettimeofday () in
          probe calls;
          let t1 = Unix.gettimeofday () in
          let w1 = Gc.minor_words () in
          ( (t1 -. t0) *. 1e9 /. float_of_int calls,
            (w1 -. w0) /. float_of_int calls )
        in
        let canon_ns, canon_words = cost (probe true) in
        let plain_ns, plain_words = cost (probe false) in
        Format.printf
          "stats: symmetry orbit hits %d (%.1f%% of %d canonicalizations), \
           twin skips %d, canonicalization %.0f ns/call %.1f minor \
           words/call (plain hash %.0f ns/call %.1f words/call)@."
          c.Mc_limits.orbit_hits
          (100.0
          *. float_of_int c.Mc_limits.orbit_hits
          /. float_of_int (max c.Mc_limits.canon_calls 1))
          c.Mc_limits.canon_calls c.Mc_limits.twin_skips canon_ns canon_words
          plain_ns plain_words;
        Format.printf "stats: canonicalization probed with votes %s%s@."
          (String.init n (fun i -> if Vote.to_bool votes.(i) then '1' else '0'))
          (match explored with
          | [ _ ] -> ""
          | _ ->
              Printf.sprintf " (the first of %d explored vote vectors)"
                (List.length explored))
      end;
      (* Gc.quick_stat reads the calling domain only; with --jobs 1 the
         exploration runs inline on this domain, so the deltas cover it
         exactly. With more domains they undercount. *)
      let per_state x = x /. float_of_int (max c.Mc_limits.states 1) in
      Format.printf
        "stats: gc minor-words/state %.1f, promoted-words/state %.1f, \
         major collections %d (main domain; exact at --jobs 1)@."
        (per_state (gc1.Gc.minor_words -. gc0.Gc.minor_words))
        (per_state (gc1.Gc.promoted_words -. gc0.Gc.promoted_words))
        (gc1.Gc.major_collections - gc0.Gc.major_collections)
    end;
    (match outcome.Mc_run.violation with
    | Some v when msc ->
        let report, _ = Mc_replay.replay ~consensus v.Mc_replay.witness in
        print_newline ();
        print_string (Trace_export.msc report)
    | _ -> ());
    let replay_ok = outcome.Mc_run.replay_verified <> Some false in
    let ok =
      match (expect, outcome.Mc_run.violation) with
      | `None, None -> true
      | `None, Some _ -> false
      | (`Any | `Prop _), None -> false
      | `Any, Some _ -> replay_ok
      | `Prop p, Some v -> v.Mc_replay.property = p && replay_ok
    in
    gate "mc" ok
  in
  let term =
    Term.(
      const action $ protocol_arg $ mc_n_arg $ mc_f_arg $ class_arg
      $ expect_arg
      $ budgets_term ~default_states:400_000
      $ symmetry_arg $ stats_arg $ consensus_arg $ vote0_arg $ no_naive_arg
      $ msc_arg $ jobs_arg $ shared_visited_arg $ swarm_arg $ no_swarm_arg)
  in
  Cmd.v
    (Cmd.info "mc"
       ~doc:
         "Model-check one protocol: explore every schedule of the bounded \
          configuration (DPOR + state dedup), and either certify the space \
          clean or emit a shrunk, engine-replayable counterexample.")
    term

let mctable_cmd =
  let action n f budgets symmetry jobs shared =
    check_system "mctable" ~n ~f [];
    let visited =
      if shared then Mc_limits.Shared else Mc_limits.default_visited
    in
    let text, ok =
      Table_mc.render_checked ~budgets ~symmetry ?jobs ~visited ~n ~f ()
    in
    print_string text;
    gate "mctable" ok
  in
  let term =
    Term.(
      const action $ mc_n_arg $ mc_f_arg
      $ budgets_term ~default_states:120_000
      $ symmetry_arg $ jobs_arg $ shared_visited_arg)
  in
  Cmd.v
    (Cmd.info "mctable"
       ~doc:
         "Model-check the Section-6 protocols across execution classes and \
          check each verdict against the protocol's claimed cell; the L1 \
          witnesses (2PC blocks under crash, 1NBAC and the INBAC \
          ack-undershoot disagree under network failure) fall out \
          mechanically.")
    term

(* ------------------------------------------------------------------ *)
(* witness                                                             *)

let witness_cmd =
  let action () =
    let all_ok = ref true in
    let show name scenario ~expect ~holds =
      let r = (Registry.find_exn name).Registry.run scenario in
      let v = Check.run r in
      let ok = holds v in
      if not ok then all_ok := false;
      Format.printf "%-22s %-18s agreement=%-5b termination=%-5b  [%s] %s@."
        name
        (Classify.to_string (Classify.of_report r))
        v.Check.agreement v.Check.termination
        (if ok then "ok" else "FAIL")
        expect
    in
    show "2pc" (Witness.two_pc_blocks ~n:5)
      ~expect:"expect: blocks (termination=false)"
      ~holds:(fun v -> not v.Check.termination);
    show "1nbac" (Witness.one_nbac_disagreement ~n:5)
      ~expect:"expect: agreement=false (the (AVT,VT) gap)"
      ~holds:(fun v -> not v.Check.agreement);
    show "(n-1+f)nbac" (Witness.chain_nbac_disagreement ~n:5)
      ~expect:"expect: agreement=false (noop-based implicit yes)"
      ~holds:(fun v -> not v.Check.agreement);
    show "(2n-2)nbac" (Witness.star_nbac_partial_broadcast ~n:5 ~keep:2)
      ~expect:"expect: agreement=true (relay saves the crash case)"
      ~holds:(fun v -> v.Check.agreement);
    show "(2n-2)nbac" (Witness.star_nbac_disagreement ~n:5)
      ~expect:"expect: agreement=false (network failure)"
      ~holds:(fun v -> not v.Check.agreement);
    show "inbac" (Witness.inbac_slow_backup ~n:5 ~f:2)
      ~expect:"expect: agreement=true, termination=true (indulgent)"
      ~holds:(fun v -> v.Check.agreement && v.Check.termination);
    show "inbac" (Witness.eventual_synchrony ~n:5 ~f:2 ~seed:1)
      ~expect:"expect: agreement=true, termination=true (indulgent)"
      ~holds:(fun v -> v.Check.agreement && v.Check.termination);
    gate "witness" !all_ok
  in
  Cmd.v
    (Cmd.info "witness"
       ~doc:
         "Run the lower-bound witness executions (the E_0/E_async \
          constructions of Lemmas 1, 3, 5) and show where each protocol's \
          guarantees stop.")
    Term.(const action $ const ())

(* ------------------------------------------------------------------ *)
(* list                                                                *)

let list_cmd =
  let action () =
    let table =
      Ascii.create
        ~header:[ "protocol"; "cell (CF,NF)"; "nice msgs"; "nice delays"; "note" ]
    in
    List.iter
      (fun (e : Complexity.entry) ->
        Ascii.add_row table
          [
            e.Complexity.protocol;
            Format.asprintf "%a" Props.pp_cell e.Complexity.cell;
            string_of_int (e.Complexity.messages ~n:5 ~f:2) ^ " (n=5,f=2)";
            string_of_int (e.Complexity.delays ~n:5 ~f:2);
            e.Complexity.note;
          ])
      Complexity.entries;
    Ascii.print table
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List every protocol with its complexity and cell.")
    Term.(const action $ const ())

let main_cmd =
  let doc =
    "Reproduction harness for 'How Fast can a Distributed Transaction \
     Commit?' (Guerraoui & Wang, PODS 2017)."
  in
  Cmd.group (Cmd.info "actable" ~version:"1.0.0" ~doc)
    [
      run_cmd; table1_cmd; table2_cmd; table3_cmd; table4_cmd; robustness_cmd;
      fig1_cmd; witness_cmd; mc_cmd; mctable_cmd; ablation_cmd; sweep_cmd;
      weak_cmd; stress_cmd; db_cmd; txserve_cmd; lemmas_cmd; list_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
