(* Tests for the multi-shot commit service: nominal runs resolve every
   transaction, the pipelining/batching knobs do what they claim, blocked
   instances park without stalling the pipeline and drain through shard
   recovery, and a run is a deterministic function of its spec. *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let u = Sim_time.default_u

let small =
  {
    Commit_service.default with
    Commit_service.clients = 32;
    txns = 200;
    seed = 7;
  }

let run ?(spec = small) protocol = Commit_service.run ~protocol ~n:3 ~f:1 spec

(* the fields a run determines exactly (no wall-clock noise) *)
let fingerprint (s : Svc_history.stats) =
  ( ( s.Svc_history.transactions,
      s.Svc_history.committed,
      s.Svc_history.aborted,
      s.Svc_history.local_aborts,
      s.Svc_history.parked ),
    ( s.Svc_history.instances,
      s.Svc_history.retries,
      s.Svc_history.peak_in_flight,
      s.Svc_history.total_messages,
      s.Svc_history.staged_left ),
    s.Svc_history.makespan_delays )

let test_nominal_resolves_all () =
  List.iter
    (fun protocol ->
      let s = run protocol in
      check tint (protocol ^ " issued all") 200 s.Svc_history.transactions;
      check tint (protocol ^ " nothing parked") 0 s.Svc_history.parked;
      check tint (protocol ^ " staging drained") 0 s.Svc_history.staged_left;
      check tint (protocol ^ " accounted") 200
        (s.Svc_history.committed + s.Svc_history.aborted
       + s.Svc_history.local_aborts);
      check tbool (protocol ^ " commits") true (s.Svc_history.committed > 0);
      check tbool (protocol ^ " atomic") true s.Svc_history.atomicity_ok;
      check tbool (protocol ^ " agreement") true s.Svc_history.agreement_ok;
      let l = s.Svc_history.latency in
      check tbool (protocol ^ " percentiles ordered") true
        (l.Histogram.p50 <= l.Histogram.p95
        && l.Histogram.p95 <= l.Histogram.p99))
    [ "inbac"; "paxos-commit"; "2pc" ]

let test_deterministic () =
  List.iter
    (fun protocol ->
      check tbool (protocol ^ " same spec, same run") true
        (fingerprint (run protocol) = fingerprint (run protocol)))
    [ "inbac"; "2pc" ]

let test_pipelining () =
  let deep = run "inbac" in
  let serial =
    run ~spec:{ small with Commit_service.pipeline_depth = 1 } "inbac"
  in
  check tbool "deep pipeline overlaps instances" true
    (deep.Svc_history.peak_in_flight > 1);
  check tint "depth 1 serializes" 1 serial.Svc_history.peak_in_flight;
  check tint "serialized run still resolves" 0 serial.Svc_history.parked;
  check tbool "serialized run still atomic" true
    serial.Svc_history.atomicity_ok

let test_batching () =
  let batched = run "inbac" in
  let unbatched =
    run ~spec:{ small with Commit_service.max_batch = 1 } "inbac"
  in
  check tbool "co-resident transactions share instances" true
    (batched.Svc_history.mean_batch > 1.0);
  check tbool "max_batch 1 gives one txn per instance" true
    (unbatched.Svc_history.mean_batch = 1.0);
  check tbool "batching launches fewer instances" true
    (batched.Svc_history.instances < unbatched.Svc_history.instances)

let test_two_pc_parks_and_recovers () =
  (* the 2PC coordinator shard goes down at 3U and comes back at 40U:
     in-flight instances park, the recovered shard adopts what it missed,
     and every parked instance re-runs to a decision (re-election off —
     this exercises the pure park/recovery path) *)
  let spec =
    {
      Commit_service.default with
      Commit_service.txns = 400;
      seed = 7;
      outages = [ (1, 3 * u, Some (40 * u)) ];
      election_timeout = None;
    }
  in
  let s = run ~spec "2pc" in
  check tbool "parked instances re-ran" true (s.Svc_history.retries > 0);
  check tint "recovery drained every instance" 0 s.Svc_history.parked;
  check tint "no staging left" 0 s.Svc_history.staged_left;
  check tbool "commits resumed" true (s.Svc_history.committed > 0);
  check tbool "atomic across the outage" true s.Svc_history.atomicity_ok;
  check tbool "agreement across the outage" true s.Svc_history.agreement_ok

let test_two_pc_parks_without_recovery () =
  (* with re-election off, a never-healing coordinator outage strands its
     parked instances — the blocking behavior the regression test below
     shows re-election (the default) eliminates. staged_left counts live
     shards only, so the parked instances' write-ahead entries on the
     two surviving shards must still be visible there. *)
  let spec =
    {
      Commit_service.default with
      Commit_service.txns = 400;
      seed = 7;
      outages = [ (1, 3 * u, None) ];
      election_timeout = None;
    }
  in
  let s = run ~spec "2pc" in
  check tbool "instances stay parked" true (s.Svc_history.parked > 0);
  check tbool "their writes stay staged" true
    (s.Svc_history.staged_left > 0);
  check tint "every issued txn accounted" s.Svc_history.transactions
    (s.Svc_history.committed + s.Svc_history.aborted
   + s.Svc_history.local_aborts + s.Svc_history.parked);
  check tbool "parked-not-installed is still atomic" true
    s.Svc_history.atomicity_ok

let test_no_recovery_liveness_regression () =
  (* Regression (ISSUE 9): a never-recovering coordinator outage used to
     strand its parked instances forever — staged writes held, locks
     held, clients stalled. With re-election on (the default), a
     surviving shard must take over and drive every parked instance to a
     decision: the run terminates fully drained. *)
  let spec =
    {
      Commit_service.default with
      Commit_service.txns = 400;
      seed = 7;
      outages = [ (1, 3 * u, None) ];
    }
  in
  let s = run ~spec "2pc" in
  check tint "no instance left parked" 0 s.Svc_history.parked;
  check tint "no staging left on live shards" 0 s.Svc_history.staged_left;
  check tbool "commits kept flowing past the outage" true
    (s.Svc_history.committed > 0);
  check tint "every issued txn accounted" s.Svc_history.transactions
    (s.Svc_history.committed + s.Svc_history.aborted
   + s.Svc_history.local_aborts);
  check tbool "atomic" true s.Svc_history.atomicity_ok;
  check tbool "agreement" true s.Svc_history.agreement_ok

let test_election_accounting () =
  (* the drained no-recovery run is driven by elections: stand-ins are
     counted, their stolen decisions are counted, and no recovery ever
     happens so the retry counter stays at zero *)
  let spec =
    {
      Commit_service.default with
      Commit_service.txns = 400;
      seed = 7;
      outages = [ (1, 3 * u, None) ];
    }
  in
  let s = run ~spec "2pc" in
  check tbool "elections happened" true (s.Svc_history.elections > 0);
  check tbool "stand-ins reached decisions" true (s.Svc_history.stolen > 0);
  check tbool "stolen bounded by elections" true
    (s.Svc_history.stolen <= s.Svc_history.elections);
  check tint "no recovery, no retries" 0 s.Svc_history.retries;
  check tbool "parked time recorded" true
    (s.Svc_history.time_parked.Histogram.count >= s.Svc_history.stolen);
  let tp = s.Svc_history.time_parked in
  check tbool "parked percentiles ordered" true
    (tp.Histogram.p50 <= tp.Histogram.p95 && tp.Histogram.p95 <= tp.Histogram.p99)

let test_election_vs_recovery_reconciles () =
  (* outage heals *after* the election timers have fired: stand-ins
     decide first, the recovering shard adopts their outcomes, and the
     whole history stays atomic with everything drained *)
  let spec =
    {
      Commit_service.default with
      Commit_service.txns = 400;
      seed = 7;
      outages = [ (1, 3 * u, Some (80 * u)) ];
    }
  in
  let s = run ~spec "2pc" in
  check tbool "elections beat the recovery" true
    (s.Svc_history.elections > 0);
  check tint "drained" 0 s.Svc_history.parked;
  check tint "no staging left anywhere after recovery" 0
    s.Svc_history.staged_left;
  check tint "accounted" s.Svc_history.transactions
    (s.Svc_history.committed + s.Svc_history.aborted
   + s.Svc_history.local_aborts);
  check tbool "atomic" true s.Svc_history.atomicity_ok;
  check tbool "agreement" true s.Svc_history.agreement_ok

(* Launch drops every member whose read went stale since submit, and
   a launched batch holds no key another instance holds, so without a
   crash or an outage every shard votes yes: no instance may abort, and
   every transaction that did not commit was turned away without one.
   A launch filter that validates only a member's first read lets the
   second one through, and its instance aborts. *)
let test_failure_free_instances_commit () =
  let stale = ref 0 in
  List.iter
    (fun protocol ->
      List.iter
        (fun zipf_s ->
          List.iter
            (fun seed ->
              let spec =
                { Commit_service.default with Commit_service.zipf_s; seed }
              in
              let s = run ~spec protocol in
              let name =
                Printf.sprintf "%s zipf %.2f seed %d" protocol zipf_s seed
              in
              check tint (name ^ ": no instance aborts") 0
                s.Svc_history.aborted;
              check tint (name ^ ": the rest aborted locally")
                s.Svc_history.transactions
                (s.Svc_history.committed + s.Svc_history.local_aborts);
              check tbool (name ^ ": stale drops are local aborts") true
                (s.Svc_history.stale_aborts
                <= s.Svc_history.local_aborts);
              stale := !stale + s.Svc_history.stale_aborts)
            [ 1; 2; 3 ])
        [ Commit_service.default.Commit_service.zipf_s; 0.8 ])
    [ "inbac"; "2pc"; "paxos-commit" ];
  check tbool "reads went stale before launch" true (!stale > 0)

let test_nominal_run_has_no_elections () =
  let s = run "inbac" in
  check tint "no outage, no elections" 0 s.Svc_history.elections;
  check tint "no outage, nothing stolen" 0 s.Svc_history.stolen;
  check tint "no outage, no parked time" 0
    s.Svc_history.time_parked.Histogram.count

let test_inbac_crash_non_blocking () =
  (* same unrecovered outage, but INBAC tolerates f=1: every instance
     still decides (aborting when the dead shard's vote is missing) — the
     non-blocking contrast the paper draws against 2PC *)
  let spec =
    {
      Commit_service.default with
      Commit_service.txns = 400;
      seed = 7;
      outages = [ (1, 3 * u, None) ];
    }
  in
  let s = run ~spec "inbac" in
  check tint "nothing parks" 0 s.Svc_history.parked;
  check tbool "pre-outage commits exist" true (s.Svc_history.committed > 0);
  check tbool "atomic" true s.Svc_history.atomicity_ok;
  check tbool "agreement" true s.Svc_history.agreement_ok

let test_zipf_s_passthrough () =
  let s = run ~spec:{ small with Commit_service.zipf_s = 1.25 } "inbac" in
  check (Alcotest.float 1e-9) "explicit exponent echoed" 1.25
    s.Svc_history.zipf_s;
  check (Alcotest.float 0.0) "default is the 16-hot-keys-at-0.1 exponent"
    Workload.Zipf.(s (of_hot ~keys:2048 ~hot_keys:16 ~hot_fraction:0.1))
    Commit_service.default.Commit_service.zipf_s

(* ------------------------------------------------------------------ *)
(* Queued admission (ISSUE 10): FIFO fairness, liveness across outages,
   deadlock freedom, and the queue-vs-abort differential *)

let test_queue_fifo_fairness () =
  (* one key, one-transaction batches: the first arrival locks the key
     and everyone else joins its FIFO wait queue. With a generous budget
     nothing may abort, and decisions must come out in admission order —
     transaction ids are assigned at submit time, so the observed
     decision sequence must be exactly the id sequence. *)
  let spec =
    {
      Commit_service.default with
      Commit_service.clients = 16;
      txns = 64;
      keys = 1;
      reads_per_txn = 0;
      writes_per_txn = 1;
      max_batch = 1;
      batch_window = 0;
      wait_budget = 1_000_000;
      seed = 5;
    }
  in
  let order = ref [] in
  let s =
    Commit_service.run
      ~observe:(fun id _ -> order := id :: !order)
      ~protocol:"2pc" ~n:3 ~f:1 spec
  in
  check tint "everything commits" s.Svc_history.transactions
    s.Svc_history.committed;
  check tint "nothing aborts under a generous budget" 0
    (s.Svc_history.aborted + s.Svc_history.local_aborts);
  check tbool "the hot key made transactions wait" true
    (s.Svc_history.queued > 0);
  let ids =
    List.rev_map
      (fun id -> int_of_string (String.sub id 1 (String.length id - 1)))
      !order
  in
  check
    (Alcotest.list tint)
    "decisions in submission order" (List.sort compare ids) ids

let test_queue_drains_across_outage () =
  (* contended queue-mode run with a healing coordinator outage: waiters
     parked behind blocked holders must drain through recovery adoption,
     and the queue counters must stay internally consistent *)
  let spec =
    {
      Commit_service.default with
      Commit_service.txns = 400;
      seed = 7;
      zipf_s = 0.8;
      keys = 64;
      outages = [ (1, 3 * u, Some (40 * u)) ];
      election_timeout = None;
    }
  in
  let s = run ~spec "2pc" in
  check tbool "contention queued transactions" true
    (s.Svc_history.queued > 0);
  check tint "recovery drained everything" 0 s.Svc_history.parked;
  check tint "no staging left" 0 s.Svc_history.staged_left;
  check tint "accounted" s.Svc_history.transactions
    (s.Svc_history.committed + s.Svc_history.aborted
   + s.Svc_history.local_aborts);
  check tbool "atomic" true s.Svc_history.atomicity_ok;
  check tbool "agreement" true s.Svc_history.agreement_ok

let test_queue_drains_with_elections () =
  (* never-healing outage, re-election on (the default): stand-ins decide
     the blocked holders, whose queues drain on takeover — the contended
     run still terminates fully drained *)
  let spec =
    {
      Commit_service.default with
      Commit_service.txns = 400;
      seed = 7;
      zipf_s = 0.8;
      keys = 64;
      outages = [ (1, 3 * u, None) ];
    }
  in
  let s = run ~spec "2pc" in
  check tbool "contention queued transactions" true
    (s.Svc_history.queued > 0);
  check tbool "elections happened" true (s.Svc_history.elections > 0);
  check tint "drained" 0 s.Svc_history.parked;
  check tint "no staging left on live shards" 0 s.Svc_history.staged_left;
  check tbool "atomic" true s.Svc_history.atomicity_ok;
  check tbool "agreement" true s.Svc_history.agreement_ok

let test_queue_accounting () =
  (* hot-key run: the queue counters and derived gauges must be
     internally consistent, and the budget-0 twin must never queue *)
  let spec =
    { small with Commit_service.zipf_s = 1.2; Commit_service.keys = 32 }
  in
  let q = run ~spec "2pc" in
  check tbool "waiters recorded" true (q.Svc_history.queued > 0);
  check tbool "queue depth sampled per wait" true
    (q.Svc_history.queue_depth.Histogram.count >= q.Svc_history.queued);
  check (Alcotest.float 1e-9) "goodput is the committed fraction"
    (float_of_int q.Svc_history.committed
    /. float_of_int q.Svc_history.transactions)
    q.Svc_history.goodput;
  check tbool "allocation gauge is live" true
    (q.Svc_history.minor_words_per_txn > 0.0);
  let a = run ~spec:{ spec with Commit_service.wait_budget = 0 } "2pc" in
  check tint "budget 0 never queues" 0 a.Svc_history.queued;
  check tbool "queueing beats aborting on goodput" true
    (q.Svc_history.goodput > a.Svc_history.goodput)

let test_streaming_histograms () =
  (* a run of Svc_history.streaming_txns transactions streams its
     histograms: exact sample count, ordered percentiles, each on the
     upper edge of a 1/8-delay latency bin or at the exact maximum; one
     transaction fewer keeps the exact ones *)
  let at txns =
    run ~spec:{ small with Commit_service.txns; zipf_s = 0.8 } "2pc"
  in
  let on_edges (l : Histogram.summary) =
    List.for_all
      (fun p -> p = l.max || Float.is_integer (p *. 8.0))
      [ l.p50; l.p95; l.p99 ]
  in
  let s = at Svc_history.streaming_txns in
  let l = s.Svc_history.latency in
  check tint "one latency sample per commit" s.Svc_history.committed
    l.Histogram.count;
  check tbool "streaming percentiles ordered" true
    (l.p50 <= l.p95 && l.p95 <= l.p99 && l.p99 <= l.max);
  check tbool "streaming percentiles on bin edges" true (on_edges l);
  check tbool "exact below the threshold" false
    (on_edges (at (Svc_history.streaming_txns - 1)).Svc_history.latency)

let qcheck_queue_deadlock_free =
  (* liveness property: random multi-key transactions over a small
     keyspace, queued admission, no outages — every run must terminate
     fully drained (waiters hold no locks, so no hold-and-wait cycle can
     form; the wait budget bounds re-queue chains) with the books
     balanced *)
  let gen =
    QCheck.(
      quad (int_range 0 1000) (int_range 4 48) (int_range 1 4)
        (int_range 0 15))
  in
  QCheck.Test.make ~count:25 ~name:"queued admission is deadlock-free" gen
    (fun (seed, clients, writes, zipf_decis) ->
      let spec =
        {
          Commit_service.default with
          Commit_service.clients;
          txns = clients * 4;
          keys = 64;
          writes_per_txn = writes;
          zipf_s = float_of_int zipf_decis /. 10.0;
          seed;
        }
      in
      let s = Commit_service.run ~protocol:"2pc" ~n:3 ~f:1 spec in
      s.Svc_history.parked = 0
      && s.Svc_history.staged_left = 0
      && s.Svc_history.committed + s.Svc_history.aborted
         + s.Svc_history.local_aborts
         = s.Svc_history.transactions
      && s.Svc_history.atomicity_ok
      && s.Svc_history.agreement_ok)

let qcheck_admission_differential =
  (* wait budget 64 vs 0 (abort on every conflict) under crash injection:
     both runs must preserve atomicity and agreement, and at zero
     contention (one closed-loop client, one transaction in flight at a
     time) the wait queues are unreachable code — the two runs must make
     identical per-transaction decisions *)
  let gen =
    QCheck.(
      quad (int_range 0 1000) (int_range 8 32) (int_range 10 60)
        (int_range 0 12))
  in
  QCheck.Test.make ~count:25
    ~name:"queue vs abort: safe under faults, identical at zero contention"
    gen
    (fun (seed, clients, recover_gap_u, zipf_decis) ->
      let base wait_budget clients =
        {
          Commit_service.default with
          Commit_service.clients;
          txns = clients * 4;
          keys = 64;
          zipf_s = float_of_int zipf_decis /. 10.0;
          outages = [ (1, 4 * u, Some ((4 + recover_gap_u) * u)) ];
          wait_budget;
          seed;
        }
      in
      let decisions spec =
        let tbl = Hashtbl.create 64 in
        let s =
          Commit_service.run
            ~observe:(fun id d -> Hashtbl.replace tbl id d)
            ~protocol:"2pc" ~n:3 ~f:1 spec
        in
        (tbl, s)
      in
      let _, sq = decisions (base 64 clients) in
      let _, sa = decisions (base 0 clients) in
      let qz, szq = decisions (base 64 1) in
      let az, sza = decisions (base 0 1) in
      sq.Svc_history.atomicity_ok && sq.Svc_history.agreement_ok
      && sa.Svc_history.atomicity_ok && sa.Svc_history.agreement_ok
      && sa.Svc_history.queued = 0
      && fingerprint szq = fingerprint sza
      && Hashtbl.length qz = Hashtbl.length az
      && Hashtbl.fold
           (fun id d acc ->
             acc
             &&
             match Hashtbl.find_opt az id with
             | Some d' -> Vote.decision_equal d d'
             | None -> false)
           qz true)

(* Differential: with a recovery in the schedule, turning re-election on
   changes *when* parked instances decide but never *what* they decide —
   the stand-in applies the same all-yes vote rule as the recovery
   retry. The spec is constrained so both runs are event-identical up to
   the first election timer: every transaction is issued by the initial
   client submits (txns <= clients), every batch launches immediately
   (pipeline >= txns), and the outage lands after that horizon.
   The wait budget is pinned to 0 (abort on every conflict): a wait
   queue's drain time depends on *when* its holder decides, which is
   exactly what the two runs differ on. *)
let qcheck_election_differential =
  let gen =
    QCheck.(
      quad (int_range 0 1000) (int_range 8 32) (int_range 10 40)
        (int_range 10 80))
  in
  QCheck.Test.make ~count:25
    ~name:"re-election preserves per-transaction decisions" gen
    (fun (seed, clients, timeout_u, recover_gap_u) ->
      let txns = max 4 (clients / 2) in
      let down_at = 4 * u in
      let base election_timeout =
        {
          Commit_service.default with
          Commit_service.clients;
          txns;
          seed;
          pipeline_depth = txns;
          wait_budget = 0;
          outages = [ (1, down_at, Some (down_at + (recover_gap_u * u))) ];
          election_timeout;
        }
      in
      let decisions spec =
        let tbl = Hashtbl.create 64 in
        let s =
          Commit_service.run
            ~observe:(fun id d -> Hashtbl.replace tbl id d)
            ~protocol:"2pc" ~n:3 ~f:1 spec
        in
        (tbl, s)
      in
      let on, s_on = decisions (base (Some (timeout_u * u))) in
      let off, s_off = decisions (base None) in
      s_on.Svc_history.parked = 0
      && s_off.Svc_history.parked = 0
      && s_on.Svc_history.atomicity_ok
      && s_off.Svc_history.atomicity_ok
      && Hashtbl.length on = Hashtbl.length off
      && Hashtbl.fold
           (fun id d acc ->
             acc
             &&
             match Hashtbl.find_opt off id with
             | Some d' -> Vote.decision_equal d d'
             | None -> false)
           on true)

let test_parallel_arms_byte_identical () =
  (* independent service runs share nothing across domains: fanned out
     through Batch.run, the deterministic JSON body of every arm must
     come out byte-identical whether the arms run on one domain or four *)
  let specs =
    [
      ("inbac", small);
      ("2pc", small);
      ( "2pc",
        {
          small with
          Commit_service.txns = 150;
          outages = [ (1, 3 * u, None) ];
        } );
      ("paxos-commit", { small with Commit_service.zipf_s = 0.9 });
    ]
  in
  let arm_bodies jobs =
    Batch.run ~jobs
      (fun (protocol, spec) ->
        Svc_history.arm_json_body
          (Commit_service.run ~protocol ~n:3 ~f:1 spec))
      specs
  in
  List.iter2
    (fun a b -> check Alcotest.string "arm body identical across jobs" a b)
    (arm_bodies 1) (arm_bodies 4)

let test_spec_validation () =
  check tbool "unknown protocol" true
    (try
       ignore (Commit_service.run ~protocol:"nope" ~n:3 ~f:1 small);
       false
     with Not_found -> true);
  let invalid spec =
    try
      ignore (Commit_service.run ~protocol:"inbac" ~n:3 ~f:1 spec);
      false
    with Invalid_argument _ -> true
  in
  check tbool "no clients" true
    (invalid { small with Commit_service.clients = 0 });
  check tbool "negative transaction count" true
    (invalid { small with Commit_service.txns = -1 });
  check tbool "no writes" true
    (invalid { small with Commit_service.writes_per_txn = 0 });
  check tbool "pipeline depth < 1" true
    (invalid { small with Commit_service.pipeline_depth = 0 });
  check tbool "max batch < 1" true
    (invalid { small with Commit_service.max_batch = 0 });
  check tbool "negative reads" true
    (invalid { small with Commit_service.reads_per_txn = -1 });
  check tbool "keyspace smaller than a transaction" true
    (invalid { small with Commit_service.keys = 3 });
  check tbool "keyspace above the dense-table bound" true
    (invalid { small with Commit_service.keys = Keyspace.max_keys + 1 });
  check tbool "wait budget < 0" true
    (invalid { small with Commit_service.wait_budget = -1 });
  check tbool "flush every < 0" true
    (invalid { small with Commit_service.flush_every = -1 });
  check tbool "outage rank out of range" true
    (invalid { small with Commit_service.outages = [ (9, u, None) ] });
  check tbool "election timeout < 1" true
    (invalid { small with Commit_service.election_timeout = Some 0 });
  check tbool "batch window < 0" true
    (invalid { small with Commit_service.batch_window = -1 });
  check tbool "outage before time zero" true
    (invalid { small with Commit_service.outages = [ (1, -2 * u, None) ] });
  check tbool "outage recovers before it goes down" true
    (invalid
       { small with Commit_service.outages = [ (2, 5 * u, Some (3 * u)) ] });
  check tbool "outage recovers the instant it goes down" true
    (invalid
       { small with Commit_service.outages = [ (2, 5 * u, Some (5 * u)) ] });
  (* two windows of one shard that overlap or touch have no one schedule:
     at a shared instant the later outage pops before the earlier
     recovery, and an overlapping window's recovery would end both *)
  let windows ws = { small with Commit_service.outages = ws } in
  check tbool "outages of one shard that touch" true
    (invalid (windows [ (1, 9 * u, Some (30 * u)); (1, 5 * u, Some (9 * u)) ]));
  check tbool "outages of one shard that overlap" true
    (invalid
       (windows [ (1, 5 * u, Some (10 * u)); (1, 7 * u, Some (60 * u)) ]));
  check tbool "an outage of one shard that never recovers, then another" true
    (invalid (windows [ (1, 5 * u, None); (1, 70 * u, Some (80 * u)) ]));
  check tbool "separate outages of one shard run" false
    (invalid (windows [ (1, 5 * u, Some (9 * u)); (1, 10 * u, Some (30 * u)) ]));
  (* an event packs pids in 10 bits each and a send instant in the 42
     bits above two of them *)
  check tbool "a horizon past the packed send instant" true
    (invalid { small with Commit_service.max_time = 1 lsl 42 });
  check tbool "a horizon at the packed bound runs" false
    (invalid { small with Commit_service.max_time = (1 lsl 42) - 1 });
  check tbool "more shards than a packed pid holds" true
    (try
       ignore (Commit_service.run ~protocol:"inbac" ~n:1025 ~f:1 small);
       false
     with Invalid_argument _ -> true)

(* Golden arm bodies: every admission, batching, wait and election
   decision of these runs shows in some counter or delay summary, so any
   change to admission order, batch membership or lock bookkeeping moves
   a byte here. The third spec has 66 shards, past any one-word owner-set
   bitmask; the fourth draws uniformly (s = 0, the closed-form draw) over
   a keyspace far wider than the others'. The fifth schedules think gaps
   (20U) and election timers (12U) far past the event queue's tick
   window, so events overflow it and migrate into the ring as the clock
   advances. *)
let test_golden_arm_bodies () =
  let contended =
    {
      Commit_service.default with
      Commit_service.clients = 64;
      txns = 1000;
      keys = 256;
      zipf_s = 0.9;
      seed = 5;
    }
  in
  let pins =
    [
      ( "inbac n=5 f=2, outage 2@5:40",
        ("inbac", 5, 2),
        {
          contended with
          Commit_service.outages = [ (2, 5 * u, Some (40 * u)) ];
        },
        {|"transactions": 1000, "committed": 399, "aborted": 60, "local_aborts": 541, "stale_aborts": 464, "requeued": 1735, "queued": 702, "parked": 0, "instances": 420, "retries": 0, "elections": 0, "stolen": 0, "mean_batch": 1.092857, "peak_in_flight": 16, "messages": 10423, "staged_left": 0, "abort_rate": 0.601000, "goodput": 0.399000, "zipf_s": 0.900000, "latency_delays": {"mean": 5.025541, "p50": 2.500000, "p95": 14.051000, "p99": 40.163000, "max": 56.108000}, "time_parked_delays": {"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}, "queue_depth": {"mean": 45.369188, "p50": 48.000000, "p95": 58.000000, "p99": 60.000000, "max": 61.000000}, "atomicity_ok": true, "agreement_ok": true|}
      );
      ( "2pc n=4 f=1, outages 1@5:40 and 3@60",
        ("2pc", 4, 1),
        {
          contended with
          Commit_service.outages =
            [ (1, 5 * u, Some (40 * u)); (3, 60 * u, None) ];
        },
        {|"transactions": 1000, "committed": 108, "aborted": 222, "local_aborts": 670, "stale_aborts": 95, "requeued": 372, "queued": 493, "parked": 0, "instances": 293, "retries": 8, "elections": 22, "stolen": 22, "mean_batch": 1.126280, "peak_in_flight": 16, "messages": 1653, "staged_left": 0, "abort_rate": 0.892000, "goodput": 0.108000, "zipf_s": 0.900000, "latency_delays": {"mean": 8.519333, "p50": 3.298000, "p95": 29.664000, "p99": 34.952000, "max": 35.410000}, "time_parked_delays": {"mean": 11.459400, "p50": 14.000000, "p95": 14.000000, "p99": 14.000000, "max": 14.000000}, "queue_depth": {"mean": 44.321745, "p50": 48.000000, "p95": 57.000000, "p99": 58.000000, "max": 60.000000}, "atomicity_ok": true, "agreement_ok": true|}
      );
      ( "2pc n=66 f=1, wide batches",
        ("2pc", 66, 1),
        {
          Commit_service.default with
          Commit_service.txns = 400;
          clients = 128;
          keys = 64;
          batch_window = 3 * u;
          max_batch = 16;
          seed = 3;
        },
        {|"transactions": 400, "committed": 92, "aborted": 0, "local_aborts": 308, "stale_aborts": 308, "requeued": 199, "queued": 357, "parked": 0, "instances": 91, "retries": 0, "elections": 0, "stolen": 0, "mean_batch": 1.010989, "peak_in_flight": 11, "messages": 11830, "staged_left": 0, "abort_rate": 0.770000, "goodput": 0.230000, "zipf_s": 0.570462, "latency_delays": {"mean": 7.627793, "p50": 6.230000, "p95": 14.701000, "p99": 19.239000, "max": 19.239000}, "time_parked_delays": {"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}, "queue_depth": {"mean": 84.583055, "p50": 88.000000, "p95": 105.000000, "p99": 109.000000, "max": 111.000000}, "atomicity_ok": true, "agreement_ok": true|}
      );
      ( "inbac n=5 f=2, uniform over 65536 keys",
        ("inbac", 5, 2),
        {
          Commit_service.default with
          Commit_service.clients = 256;
          txns = 2000;
          keys = 65536;
          zipf_s = 0.0;
        },
        {|"transactions": 2000, "committed": 1985, "aborted": 0, "local_aborts": 15, "stale_aborts": 15, "requeued": 5, "queued": 41, "parked": 0, "instances": 449, "retries": 0, "elections": 0, "stolen": 0, "mean_batch": 4.420935, "peak_in_flight": 53, "messages": 8980, "staged_left": 0, "abort_rate": 0.007500, "goodput": 0.992500, "zipf_s": 0.000000, "latency_delays": {"mean": 2.293084, "p50": 2.279000, "p95": 2.500000, "p99": 2.586000, "max": 4.719000}, "time_parked_delays": {"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}, "queue_depth": {"mean": 2.731707, "p50": 3.000000, "p95": 5.000000, "p99": 7.000000, "max": 7.000000}, "atomicity_ok": true, "agreement_ok": true|}
      );
      ( "2pc n=4 f=1, think 20U, outage 1@5 never heals",
        ("2pc", 4, 1),
        {
          Commit_service.default with
          Commit_service.clients = 256;
          txns = 2000;
          think_gap = 20 * u;
          outages = [ (1, 5 * u, None) ];
          seed = 42;
        },
        {|"transactions": 2000, "committed": 912, "aborted": 0, "local_aborts": 1088, "stale_aborts": 351, "requeued": 411, "queued": 792, "parked": 0, "instances": 752, "retries": 0, "elections": 727, "stolen": 727, "mean_batch": 1.212766, "peak_in_flight": 26, "messages": 6693, "staged_left": 0, "abort_rate": 0.544000, "goodput": 0.456000, "zipf_s": 0.570462, "latency_delays": {"mean": 18.545435, "p50": 14.840000, "p95": 36.955000, "p99": 93.735000, "max": 146.791000}, "time_parked_delays": {"mean": 14.000000, "p50": 14.000000, "p95": 14.000000, "p99": 14.000000, "max": 14.000000}, "queue_depth": {"mean": 89.317878, "p50": 100.000000, "p95": 117.000000, "p99": 120.000000, "max": 127.000000}, "atomicity_ok": true, "agreement_ok": true|}
      );
    ]
  in
  List.iter
    (fun (name, (protocol, n, f), spec, expected) ->
      let s = Commit_service.run ~protocol ~n ~f spec in
      check Alcotest.string name expected (Svc_history.arm_json_body s))
    pins

(* Start-up does no per-key work, and the allocation gauge starts at the
   top of the run: one transaction over 2^20 keys stays within a few
   thousand minor words (a name table for the keyspace is ~10.6M). *)
let test_startup_allocation () =
  let s =
    Commit_service.run ~protocol:"inbac" ~n:3 ~f:1
      {
        Commit_service.default with
        Commit_service.clients = 1;
        txns = 1;
        keys = 1 lsl 20;
        zipf_s = 0.0;
      }
  in
  check tint "the transaction ran" 1 s.Svc_history.transactions;
  check tbool
    (Printf.sprintf "%.0f minor words for one transaction over 2^20 keys"
       s.Svc_history.minor_words_per_txn)
    true
    (s.Svc_history.minor_words_per_txn <= 20000.0)

(* A commit instance allocates little beyond what its protocol emits:
   on perfbench's uniform shape (INBAC n=5 f=2, no admission waits) a
   transaction costs ~342 minor words, about 275 of them in the
   protocol's handlers. Event records, per-drive sinks, closure loops
   in the lifecycle and a boxed batch, waiter and staging entry read
   ~520 here and fail the ceiling; copying vote sets, a boxed Rng,
   INBAC's per-step rank lists and twice-wrapped service events read
   ~1130. *)
let allocation_shape ~keys ~zipf_s =
  Commit_service.run ~protocol:"inbac" ~n:5 ~f:2
    {
      Commit_service.default with
      Commit_service.clients = 256;
      txns = 2000;
      keys;
      zipf_s;
    }

let check_allocation s ~shape ~ceiling =
  check tint "every transaction issued" 2000 s.Svc_history.transactions;
  check tint "none left unresolved" 0 s.Svc_history.parked;
  check tbool
    (Printf.sprintf "%.0f minor words/txn on the %s shape"
       s.Svc_history.minor_words_per_txn shape)
    true
    (s.Svc_history.minor_words_per_txn <= ceiling)

let test_uniform_allocation () =
  check_allocation ~shape:"uniform" ~ceiling:410.0
    (allocation_shape ~keys:65536 ~zipf_s:0.0)

(* The same on perfbench's skewed shape (Zipf 0.8 over 2048 keys), where
   most transactions wait on a holder, so admission's queues, batches and
   launch checks allocate too: ~603 minor words per transaction, ~866
   before the batch moved into its holder and the waiter into one
   array. *)
let test_skewed_allocation () =
  check_allocation ~shape:"skewed" ~ceiling:720.0
    (allocation_shape ~keys:2048 ~zipf_s:0.8)

(* Svc_history's checks driven directly: every run above asserts
   atomicity_ok and agreement_ok, so these show that each check can fail.
   Transaction 7 writes key 1 and stages at owner shards 0 and 2 of 3;
   the instance decides commit at 3. *)
let history_flags steps =
  let h = Svc_history.create ~txns:1 ~clients:1 ~flush_every:0 () in
  let ks = Keyspace.create ~n:3 ~keys:8 in
  Array.iter
    (fun shard -> Keyspace.stage ks ~shard ~txn:7 [| 1 |] ~writes:1)
    [| 0; 2 |];
  steps h ks;
  let s =
    Svc_history.stats h ~protocol:"-" ~zipf_s:0.0 ~staged_left:0 ~makespan:0
  in
  (s.Svc_history.atomicity_ok, s.Svc_history.agreement_ok)

let decide h ds =
  ignore
    (Svc_history.decided h ~now:5 ~elected:false ~parked_at:None ds 3
       Vote.Commit)

let check_staged h ks resolved =
  Svc_history.check_staged h ks ~decided:true ~resolved ~txn:7 [| 0; 2 |]

let agreeing = [| Some (3, Vote.Commit); None; Some (4, Vote.Commit) |]
let flags = Alcotest.(pair bool bool)

let test_history_clean () =
  check flags "parked, decided with shard 2 down, then retired" (true, true)
    (history_flags (fun h ks ->
         Svc_history.check_staged h ks ~decided:false
           ~resolved:[| false; false; false |] ~txn:7 [| 0; 2 |];
         decide h agreeing;
         Keyspace.apply ks ~shard:0 ~txn:7;
         check_staged h ks [| true; true; false |];
         Keyspace.apply ks ~shard:2 ~txn:7;
         check_staged h ks [| true; true; true |]))

let test_history_retired_staging () =
  check flags "retired while shard 2 still stages" (false, true)
    (history_flags (fun h ks ->
         decide h agreeing;
         Keyspace.apply ks ~shard:0 ~txn:7;
         check_staged h ks [| true; true; true |]))

let test_history_resolved_staging () =
  check flags "live, shard 0 resolved but still staging" (false, true)
    (history_flags (fun h ks ->
         decide h agreeing;
         check_staged h ks [| true; true; false |]))

let test_history_disagreement () =
  check flags "shard 1 decides abort" (true, false)
    (history_flags (fun h _ ->
         decide h [| Some (3, Vote.Commit); Some (4, Vote.Abort); None |]))

(* Svc_admission driven directly, with stub launch, resubmit and arm
   functions that only record what admission asks for. One shard owns
   keys 0..7, so every transaction has the same owner set and may share a
   batch with any other whose keys it does not touch. *)
type stub = {
  ks : Keyspace.t;
  hist : Svc_history.t;
  adm : Svc_admission.t;
  armed : (int * int) list ref;  (* holder, serial; newest first *)
  launched : (int * int list) list ref;  (* holder, member ids *)
}

let admission ?(max_batch = 8) ?(keys = 8) () =
  let ks = Keyspace.create ~n:1 ~keys in
  let hist = Svc_history.create ~txns:64 ~clients:64 ~flush_every:0 () in
  let armed = ref [] and launched = ref [] in
  let adm =
    Svc_admission.create ~ks ~hist ~keys ~max_batch ~batch_window:(u / 2)
      ~wait_budget:64 ~pipeline_depth:64
      ~launch:(fun _ h members count ->
        let ids = List.init count (fun m -> members.(m).Svc_admission.w_id) in
        launched := (h, ids) :: !launched)
      ~resubmit:(fun _ _ -> ())
      ~arm:(fun _ h serial -> armed := (h, serial) :: !armed)
  in
  { ks; hist; adm; armed; launched }

(* transaction [id] reading [reads] at their current versions, its keys
   laid out as the service lays them out *)
let txn st ~id ?(reads = [||]) writes =
  let nw = Array.length writes and nr = Array.length reads in
  let owners = Array.make nw 0 in
  {
    Svc_admission.w_id = id;
    w_client = id;
    w_submitted = 0;
    w_keys =
      Array.concat [ writes; reads; Array.map (Keyspace.version st.ks) reads ];
    w_writes = nw;
    w_reads = nr;
    w_owners =
      Svc_admission.owners st.adm owners
        (Keyspace.owners st.ks writes nw owners);
    w_waits = 0;
    w_by_name = [||];
  }

let submit st ws = List.iter (Svc_admission.submit st.adm 0) ws

(* a commit elsewhere moves [k]'s version: a read of it goes stale *)
let bump st k =
  Keyspace.stage st.ks ~shard:0 ~txn:1000 [| k |] ~writes:1;
  Keyspace.apply st.ks ~shard:0 ~txn:1000

let last_armed st = List.hd !(st.armed)
let launch st (h, serial) = Svc_admission.launch_batch st.adm 0 h serial
let last_holder st = fst (List.hd !(st.launched))

(* the instance of holder [h] decided, resolved and retired, as the
   lifecycle does it *)
let resolve st h =
  Svc_admission.release st.adm ~shard:0 h;
  Svc_admission.drain st.adm 0 h;
  Svc_admission.retire st.adm h

let counters st =
  let s =
    Svc_history.stats st.hist ~protocol:"-" ~zipf_s:0.0 ~staged_left:0
      ~makespan:0
  in
  (* queue pushes, launch-time re-queues, stale aborts *)
  ( s.Svc_history.queue_depth.Histogram.count,
    s.Svc_history.requeued,
    s.Svc_history.stale_aborts )

let counts = Alcotest.(triple int int int)
let ids = Alcotest.(list int)
let waits ws = List.map (fun w -> w.Svc_admission.w_waits) ws

let test_admission_herd () =
  let st = admission () in
  let w0 = txn st ~id:0 [| 1 |] in
  submit st [ w0 ];
  launch st (last_armed st);
  let h0 = last_holder st in
  let writers = List.init 4 (fun i -> txn st ~id:(i + 1) [| 1 |]) in
  submit st writers;
  check counts "four writers queue on the instance" (4, 0, 0) (counters st);
  resolve st h0;
  check tint "re-admitted, they arm one batch" 2 (List.length !(st.armed));
  check counts "and three queue on it" (7, 0, 0) (counters st);
  launch st (last_armed st);
  check ids "its first writer launches alone" [ 1 ]
    (snd (List.hd !(st.launched)));
  check counts "nobody re-queues at launch" (7, 0, 0) (counters st);
  resolve st (last_holder st);
  check ids "each wait ended once" [ 1; 2; 2; 2 ] (waits writers);
  check tint "the next batch" 3 (List.length !(st.armed))

let test_admission_leaver_unlocks () =
  let st = admission () in
  (* w0 locks key 2; w1 shares key 3 with it, so it opens a batch too *)
  let w0 = txn st ~id:0 ~reads:[| 3 |] [| 2 |] and w1 = txn st ~id:1 [| 3 |] in
  submit st [ w0 ];
  let b0 = last_armed st in
  submit st [ w1 ];
  check tint "two batches" 2 (List.length !(st.armed));
  launch st (last_armed st);
  launch st b0;
  check counts "w0's read key launched since: it re-queues" (1, 1, 0)
    (counters st);
  check tint "only w1 launched" 1 (List.length !(st.launched));
  submit st [ txn st ~id:2 [| 2 |] ];
  check counts "a new writer of w0's key is admitted" (1, 1, 0)
    (counters st);
  check tint "into a batch of its own" 3 (List.length !(st.armed))

let test_admission_stale_locks_nothing () =
  let st = admission () in
  let w0 = txn st ~id:0 ~reads:[| 4 |] [| 5 |] in
  bump st 4;
  submit st [ w0; txn st ~id:1 [| 5 |] ];
  check counts "a writer of the stale arrival's key does not wait" (0, 0, 0)
    (counters st);
  check tint "it opens a batch of its own" 2 (List.length !(st.armed));
  submit st [ txn st ~id:2 [| 5 |] ];
  check counts "a writer of the fresh arrival's key waits" (1, 0, 0)
    (counters st);
  List.iter (launch st) (List.rev !(st.armed));
  check counts "the stale arrival aborts at launch" (1, 0, 1) (counters st);
  check (Alcotest.list ids) "the fresh one launches" [ [ 1 ] ]
    (List.map snd !(st.launched))

let test_admission_emptied_batch () =
  let st = admission () in
  let m = txn st ~id:0 ~reads:[| 7 |] [| 6 |] in
  submit st [ m ];
  let b = last_armed st in
  let qs = [ txn st ~id:1 [| 6 |]; txn st ~id:2 [| 6 |] ] in
  submit st qs;
  check counts "both wait on the open batch" (2, 0, 0) (counters st);
  bump st 7;
  launch st b;
  check tint "its only member aborted: nothing launched" 0
    (List.length !(st.launched));
  check ids "each waiter re-admitted once" [ 1; 1 ] (waits qs);
  check counts "the second queues behind the first's batch" (3, 0, 1)
    (counters st);
  (* The same inside a drain: re-admitting [a] fills [m]'s batch, which
     launch empties (both are stale), so [q] re-admits within the drain
     of [i], before [a2]. *)
  let st = admission ~max_batch:2 () in
  let i = txn st ~id:0 [| 1 |] in
  submit st [ i ];
  launch st (last_armed st);
  let m = txn st ~id:1 ~reads:[| 7 |] [| 6 |] and q = txn st ~id:2 [| 6 |] in
  let a = txn st ~id:3 ~reads:[| 5 |] [| 1 |] and a2 = txn st ~id:4 [| 1 |] in
  submit st [ m; q; a; a2 ];
  check counts "q waits on m's batch, a and a2 on i" (3, 0, 0) (counters st);
  bump st 7;
  bump st 5;
  resolve st (last_holder st);
  check counts "m and a abort, nobody re-queues" (3, 0, 2) (counters st);
  check ids "each waiter re-admitted once" [ 1; 1; 1 ] (waits [ q; a; a2 ]);
  check ids "q and a2 share the next instance" [ 2; 4 ]
    (snd (List.hd !(st.launched)))

(* Keys drawn as 9, 10, both held by launched instances: the waiter
   queues on the holder of k10, which sorts first by name. *)
let test_admission_name_order () =
  let st = admission ~keys:16 () in
  let w9 = txn st ~id:0 [| 9 |] and w10 = txn st ~id:1 [| 10 |] in
  submit st [ w9 ];
  launch st (last_armed st);
  let h9 = last_holder st in
  submit st [ w10 ];
  launch st (last_armed st);
  let h10 = last_holder st in
  let w = txn st ~id:2 [| 9; 10 |] in
  submit st [ w ];
  check counts "it waits" (1, 0, 0) (counters st);
  resolve st h9;
  check ids "the holder of k9 resolving leaves it queued" [ 0 ] (waits [ w ]);
  resolve st h10;
  check ids "the holder of k10 wakes it" [ 1 ] (waits [ w ]);
  check counts "and it queues no more" (1, 0, 0) (counters st)

(* A batch that fills launches before its window ends, so its window's
   timer is still queued; once its instance retires, its holder id serves
   a new batch. The old timer must not launch that batch: only the new
   batch's own timer does. *)
let test_admission_stale_window_timer () =
  let st = admission ~max_batch:2 () in
  submit st [ txn st ~id:0 [| 1 |]; txn st ~id:1 [| 2 |] ];
  let stale = last_armed st in
  check (Alcotest.list ids) "the batch filled and launched" [ [ 0; 1 ] ]
    (List.map snd !(st.launched));
  let h = last_holder st in
  resolve st h;
  submit st [ txn st ~id:2 [| 3 |] ];
  let fresh = last_armed st in
  check tint "the next batch reuses the holder id" h (fst fresh);
  launch st stale;
  check tint "the stale timer launches nothing" 1
    (List.length !(st.launched));
  launch st fresh;
  check (Alcotest.list ids) "the batch's own timer launches it"
    [ [ 2 ]; [ 0; 1 ] ]
    (List.map snd !(st.launched))

let () =
  let quick name fn = Alcotest.test_case name `Quick fn in
  let prop t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "svc"
    [
      ( "commit-service",
        [
          quick "nominal resolves all" test_nominal_resolves_all;
          quick "deterministic" test_deterministic;
          quick "pipelining" test_pipelining;
          quick "batching" test_batching;
          quick "2pc parks and recovers" test_two_pc_parks_and_recovers;
          quick "2pc parks without recovery"
            test_two_pc_parks_without_recovery;
          quick "no-recovery liveness regression"
            test_no_recovery_liveness_regression;
          quick "election accounting" test_election_accounting;
          quick "election then recovery reconciles"
            test_election_vs_recovery_reconciles;
          quick "failure-free instances commit"
            test_failure_free_instances_commit;
          quick "nominal run has no elections"
            test_nominal_run_has_no_elections;
          quick "inbac crash non-blocking" test_inbac_crash_non_blocking;
          quick "zipf-s passthrough" test_zipf_s_passthrough;
          quick "parallel arms byte-identical"
            test_parallel_arms_byte_identical;
          quick "spec validation" test_spec_validation;
          quick "golden arm bodies" test_golden_arm_bodies;
          quick "start-up allocation" test_startup_allocation;
          quick "uniform-shape allocation" test_uniform_allocation;
          quick "skewed-shape allocation" test_skewed_allocation;
          prop qcheck_election_differential;
        ] );
      ( "queued-admission",
        [
          quick "fifo fairness" test_queue_fifo_fairness;
          quick "drains across outage" test_queue_drains_across_outage;
          quick "drains with elections" test_queue_drains_with_elections;
          quick "queue accounting" test_queue_accounting;
          quick "streaming histograms from the threshold"
            test_streaming_histograms;
          prop qcheck_queue_deadlock_free;
          prop qcheck_admission_differential;
        ] );
      ( "admission",
        [
          quick "a re-admitted herd arms one batch" test_admission_herd;
          quick "a member leaving at launch unlocks"
            test_admission_leaver_unlocks;
          quick "a stale arrival locks nothing"
            test_admission_stale_locks_nothing;
          quick "an emptied batch re-admits each waiter once"
            test_admission_emptied_batch;
          quick "a waiter queues on its first held key by name"
            test_admission_name_order;
          quick "a filled batch's window timer stays inert"
            test_admission_stale_window_timer;
        ] );
      ( "history",
        [
          quick "clean sequence flips neither" test_history_clean;
          quick "retired instance still staging" test_history_retired_staging;
          quick "resolved shard still staging" test_history_resolved_staging;
          quick "disagreeing shards" test_history_disagreement;
        ] );
    ]
