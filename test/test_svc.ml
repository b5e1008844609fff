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
let fingerprint (s : Commit_service.stats) =
  ( ( s.Commit_service.transactions,
      s.Commit_service.committed,
      s.Commit_service.aborted,
      s.Commit_service.local_aborts,
      s.Commit_service.parked ),
    ( s.Commit_service.instances,
      s.Commit_service.retries,
      s.Commit_service.peak_in_flight,
      s.Commit_service.total_messages,
      s.Commit_service.staged_left ),
    s.Commit_service.makespan_delays )

let test_nominal_resolves_all () =
  List.iter
    (fun protocol ->
      let s = run protocol in
      check tint (protocol ^ " issued all") 200 s.Commit_service.transactions;
      check tint (protocol ^ " nothing parked") 0 s.Commit_service.parked;
      check tint (protocol ^ " staging drained") 0 s.Commit_service.staged_left;
      check tint (protocol ^ " accounted") 200
        (s.Commit_service.committed + s.Commit_service.aborted
       + s.Commit_service.local_aborts);
      check tbool (protocol ^ " commits") true (s.Commit_service.committed > 0);
      check tbool (protocol ^ " atomic") true s.Commit_service.atomicity_ok;
      check tbool (protocol ^ " agreement") true s.Commit_service.agreement_ok;
      let l = s.Commit_service.latency in
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
    (deep.Commit_service.peak_in_flight > 1);
  check tint "depth 1 serializes" 1 serial.Commit_service.peak_in_flight;
  check tint "serialized run still resolves" 0 serial.Commit_service.parked;
  check tbool "serialized run still atomic" true
    serial.Commit_service.atomicity_ok

let test_batching () =
  let batched = run "inbac" in
  let unbatched =
    run ~spec:{ small with Commit_service.max_batch = 1 } "inbac"
  in
  check tbool "co-resident transactions share instances" true
    (batched.Commit_service.mean_batch > 1.0);
  check tbool "max_batch 1 gives one txn per instance" true
    (unbatched.Commit_service.mean_batch = 1.0);
  check tbool "batching launches fewer instances" true
    (batched.Commit_service.instances < unbatched.Commit_service.instances)

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
  check tbool "parked instances re-ran" true (s.Commit_service.retries > 0);
  check tint "recovery drained every instance" 0 s.Commit_service.parked;
  check tint "no staging left" 0 s.Commit_service.staged_left;
  check tbool "commits resumed" true (s.Commit_service.committed > 0);
  check tbool "atomic across the outage" true s.Commit_service.atomicity_ok;
  check tbool "agreement across the outage" true s.Commit_service.agreement_ok

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
  check tbool "instances stay parked" true (s.Commit_service.parked > 0);
  check tbool "their writes stay staged" true
    (s.Commit_service.staged_left > 0);
  check tint "every issued txn accounted" s.Commit_service.transactions
    (s.Commit_service.committed + s.Commit_service.aborted
   + s.Commit_service.local_aborts + s.Commit_service.parked);
  check tbool "parked-not-installed is still atomic" true
    s.Commit_service.atomicity_ok

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
  check tint "no instance left parked" 0 s.Commit_service.parked;
  check tint "no staging left on live shards" 0 s.Commit_service.staged_left;
  check tbool "commits kept flowing past the outage" true
    (s.Commit_service.committed > 0);
  check tint "every issued txn accounted" s.Commit_service.transactions
    (s.Commit_service.committed + s.Commit_service.aborted
   + s.Commit_service.local_aborts);
  check tbool "atomic" true s.Commit_service.atomicity_ok;
  check tbool "agreement" true s.Commit_service.agreement_ok

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
  check tbool "elections happened" true (s.Commit_service.elections > 0);
  check tbool "stand-ins reached decisions" true (s.Commit_service.stolen > 0);
  check tbool "stolen bounded by elections" true
    (s.Commit_service.stolen <= s.Commit_service.elections);
  check tint "no recovery, no retries" 0 s.Commit_service.retries;
  check tbool "parked time recorded" true
    (s.Commit_service.time_parked.Histogram.count >= s.Commit_service.stolen);
  let tp = s.Commit_service.time_parked in
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
    (s.Commit_service.elections > 0);
  check tint "drained" 0 s.Commit_service.parked;
  check tint "no staging left anywhere after recovery" 0
    s.Commit_service.staged_left;
  check tint "accounted" s.Commit_service.transactions
    (s.Commit_service.committed + s.Commit_service.aborted
   + s.Commit_service.local_aborts);
  check tbool "atomic" true s.Commit_service.atomicity_ok;
  check tbool "agreement" true s.Commit_service.agreement_ok

let test_nominal_run_has_no_elections () =
  let s = run "inbac" in
  check tint "no outage, no elections" 0 s.Commit_service.elections;
  check tint "no outage, nothing stolen" 0 s.Commit_service.stolen;
  check tint "no outage, no parked time" 0
    s.Commit_service.time_parked.Histogram.count

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
  check tint "nothing parks" 0 s.Commit_service.parked;
  check tbool "pre-outage commits exist" true (s.Commit_service.committed > 0);
  check tbool "atomic" true s.Commit_service.atomicity_ok;
  check tbool "agreement" true s.Commit_service.agreement_ok

let test_zipf_s_passthrough () =
  let s = run ~spec:{ small with Commit_service.zipf_s = 1.25 } "inbac" in
  check (Alcotest.float 1e-9) "explicit exponent echoed" 1.25
    s.Commit_service.zipf_s;
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
  check tint "everything commits" s.Commit_service.transactions
    s.Commit_service.committed;
  check tint "nothing aborts under a generous budget" 0
    (s.Commit_service.aborted + s.Commit_service.local_aborts);
  check tbool "the hot key made transactions wait" true
    (s.Commit_service.queued > 0);
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
    (s.Commit_service.queued > 0);
  check tint "recovery drained everything" 0 s.Commit_service.parked;
  check tint "no staging left" 0 s.Commit_service.staged_left;
  check tint "accounted" s.Commit_service.transactions
    (s.Commit_service.committed + s.Commit_service.aborted
   + s.Commit_service.local_aborts);
  check tbool "atomic" true s.Commit_service.atomicity_ok;
  check tbool "agreement" true s.Commit_service.agreement_ok

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
    (s.Commit_service.queued > 0);
  check tbool "elections happened" true (s.Commit_service.elections > 0);
  check tint "drained" 0 s.Commit_service.parked;
  check tint "no staging left on live shards" 0 s.Commit_service.staged_left;
  check tbool "atomic" true s.Commit_service.atomicity_ok;
  check tbool "agreement" true s.Commit_service.agreement_ok

let test_queue_accounting () =
  (* hot-key run: the queue counters and derived gauges must be
     internally consistent, and the budget-0 twin must never queue *)
  let spec =
    { small with Commit_service.zipf_s = 1.2; Commit_service.keys = 32 }
  in
  let q = run ~spec "2pc" in
  check tbool "waiters recorded" true (q.Commit_service.queued > 0);
  check tbool "queue depth sampled per wait" true
    (q.Commit_service.queue_depth.Histogram.count >= q.Commit_service.queued);
  check (Alcotest.float 1e-9) "goodput is the committed fraction"
    (float_of_int q.Commit_service.committed
    /. float_of_int q.Commit_service.transactions)
    q.Commit_service.goodput;
  check tbool "allocation gauge is live" true
    (q.Commit_service.minor_words_per_txn > 0.0);
  let a = run ~spec:{ spec with Commit_service.wait_budget = 0 } "2pc" in
  check tint "budget 0 never queues" 0 a.Commit_service.queued;
  check tbool "queueing beats aborting on goodput" true
    (q.Commit_service.goodput > a.Commit_service.goodput)

let test_soak_mode_neutral () =
  (* soak mode swaps exact histograms for streaming ones and recycles
     aggressively; the simulation itself must be unchanged — every
     deterministic counter identical, percentiles still ordered *)
  let spec = { small with Commit_service.zipf_s = 0.8 } in
  let plain = run ~spec "2pc" in
  let soak = run ~spec:{ spec with Commit_service.soak = true } "2pc" in
  check tbool "soak changes no counter" true
    (fingerprint plain = fingerprint soak);
  check tint "same latency sample count"
    plain.Commit_service.latency.Histogram.count
    soak.Commit_service.latency.Histogram.count;
  let l = soak.Commit_service.latency in
  check tbool "streaming percentiles ordered" true
    (l.Histogram.p50 <= l.Histogram.p95
    && l.Histogram.p95 <= l.Histogram.p99
    && l.Histogram.p99 <= l.Histogram.max)

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
      s.Commit_service.parked = 0
      && s.Commit_service.staged_left = 0
      && s.Commit_service.committed + s.Commit_service.aborted
         + s.Commit_service.local_aborts
         = s.Commit_service.transactions
      && s.Commit_service.atomicity_ok
      && s.Commit_service.agreement_ok)

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
      sq.Commit_service.atomicity_ok && sq.Commit_service.agreement_ok
      && sa.Commit_service.atomicity_ok && sa.Commit_service.agreement_ok
      && sa.Commit_service.queued = 0
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
      s_on.Commit_service.parked = 0
      && s_off.Commit_service.parked = 0
      && s_on.Commit_service.atomicity_ok
      && s_off.Commit_service.atomicity_ok
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
  (* the bench runs its arms through Batch.run: the deterministic JSON
     body of every arm must come out byte-identical whether the arms run
     on one domain or four *)
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
        Commit_service.arm_json_body
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
       { small with Commit_service.outages = [ (2, 5 * u, Some (5 * u)) ] })

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
        {|"transactions": 1000, "committed": 423, "aborted": 433, "local_aborts": 144, "queued": 684, "parked": 0, "instances": 785, "retries": 0, "elections": 0, "stolen": 0, "mean_batch": 1.090446, "peak_in_flight": 15, "messages": 17544, "staged_left": 0, "abort_rate": 0.577000, "goodput": 0.423000, "zipf_s": 0.900000, "latency_delays": {"mean": 6.567650, "p50": 2.500000, "p95": 23.296000, "p99": 71.819000, "max": 109.373000}, "time_parked_delays": {"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}, "queue_depth": {"mean": 36.647732, "p50": 39.000000, "p95": 58.000000, "p99": 60.000000, "max": 62.000000}, "atomicity_ok": true, "agreement_ok": true|}
      );
      ( "2pc n=4 f=1, outages 1@5:40 and 3@60",
        ("2pc", 4, 1),
        {
          contended with
          Commit_service.outages =
            [ (1, 5 * u, Some (40 * u)); (3, 60 * u, None) ];
        },
        {|"transactions": 1000, "committed": 63, "aborted": 280, "local_aborts": 657, "queued": 449, "parked": 0, "instances": 287, "retries": 2, "elections": 20, "stolen": 20, "mean_batch": 1.195122, "peak_in_flight": 14, "messages": 1552, "staged_left": 0, "abort_rate": 0.937000, "goodput": 0.063000, "zipf_s": 0.900000, "latency_delays": {"mean": 9.770159, "p50": 4.003000, "p95": 35.628000, "p99": 50.093000, "max": 50.093000}, "time_parked_delays": {"mean": 13.041409, "p50": 14.000000, "p95": 14.000000, "p99": 14.000000, "max": 14.000000}, "queue_depth": {"mean": 36.649272, "p50": 40.000000, "p95": 54.000000, "p99": 59.000000, "max": 62.000000}, "atomicity_ok": true, "agreement_ok": true|}
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
        {|"transactions": 400, "committed": 112, "aborted": 275, "local_aborts": 13, "queued": 372, "parked": 0, "instances": 387, "retries": 0, "elections": 0, "stolen": 0, "mean_batch": 1.000000, "peak_in_flight": 18, "messages": 50310, "staged_left": 0, "abort_rate": 0.720000, "goodput": 0.280000, "zipf_s": 0.570462, "latency_delays": {"mean": 13.939098, "p50": 9.390000, "p95": 35.073000, "p99": 89.128000, "max": 164.000000}, "time_parked_delays": {"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}, "queue_depth": {"mean": 63.446980, "p50": 65.000000, "p95": 114.000000, "p99": 116.000000, "max": 118.000000}, "atomicity_ok": true, "agreement_ok": true|}
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
        {|"transactions": 2000, "committed": 1926, "aborted": 74, "local_aborts": 0, "queued": 33, "parked": 0, "instances": 443, "retries": 0, "elections": 0, "stolen": 0, "mean_batch": 4.514673, "peak_in_flight": 51, "messages": 8860, "staged_left": 0, "abort_rate": 0.037000, "goodput": 0.963000, "zipf_s": 0.000000, "latency_delays": {"mean": 2.295075, "p50": 2.294000, "p95": 2.500000, "p99": 2.500000, "max": 4.803000}, "time_parked_delays": {"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}, "queue_depth": {"mean": 2.636364, "p50": 2.000000, "p95": 5.000000, "p99": 6.000000, "max": 6.000000}, "atomicity_ok": true, "agreement_ok": true|}
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
        {|"transactions": 2000, "committed": 704, "aborted": 420, "local_aborts": 876, "queued": 748, "parked": 0, "instances": 836, "retries": 0, "elections": 541, "stolen": 541, "mean_batch": 1.344498, "peak_in_flight": 29, "messages": 5829, "staged_left": 0, "abort_rate": 0.648000, "goodput": 0.352000, "zipf_s": 0.570462, "latency_delays": {"mean": 16.878744, "p50": 14.793000, "p95": 29.668000, "p99": 64.410000, "max": 106.789000}, "time_parked_delays": {"mean": 14.000000, "p50": 14.000000, "p95": 14.000000, "p99": 14.000000, "max": 14.000000}, "queue_depth": {"mean": 63.695321, "p50": 69.000000, "p95": 97.000000, "p99": 110.000000, "max": 116.000000}, "atomicity_ok": true, "agreement_ok": true|}
      );
    ]
  in
  List.iter
    (fun (name, (protocol, n, f), spec, expected) ->
      let s = Commit_service.run ~protocol ~n ~f spec in
      check Alcotest.string name expected (Commit_service.arm_json_body s))
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
  check tint "the transaction ran" 1 s.Commit_service.transactions;
  check tbool
    (Printf.sprintf "%.0f minor words for one transaction over 2^20 keys"
       s.Commit_service.minor_words_per_txn)
    true
    (s.Commit_service.minor_words_per_txn <= 20000.0)

(* A commit instance allocates only what its protocol emits: on
   perfbench's uniform shape (INBAC n=5 f=2, no admission waits) a
   transaction costs ~580 minor words. Copying vote sets, a boxed Rng,
   INBAC's per-step rank lists and twice-wrapped service events read
   ~1130 here and fail the ceiling. *)
let test_uniform_allocation () =
  let s =
    Commit_service.run ~protocol:"inbac" ~n:5 ~f:2
      {
        Commit_service.default with
        Commit_service.clients = 256;
        txns = 2000;
        keys = 65536;
        zipf_s = 0.0;
      }
  in
  check tint "every transaction issued" 2000 s.Commit_service.transactions;
  check tint "none left unresolved" 0 s.Commit_service.parked;
  check tbool
    (Printf.sprintf "%.0f minor words/txn on the uniform shape"
       s.Commit_service.minor_words_per_txn)
    true
    (s.Commit_service.minor_words_per_txn <= 800.0)

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
          prop qcheck_election_differential;
        ] );
      ( "queued-admission",
        [
          quick "fifo fairness" test_queue_fifo_fairness;
          quick "drains across outage" test_queue_drains_across_outage;
          quick "drains with elections" test_queue_drains_with_elections;
          quick "queue accounting" test_queue_accounting;
          quick "soak mode neutral" test_soak_mode_neutral;
          prop qcheck_queue_deadlock_free;
          prop qcheck_admission_differential;
        ] );
    ]
