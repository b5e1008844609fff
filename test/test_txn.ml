(* Tests for the transactional KV substrate: the store's staging
   semantics, transaction validation, and the end-to-end system built on
   the commit protocols — including atomicity under random faults. *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let u = Sim_time.default_u

(* ------------------------------------------------------------------ *)
(* Kv_store *)

let test_store_versions () =
  let s = Kv_store.create () in
  check tbool "missing key" true (Kv_store.get s ~key:"a" = None);
  check tint "version 0 before any write" 0 (Kv_store.version s ~key:"a");
  Kv_store.stage s ~txn_id:"t" ~writes:[ ("a", "1") ];
  check tbool "staged not visible" true (Kv_store.get s ~key:"a" = None);
  check tbool "apply installs" true (Kv_store.apply s ~txn_id:"t");
  check tbool "value visible" true (Kv_store.get s ~key:"a" = Some ("1", 1));
  Kv_store.stage s ~txn_id:"t2" ~writes:[ ("a", "2") ];
  ignore (Kv_store.apply s ~txn_id:"t2");
  check tbool "version bumped" true (Kv_store.get s ~key:"a" = Some ("2", 2))

let test_store_discard () =
  let s = Kv_store.create () in
  Kv_store.stage s ~txn_id:"t" ~writes:[ ("a", "1") ];
  Kv_store.discard s ~txn_id:"t";
  check tbool "apply after discard is a no-op" false (Kv_store.apply s ~txn_id:"t");
  check tbool "nothing installed" true (Kv_store.get s ~key:"a" = None)

let test_store_restage_replaces () =
  let s = Kv_store.create () in
  Kv_store.stage s ~txn_id:"t" ~writes:[ ("a", "old") ];
  Kv_store.stage s ~txn_id:"t" ~writes:[ ("a", "new") ];
  ignore (Kv_store.apply s ~txn_id:"t");
  check tbool "second staging wins" true (Kv_store.get s ~key:"a" = Some ("new", 1))

let test_store_apply_atomic () =
  let s = Kv_store.create () in
  Kv_store.stage s ~txn_id:"t" ~writes:[ ("a", "1"); ("b", "2"); ("c", "3") ];
  ignore (Kv_store.apply s ~txn_id:"t");
  check (Alcotest.list Alcotest.string) "all keys installed" [ "a"; "b"; "c" ]
    (Kv_store.keys s)

(* ------------------------------------------------------------------ *)
(* Keyspace: the service's dense store *)

let test_keyspace_store () =
  let n = 3 in
  let ks = Keyspace.create ~n ~keys:64 in
  (* two keys on different shards *)
  let a = 0 in
  let b =
    let rec find k =
      if Keyspace.owner ks k <> Keyspace.owner ks a then k else find (k + 1)
    in
    find 1
  in
  let sa = Keyspace.owner ks a and sb = Keyspace.owner ks b in
  check tint "owner is the placement of the name"
    (Pid.index (Txn_system.placement_key ~n ("k" ^ string_of_int b)))
    sb;
  check (Alcotest.array tint) "owners: distinct, ascending"
    [| min sa sb; max sa sb |]
    (Keyspace.owners ks [| b; a; b; a |]);
  check (Alcotest.array tint) "owners of one shard's keys" [| sa |]
    (Keyspace.owners ks [| a; a |]);
  Keyspace.stage ks ~shard:sa ~txn:7 ~writes:[| a; b |];
  Keyspace.stage ks ~shard:sb ~txn:7 ~writes:[| a; b |];
  Keyspace.stage ks ~shard:sa ~txn:8 ~writes:[| a |];
  check tbool "staged at a's owner" true (Keyspace.staged ks ~shard:sa ~txn:7);
  check tint "two entries at a's owner" 2 (Keyspace.staged_count ks ~shard:sa);
  Keyspace.apply ks ~shard:sa ~txn:7;
  check tint "apply at a's owner bumps a" 1 (Keyspace.version ks a);
  check tint "and not b, owned elsewhere" 0 (Keyspace.version ks b);
  check tbool "entry gone" false (Keyspace.staged ks ~shard:sa ~txn:7);
  Keyspace.apply ks ~shard:sa ~txn:7;
  check tint "a second apply is a no-op" 1 (Keyspace.version ks a);
  Keyspace.apply ks ~shard:sb ~txn:7;
  check tint "b's owner installs b" 1 (Keyspace.version ks b);
  Keyspace.discard ks ~shard:sa ~txn:8;
  check tint "discard installs nothing" 1 (Keyspace.version ks a);
  check tint "drained" 0
    (Keyspace.staged_count ks ~shard:sa + Keyspace.staged_count ks ~shard:sb);
  Alcotest.match_raises "keys above max_keys"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (Keyspace.create ~n ~keys:(Keyspace.max_keys + 1)))

let name i = "k" ^ string_of_int i
let sign x = compare x 0

let prop_placement_index =
  let edges = [ 0; 1; 9; 10; 99; 100; 999_999; 1_000_000; 1 lsl 24 ] in
  QCheck.Test.make ~count:2000
    ~name:"placement_index = placement_key of the name"
    QCheck.(
      pair (oneof [ int_range 0 (1 lsl 24); oneofl edges ]) (int_range 2 70))
    (fun (i, n) ->
      Pid.equal (Txn_system.placement_index ~n i)
        (Txn_system.placement_key ~n (name i)))

let prop_name_order =
  (* indices of every digit count, plus pairs where one name is a prefix
     of the other *)
  let index =
    QCheck.(
      oneof
        [
          int_range 0 9;
          int_range 0 1000;
          int_range 0 (1 lsl 24);
          oneofl [ 0; 1; 4; 10; 40; 100; 400; 1_000; 4_000_000; max_int ];
        ])
  in
  QCheck.Test.make ~count:2000 ~name:"compare_names orders as String.compare"
    (QCheck.pair index index)
    (fun (a, b) ->
      sign (Keyspace.compare_names a b)
      = sign (String.compare (name a) (name b)))

let test_name_order_prefixes () =
  List.iter
    (fun (a, b) ->
      check tint
        (Printf.sprintf "%s vs %s" (name a) (name b))
        (sign (String.compare (name a) (name b)))
        (sign (Keyspace.compare_names a b)))
    [
      (4, 40); (40, 400); (4, 400); (400, 4); (0, 10); (10, 0); (1, 10);
      (10, 100); (1, 100); (100, 1); (9, 10); (19, 2); (2, 19); (7, 7);
    ];
  let keys = [| 400; 4; 10; 0; 40; 100; 1; 9; 19 |] in
  let by_name =
    List.sort
      (fun a b -> String.compare (name a) (name b))
      (Array.to_list keys)
  in
  Keyspace.sort_names keys;
  check (Alcotest.list tint) "sort_names is name order" by_name
    (Array.to_list keys)

(* ------------------------------------------------------------------ *)
(* Txn *)

let test_txn_validation () =
  Alcotest.match_raises "empty id"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (Txn.make ~id:"" ~writes:[] ()));
  Alcotest.match_raises "duplicate write"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (Txn.make ~id:"t" ~writes:[ ("a", "1"); ("a", "2") ] ()));
  let t =
    Txn.make ~id:"t" ~reads:[ ("a", 1) ] ~writes:[ ("b", "2"); ("a", "3") ] ()
  in
  check (Alcotest.list Alcotest.string) "keys" [ "a"; "b" ] (Txn.keys t)

(* ------------------------------------------------------------------ *)
(* Txn_system *)

let test_system_commit_and_read () =
  let db = Txn_system.create ~n:4 ~f:1 ~protocol:"inbac" () in
  let o =
    Txn_system.submit db (Txn.make ~id:"t1" ~writes:[ ("x", "7"); ("y", "8") ] ())
  in
  check tbool "committed" true (o.Txn_system.decision = Txn_system.Committed);
  check tbool "atomic" true o.Txn_system.atomic;
  check tbool "read through placement" true
    (Txn_system.read db ~key:"x" = Some ("7", 1));
  check tbool "read y" true (Txn_system.read db ~key:"y" = Some ("8", 1))

let test_system_stale_read_aborts () =
  let db = Txn_system.create ~n:4 ~f:1 ~protocol:"inbac" () in
  ignore (Txn_system.submit db (Txn.make ~id:"seed" ~writes:[ ("x", "1") ] ()));
  let stale = [ ("x", 0) ] in
  let o =
    Txn_system.submit db (Txn.make ~id:"t" ~reads:stale ~writes:[ ("x", "2") ] ())
  in
  check tbool "aborted on stale read" true
    (o.Txn_system.decision = Txn_system.Aborted);
  check tbool "atomic" true o.Txn_system.atomic;
  check tbool "value unchanged" true (Txn_system.read db ~key:"x" = Some ("1", 1))

let test_system_batch_conflict () =
  let db = Txn_system.create ~n:5 ~f:2 ~protocol:"inbac" () in
  ignore (Txn_system.submit db (Txn.make ~id:"seed" ~writes:[ ("k", "0") ] ()));
  let reads = Txn_system.snapshot_reads db [ "k" ] in
  let a = Txn.make ~id:"a" ~reads ~writes:[ ("k", "A") ] () in
  let b = Txn.make ~id:"b" ~reads ~writes:[ ("k", "B") ] () in
  match Txn_system.submit_batch db [ a; b ] with
  | [ oa; ob ] ->
      check tbool "first commits" true
        (oa.Txn_system.decision = Txn_system.Committed);
      check tbool "second aborts on the conflict" true
        (ob.Txn_system.decision = Txn_system.Aborted);
      check tbool "final value from the winner" true
        (Txn_system.read db ~key:"k" = Some ("A", 2))
  | _ -> Alcotest.fail "expected two outcomes"

let test_system_crash_recovery () =
  let db = Txn_system.create ~n:5 ~f:2 ~protocol:"inbac" () in
  let o =
    Txn_system.submit
      ~crashes:[ (Pid.of_rank 1, Scenario.Before u) ]
      db
      (Txn.make ~id:"t" ~writes:[ ("a", "1"); ("b", "2"); ("c", "3"); ("d", "4") ] ())
  in
  check tbool "committed despite the crash" true
    (o.Txn_system.decision = Txn_system.Committed);
  check tbool "atomic after recovery" true o.Txn_system.atomic;
  check tbool "crashed node recovered" true (o.Txn_system.recovered <> [])

let test_system_two_pc_blocks () =
  let db = Txn_system.create ~n:4 ~f:1 ~protocol:"2pc" () in
  let o =
    Txn_system.submit
      ~crashes:[ (Pid.of_rank 1, Scenario.Before u) ]
      db
      (Txn.make ~id:"t" ~writes:[ ("a", "1") ] ())
  in
  check tbool "blocked" true (o.Txn_system.decision = Txn_system.Blocked);
  check tbool "writes stay staged (recoverable)" true o.Txn_system.atomic;
  check tbool "nothing installed" true (Txn_system.read db ~key:"a" = None)

let test_system_placement_deterministic () =
  let db = Txn_system.create ~n:7 ~f:2 ~protocol:"inbac" () in
  List.iter
    (fun key ->
      check tbool "placement stable" true
        (Pid.equal (Txn_system.placement db key) (Txn_system.placement db key)))
    [ "a"; "zzz"; "user:42"; "" ]

let test_system_history () =
  let db = Txn_system.create ~n:4 ~f:1 ~protocol:"inbac" () in
  ignore (Txn_system.submit db (Txn.make ~id:"t1" ~writes:[ ("a", "1") ] ()));
  ignore (Txn_system.submit db (Txn.make ~id:"t2" ~writes:[ ("a", "2") ] ()));
  let h = Txn_system.history db in
  check tint "two outcomes" 2 (List.length h);
  check tbool "oldest first" true
    ((List.hd h).Txn_system.txn.Txn.id = "t1")

let prop_atomicity_under_faults =
  QCheck.Test.make ~count:100
    ~name:"atomicity holds for every protocol under random crashes"
    QCheck.(triple (int_range 0 3) small_int (int_range 4 7))
    (fun (proto_ix, seed, n) ->
      let protocol =
        List.nth [ "inbac"; "3pc"; "paxos-commit"; "(2n-2+f)nbac" ] proto_ix
      in
      let db = Txn_system.create ~seed ~n ~f:2 ~protocol () in
      let rng = Rng.create seed in
      ignore
        (Txn_system.submit db
           (Txn.make ~id:"seed"
              ~writes:[ ("a", "0"); ("b", "0"); ("c", "0"); ("d", "0") ]
              ()));
      let outcomes =
        List.init 4 (fun i ->
            let crashes =
              if Rng.bool rng then
                [
                  ( Pid.of_rank (1 + Rng.int rng ~bound:n),
                    Scenario.Before (Rng.int rng ~bound:(4 * u)) );
                ]
              else []
            in
            let reads = Txn_system.snapshot_reads db [ "a"; "b" ] in
            Txn_system.submit ~crashes db
              (Txn.make
                 ~id:(Printf.sprintf "t%d" i)
                 ~reads
                 ~writes:[ ("a", string_of_int i); ("c", string_of_int i) ]
                 ()))
      in
      List.for_all (fun o -> o.Txn_system.atomic) outcomes)

let test_recover_blocked_drains_staging () =
  let n = 4 in
  let db = Txn_system.create ~n ~f:1 ~protocol:"2pc" () in
  let o =
    Txn_system.submit
      ~crashes:[ (Pid.of_rank 1, Scenario.Before u) ]
      db
      (Txn.make ~id:"t" ~writes:[ ("a", "1"); ("b", "2"); ("c", "3") ] ())
  in
  check tbool "blocked first" true (o.Txn_system.decision = Txn_system.Blocked);
  let staged_somewhere () =
    List.exists
      (fun pid -> Kv_store.staged_ids (Txn_system.node_store db pid) <> [])
      (Pid.all ~n)
  in
  check tbool "writes staged while blocked" true (staged_somewhere ());
  (match Txn_system.recover_blocked db ~txn_id:"t" with
  | None -> Alcotest.fail "expected a recovery outcome"
  | Some r ->
      check tbool "resolved" true (r.Txn_system.decision = Txn_system.Committed);
      check tbool "atomic" true r.Txn_system.atomic;
      check tbool "staged nodes recorded" true (r.Txn_system.recovered <> []));
  check tbool "staging drained everywhere" false (staged_somewhere ());
  check tbool "writes installed" true
    (Txn_system.read db ~key:"a" = Some ("1", 1));
  check tbool "second recovery is a no-op" true
    (Txn_system.recover_blocked db ~txn_id:"t" = None);
  check tbool "unknown id is a no-op" true
    (Txn_system.recover_blocked db ~txn_id:"nope" = None);
  check tint "resolution appended to history" 2
    (List.length (Txn_system.history db))

(* Satellite: submit_batch under combined crash + network-failure
   injection. Protocols that stay safe under eventual synchrony must keep
   every round atomic, and — everything being seeded — the decision
   sequence must replay identically, with the conflicting transactions
   (same read snapshot, same write key) aborting the same way. *)
let prop_batch_atomicity_under_combined_faults =
  QCheck.Test.make ~count:60
    ~name:"submit_batch atomic and deterministic under crash + network faults"
    QCheck.(pair (int_range 0 1) small_int)
    (fun (proto_ix, seed) ->
      let protocol = List.nth [ "paxos-commit"; "(2n-2+f)nbac" ] proto_ix in
      let n = 5 in
      let run () =
        let db = Txn_system.create ~seed ~n ~f:2 ~protocol () in
        ignore
          (Txn_system.submit db
             (Txn.make ~id:"seed"
                ~writes:[ ("a", "0"); ("b", "0"); ("c", "0") ]
                ()));
        let rng = Rng.create (seed + 1) in
        let crashes =
          if Rng.bool rng then
            [
              ( Pid.of_rank (1 + Rng.int rng ~bound:n),
                Scenario.Before (Rng.int rng ~bound:(4 * u)) );
            ]
          else []
        in
        let network =
          Network.eventually_synchronous ~u
            ~gst:((2 + Rng.int rng ~bound:6) * u)
            ~max_early_delay:(2 * u)
        in
        let reads = Txn_system.snapshot_reads db [ "a"; "b" ] in
        let txns =
          List.init 4 (fun i ->
              Txn.make
                ~id:(Printf.sprintf "t%d" i)
                ~reads
                ~writes:[ ("a", string_of_int i); ("c", string_of_int i) ]
                ())
        in
        Txn_system.submit_batch ~crashes ~network db txns
      in
      let a = run () and b = run () in
      let decisions os = List.map (fun o -> o.Txn_system.decision) os in
      List.for_all (fun o -> o.Txn_system.atomic) a
      && decisions a = decisions b
      && List.length
           (List.filter (fun d -> d = Txn_system.Committed) (decisions a))
         <= 1)

(* ------------------------------------------------------------------ *)
(* Workload *)

let test_workload_protocol_independent_aborts () =
  let spec = { Workload.default with Workload.batches = 8 } in
  let results =
    Workload.protocol_comparison ~protocols:[ "inbac"; "2pc"; "3pc" ] ~n:5
      ~f:2 spec
  in
  match results with
  | (_, first) :: rest ->
      List.iter
        (fun (p, s) ->
          check tint (p ^ " same aborts as inbac") first.Workload.aborted
            s.Workload.aborted;
          check tbool (p ^ " atomic") true s.Workload.atomicity_ok)
        rest
  | [] -> Alcotest.fail "no results"

let test_workload_messages_match_formula () =
  (* every commit round of the workload is a failure-free run: messages
     per transaction equal the protocol's closed form *)
  let n = 5 and f = 2 in
  let spec = { Workload.default with Workload.batches = 6 } in
  List.iter
    (fun protocol ->
      let db = Txn_system.create ~n ~f ~protocol () in
      let s = Workload.run db spec in
      let expected =
        (Complexity.find_exn protocol).Complexity.messages ~n ~f
        * s.Workload.transactions
      in
      check tint (protocol ^ " total messages") expected s.Workload.total_messages)
    [ "inbac"; "2pc"; "paxos-commit" ]

let test_workload_contention_monotone_at_extremes () =
  let sweep =
    Workload.contention_sweep ~protocol:"inbac" ~n:5 ~f:2
      ~hot_fractions:[ 0.0; 1.0 ]
  in
  match sweep with
  | [ (_, cold); (_, hot) ] ->
      check tbool "full contention aborts more" true
        (hot.Workload.abort_rate > cold.Workload.abort_rate);
      check tbool "all accounted" true
        (hot.Workload.committed + hot.Workload.aborted + hot.Workload.blocked
        = hot.Workload.transactions)
  | _ -> Alcotest.fail "expected two sweep points"

let test_workload_crash_injection_stays_atomic () =
  let spec =
    {
      Workload.default with
      Workload.batches = 10;
      Workload.crash_probability = 0.5;
    }
  in
  let db = Txn_system.create ~n:5 ~f:2 ~protocol:"inbac" () in
  let s = Workload.run db spec in
  check tbool "atomicity under crash injection" true s.Workload.atomicity_ok;
  check tint "nothing blocked (INBAC terminates)" 0 s.Workload.blocked

let test_workload_determinism () =
  let stats () =
    let db = Txn_system.create ~n:5 ~f:2 ~protocol:"inbac" () in
    Workload.run db { Workload.default with Workload.batches = 5 }
  in
  check tbool "same seed, same stats" true (stats () = stats ())

(* ------------------------------------------------------------------ *)
(* Zipf key popularity + distinct_keys (satellite: termination/bias) *)

let test_zipf_construction () =
  Alcotest.match_raises "keys < 1"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (Workload.Zipf.make ~keys:0 ~s:1.0));
  let d = Workload.Zipf.make ~keys:16 ~s:(-3.0) in
  check (Alcotest.float 1e-9) "negative s clamps to uniform" 0.0
    (Workload.Zipf.s d);
  let d = Workload.Zipf.make ~keys:16 ~s:Float.nan in
  check (Alcotest.float 1e-9) "nan s clamps to uniform" 0.0
    (Workload.Zipf.s d);
  let u16 = Workload.Zipf.uniform ~keys:16 in
  check (Alcotest.float 1e-9) "uniform top-4 mass" 0.25
    (Workload.Zipf.mass_top u16 4);
  check (Alcotest.float 1e-9) "mass of nothing" 0.0
    (Workload.Zipf.mass_top u16 0);
  check (Alcotest.float 1e-9) "mass of everything" 1.0
    (Workload.Zipf.mass_top u16 16)

let test_zipf_of_hot_inverts () =
  (* the legacy alias solves for the exponent whose top-h mass matches *)
  List.iter
    (fun (hot_keys, hot_fraction) ->
      let d = Workload.Zipf.of_hot ~keys:64 ~hot_keys ~hot_fraction in
      check (Alcotest.float 1e-3)
        (Printf.sprintf "top-%d mass inverts %.2f" hot_keys hot_fraction)
        hot_fraction
        (Workload.Zipf.mass_top d hot_keys))
    [ (4, 0.5); (8, 0.3); (16, 0.9); (2, 0.2) ];
  let d = Workload.Zipf.of_hot ~keys:64 ~hot_keys:4 ~hot_fraction:0.01 in
  check (Alcotest.float 1e-9) "sub-uniform request clamps to uniform" 0.0
    (Workload.Zipf.s d)

let prop_zipf_draws_in_range_and_skewed =
  QCheck.Test.make ~count:100 ~name:"zipf draws in range, mass matches CDF"
    QCheck.(triple small_int (int_range 2 128) (int_range 0 30))
    (fun (seed, keys, s10) ->
      let s = float_of_int s10 /. 10.0 in
      let d = Workload.Zipf.make ~keys ~s in
      let rng = Rng.create seed in
      let draws = 2000 in
      let h = max 1 (keys / 4) in
      let in_top = ref 0 in
      let ok = ref true in
      for _ = 1 to draws do
        let i = Workload.Zipf.index d rng in
        if i < 0 || i >= keys then ok := false;
        if i < h then incr in_top
      done;
      let expect = Workload.Zipf.mass_top d h in
      let got = float_of_int !in_top /. float_of_int draws in
      (* 2000 draws: the empirical top-quartile mass sits within a wide
         tolerance of the analytic CDF mass *)
      !ok && Float.abs (got -. expect) < 0.06)

(* The s = 0 draw against the CDF a table-building Zipf would hold
   (accumulated 1/(i+1)^0, normalized, last entry 1) and a binary search
   over it: at seeded variates, at every boundary value fl(i/keys) and its
   neighbours, and for [mass_top] at every h. *)
let reference_cdf keys =
  let cdf = Array.make keys 0.0 in
  let acc = ref 0.0 in
  for i = 0 to keys - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) 0.0);
    cdf.(i) <- !acc
  done;
  let total = !acc in
  Array.iteri (fun i c -> cdf.(i) <- c /. total) cdf;
  cdf.(keys - 1) <- 1.0;
  cdf

let reference_rank cdf r =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < r then lo := mid + 1 else hi := mid
  done;
  !lo

(* every exponent in [exps] clamps to the closed-form draw *)
let uniform_draw_matches ~keys ~exps ~seed =
  let cdf = reference_cdf keys in
  let ds = List.map (fun s -> Workload.Zipf.make ~keys ~s) exps in
  let agrees r =
    let expect = reference_rank cdf r in
    List.for_all (fun d -> Workload.Zipf.rank d r = expect) ds
  in
  let ok = ref (List.for_all (fun d -> Workload.Zipf.s d = 0.0) ds) in
  for h = -1 to keys + 1 do
    let expect =
      if h <= 0 then 0.0 else if h >= keys then 1.0 else cdf.(h - 1)
    in
    if List.exists (fun d -> Workload.Zipf.mass_top d h <> expect) ds then
      ok := false
  done;
  for i = 0 to keys do
    let r = float_of_int i /. float_of_int keys in
    if not (agrees r && agrees (Float.pred r) && agrees (Float.succ r)) then
      ok := false
  done;
  List.iter
    (fun d ->
      let rng = Rng.create seed and shadow = Rng.create seed in
      for _ = 1 to 500 do
        if Workload.Zipf.index d rng <> reference_rank cdf (Rng.float shadow)
        then ok := false
      done)
    ds;
  !ok

let uniform_exponents = [ 0.0; -0.0; Float.nan; -1.0 ]

let test_uniform_draw_pinned_sizes () =
  List.iter
    (fun keys ->
      check tbool
        (Printf.sprintf "keys %d" keys)
        true
        (uniform_draw_matches ~keys ~exps:uniform_exponents ~seed:keys))
    [ 1; 2; 3; 10; 64; 65536; 1 lsl 20 ]

let prop_uniform_draw =
  QCheck.Test.make ~count:100 ~name:"s = 0 draw = binary search over its CDF"
    QCheck.(triple (int_range 1 5000) (oneofl uniform_exponents) small_int)
    (fun (keys, s, seed) -> uniform_draw_matches ~keys ~exps:[ s ] ~seed)

let prop_distinct_keys_unique_and_terminates =
  QCheck.Test.make ~count:200
    ~name:"distinct_keys: distinct, in range, terminates at every count"
    QCheck.(
      quad small_int (int_range 1 48) (int_range 0 60) (int_range 0 80))
    (fun (seed, keys, count, s10) ->
      (* count deliberately ranges past keys; s up to 8 covers the heavy
         skew where rejection alone would stall on the tail *)
      let d = Workload.Zipf.make ~keys ~s:(float_of_int s10 /. 10.0) in
      let rng = Rng.create seed in
      let picked = Workload.distinct_keys ~dist:d ~count rng in
      let expect = max 0 (min count keys) in
      List.length picked = expect
      && List.length (List.sort_uniq String.compare picked) = expect
      && List.for_all
           (fun k ->
             String.length k > 1
             && k.[0] = 'k'
             &&
             match int_of_string_opt (String.sub k 1 (String.length k - 1)) with
             | Some i -> i >= 0 && i < keys
             | None -> false)
           picked)

let test_distinct_keys_edge_counts () =
  let d = Workload.Zipf.make ~keys:8 ~s:1.0 in
  let rng = Rng.create 1 in
  check tint "count 0 is empty" 0
    (List.length (Workload.distinct_keys ~dist:d ~count:0 rng));
  check tint "negative count clamps to empty" 0
    (List.length (Workload.distinct_keys ~dist:d ~count:(-3) rng));
  check tint "count beyond keys clamps to keys" 8
    (List.length (Workload.distinct_keys ~dist:d ~count:100 rng));
  (* hot_keys = 0 must not loop: the legacy alias degenerates to uniform *)
  let d0 = Workload.Zipf.of_hot ~keys:8 ~hot_keys:0 ~hot_fraction:0.9 in
  check tint "hot_keys 0 still draws" 4
    (List.length (Workload.distinct_keys ~dist:d0 ~count:4 rng))

(* ------------------------------------------------------------------ *)
(* Histogram percentile pins (satellite: empty/single-sample inputs) *)

let test_histogram_empty_and_single () =
  let h = Histogram.create () in
  let s = Histogram.summary h in
  check tint "empty count" 0 s.Histogram.count;
  check tbool "empty mean is nan" true (Float.is_nan s.Histogram.mean);
  check tbool "empty p50 is nan" true (Float.is_nan s.Histogram.p50);
  check tbool "empty p99 is nan" true (Float.is_nan s.Histogram.p99);
  check tbool "empty max is nan" true (Float.is_nan s.Histogram.max);
  Histogram.add h 42.0;
  let s = Histogram.summary h in
  check tint "single count" 1 s.Histogram.count;
  let f = Alcotest.float 1e-9 in
  check f "single mean" 42.0 s.Histogram.mean;
  check f "single p50" 42.0 s.Histogram.p50;
  check f "single p95" 42.0 s.Histogram.p95;
  check f "single p99" 42.0 s.Histogram.p99;
  check f "single max" 42.0 s.Histogram.max;
  check f "percentile 0 of one sample" 42.0 (Histogram.percentile h 0.0);
  check f "percentile 1 of one sample" 42.0 (Histogram.percentile h 1.0)

let test_histogram_percentile_bounds () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.match_raises "q > 1"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (Histogram.percentile h 1.5));
  Alcotest.match_raises "q < 0"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (Histogram.percentile h (-0.1)));
  let s = Histogram.summary h in
  check tbool "percentiles ordered" true
    (s.Histogram.p50 <= s.Histogram.p95
    && s.Histogram.p95 <= s.Histogram.p99
    && s.Histogram.p99 <= s.Histogram.max)

(* Heavy duplicates: selection settles a run of equal samples in one
   three-way partition, so 200 000 samples of one or two values summarize
   at the sorted reference's ranks without a quadratic pass. *)
let test_histogram_all_equal () =
  let h = Histogram.create () in
  for _ = 1 to 200_000 do
    Histogram.add h 7.0
  done;
  let s = Histogram.summary h in
  let f = Alcotest.float 1e-9 in
  check tint "count" 200_000 s.Histogram.count;
  check f "mean" 7.0 s.Histogram.mean;
  check f "p50" 7.0 s.Histogram.p50;
  check f "p95" 7.0 s.Histogram.p95;
  check f "p99" 7.0 s.Histogram.p99;
  check f "max" 7.0 s.Histogram.max;
  check f "percentile 0" 7.0 (Histogram.percentile h 0.0)

let test_histogram_two_valued () =
  (* every 25th sample is 3.0, the rest 1.0: sorted, ranks 0..191999
     hold 1.0 and 192000..199999 hold 3.0 *)
  let h = Histogram.create () in
  for i = 0 to 199_999 do
    Histogram.add h (if i mod 25 = 0 then 3.0 else 1.0)
  done;
  let s = Histogram.summary h in
  let f = Alcotest.float 1e-9 in
  check tint "count" 200_000 s.Histogram.count;
  check f "mean" 1.08 s.Histogram.mean;
  check f "p50" 1.0 s.Histogram.p50;
  check f "p95 (rank 190000)" 1.0 s.Histogram.p95;
  check f "p99 (rank 198000)" 3.0 s.Histogram.p99;
  check f "max" 3.0 s.Histogram.max;
  check f "percentile 0.5" 1.0 (Histogram.percentile h 0.5);
  check f "percentile 1" 3.0 (Histogram.percentile h 1.0)

(* Streaming histogram (soak mode): constant-memory fixed-bin percentiles.
   Same interface as the exact variant; percentiles report the covering
   bin's upper edge clamped to the observed maximum, so the error is
   bounded by one bin width. *)

let test_streaming_construction () =
  Alcotest.match_raises "bins < 1"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (Histogram.streaming ~bins:0 ~max:10.0));
  Alcotest.match_raises "max <= 0"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (Histogram.streaming ~bins:16 ~max:0.0))

let test_streaming_empty_and_single () =
  let h = Histogram.streaming ~bins:100 ~max:100.0 in
  let s = Histogram.summary h in
  check tint "empty count" 0 s.Histogram.count;
  check tbool "empty mean is nan" true (Float.is_nan s.Histogram.mean);
  check tbool "empty p50 is nan" true (Float.is_nan s.Histogram.p50);
  check tbool "empty p99 is nan" true (Float.is_nan s.Histogram.p99);
  check tbool "empty max is nan" true (Float.is_nan s.Histogram.max);
  check tbool "empty percentile is nan" true
    (Float.is_nan (Histogram.percentile h 0.5));
  Histogram.add h 42.0;
  let s = Histogram.summary h in
  let f = Alcotest.float 1e-9 in
  check tint "single count" 1 s.Histogram.count;
  check f "single mean" 42.0 s.Histogram.mean;
  (* the covering bin's upper edge is 43, clamped to the observed max *)
  check f "single p50 clamps to the sample" 42.0 s.Histogram.p50;
  check f "single p99 clamps to the sample" 42.0 s.Histogram.p99;
  check f "single max" 42.0 s.Histogram.max

let test_streaming_overflow () =
  let h = Histogram.streaming ~bins:100 ~max:100.0 in
  Histogram.add h 42.0;
  Histogram.add h 1.0e9;
  let s = Histogram.summary h in
  let f = Alcotest.float 1e-9 in
  (* the overflow sample reports the observed maximum exactly, and the
     in-range percentile reports its bin's upper edge *)
  check f "p50 is the covering bin's upper edge" 43.0 s.Histogram.p50;
  check f "p99 walks into the overflow bin" 1.0e9 s.Histogram.p99;
  check f "max is exact" 1.0e9 s.Histogram.max;
  check f "mean is exact" ((42.0 +. 1.0e9) /. 2.0) s.Histogram.mean

let prop_streaming_bounded_error =
  let gen =
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 200) (float_bound_inclusive 100.0))
        (int_range 4 64))
  in
  QCheck.Test.make ~count:100
    ~name:"streaming percentiles within one bin width of exact" gen
    (fun (samples, bins) ->
      let bound = 100.0 in
      let width = bound /. float_of_int bins in
      let exact = Histogram.create () in
      let stream = Histogram.streaming ~bins ~max:bound in
      List.iter
        (fun x ->
          Histogram.add exact x;
          Histogram.add stream x)
        samples;
      let se = Histogram.summary exact and ss = Histogram.summary stream in
      let close e s = s >= e -. 1e-9 && s <= e +. width +. 1e-9 in
      Histogram.count stream = Histogram.count exact
      && Float.abs (ss.Histogram.mean -. se.Histogram.mean) < 1e-6
      && ss.Histogram.max = se.Histogram.max
      && close se.Histogram.p50 ss.Histogram.p50
      && close se.Histogram.p95 ss.Histogram.p95
      && close se.Histogram.p99 ss.Histogram.p99
      && ss.Histogram.p50 <= ss.Histogram.p95
      && ss.Histogram.p95 <= ss.Histogram.p99
      && ss.Histogram.p99 <= ss.Histogram.max)

(* The exact summary against a reference built on [List.sort compare]:
   samples from a small set of values (so most are duplicates), sizes on
   both sides of the sort's small-run cutoff. *)
let prop_exact_summary_matches_reference =
  let gen =
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 400) (int_range (-8) 24))
        (float_bound_inclusive 1.0))
  in
  QCheck.Test.make ~count:200
    ~name:"exact summary equals a sorted-list nearest-rank reference" gen
    (fun (ints, q) ->
      let samples = List.map (fun i -> float_of_int i /. 4.0) ints in
      let h = Histogram.create ~capacity:4 () in
      List.iter (Histogram.add h) samples;
      let sorted = Array.of_list (List.sort compare samples) in
      let n = Array.length sorted in
      let nearest q =
        if n = 0 then Float.nan
        else
          let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
          sorted.(max 0 (min (n - 1) (rank - 1)))
      in
      let same a b = (Float.is_nan a && Float.is_nan b) || a = b in
      let s = Histogram.summary h in
      s.Histogram.count = n
      && same s.Histogram.mean
           (if n = 0 then Float.nan
            else Array.fold_left ( +. ) 0.0 sorted /. float_of_int n)
      && same s.Histogram.p50 (nearest 0.50)
      && same s.Histogram.p95 (nearest 0.95)
      && same s.Histogram.p99 (nearest 0.99)
      && same s.Histogram.max (if n = 0 then Float.nan else sorted.(n - 1))
      && same (Histogram.percentile h q) (nearest q))

let () =
  let quick name fn = Alcotest.test_case name `Quick fn in
  let prop t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "txn"
    [
      ( "kv-store",
        [
          quick "versions" test_store_versions;
          quick "discard" test_store_discard;
          quick "restage replaces" test_store_restage_replaces;
          quick "apply atomic" test_store_apply_atomic;
        ] );
      ( "keyspace",
        [
          quick "dense store" test_keyspace_store;
          quick "name order prefixes" test_name_order_prefixes;
          prop prop_placement_index;
          prop prop_name_order;
        ] );
      ("txn", [ quick "validation" test_txn_validation ]);
      ( "system",
        [
          quick "commit and read" test_system_commit_and_read;
          quick "stale read aborts" test_system_stale_read_aborts;
          quick "batch conflict" test_system_batch_conflict;
          quick "crash recovery" test_system_crash_recovery;
          quick "2pc blocks" test_system_two_pc_blocks;
          quick "placement deterministic" test_system_placement_deterministic;
          quick "history" test_system_history;
          quick "recover blocked drains staging"
            test_recover_blocked_drains_staging;
          prop prop_atomicity_under_faults;
          prop prop_batch_atomicity_under_combined_faults;
        ] );
      ( "workload",
        [
          quick "protocol-independent aborts"
            test_workload_protocol_independent_aborts;
          quick "messages match formula" test_workload_messages_match_formula;
          quick "contention extremes" test_workload_contention_monotone_at_extremes;
          quick "crash injection atomic" test_workload_crash_injection_stays_atomic;
          quick "determinism" test_workload_determinism;
        ] );
      ( "zipf",
        [
          quick "construction" test_zipf_construction;
          quick "of_hot inverts" test_zipf_of_hot_inverts;
          quick "distinct_keys edge counts" test_distinct_keys_edge_counts;
          quick "uniform draw at pinned sizes" test_uniform_draw_pinned_sizes;
          prop prop_zipf_draws_in_range_and_skewed;
          prop prop_uniform_draw;
          prop prop_distinct_keys_unique_and_terminates;
        ] );
      ( "histogram",
        [
          quick "empty and single sample" test_histogram_empty_and_single;
          quick "percentile bounds" test_histogram_percentile_bounds;
          quick "200000 equal samples" test_histogram_all_equal;
          quick "200000 two-valued samples" test_histogram_two_valued;
          quick "streaming construction" test_streaming_construction;
          quick "streaming empty and single" test_streaming_empty_and_single;
          quick "streaming overflow" test_streaming_overflow;
          prop prop_streaming_bounded_error;
          prop prop_exact_summary_matches_reference;
        ] );
    ]
