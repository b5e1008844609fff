(* Unit and property tests for ac_kernel: pids, votes, time, RNG, traces. *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Pid *)

let test_pid_roundtrip () =
  for i = 1 to 20 do
    check tint "rank roundtrip" i (Pid.rank (Pid.of_rank i));
    check tint "index roundtrip" (i - 1) (Pid.index (Pid.of_rank i))
  done

let test_pid_invalid () =
  Alcotest.check_raises "of_rank 0" (Invalid_argument "Pid.of_rank: rank must be >= 1")
    (fun () -> ignore (Pid.of_rank 0));
  Alcotest.check_raises "of_index -1"
    (Invalid_argument "Pid.of_index: negative index") (fun () ->
      ignore (Pid.of_index (-1)))

let test_pid_all () =
  let pids = Pid.all ~n:4 in
  check tint "four pids" 4 (List.length pids);
  check (Alcotest.list tint) "ranks in order" [ 1; 2; 3; 4 ]
    (List.map Pid.rank pids)

let test_pid_others () =
  let p2 = Pid.of_rank 2 in
  check (Alcotest.list tint) "others excludes self" [ 1; 3; 4 ]
    (List.map Pid.rank (Pid.others ~n:4 p2))

let test_pid_ring () =
  let n = 5 in
  check tint "successor wraps" 1 (Pid.rank (Pid.successor ~n (Pid.of_rank 5)));
  check tint "predecessor wraps" 5
    (Pid.rank (Pid.predecessor ~n (Pid.of_rank 1)));
  List.iter
    (fun p ->
      check tbool "pred . succ = id" true
        (Pid.equal p (Pid.predecessor ~n (Pid.successor ~n p))))
    (Pid.all ~n)

let test_pid_pp () =
  check Alcotest.string "pretty prints rank" "P3" (Pid.to_string (Pid.of_rank 3))

(* ------------------------------------------------------------------ *)
(* Vote *)

let test_vote_logand () =
  let open Vote in
  check tbool "1&1" true (equal (logand yes yes) yes);
  check tbool "1&0" true (equal (logand yes no) no);
  check tbool "0&1" true (equal (logand no yes) no);
  check tbool "0&0" true (equal (logand no no) no)

let test_vote_conversions () =
  check tint "yes = 1" 1 (Vote.to_int Vote.yes);
  check tint "no = 0" 0 (Vote.to_int Vote.no);
  check tbool "of_int 1" true (Vote.equal (Vote.of_int 1) Vote.yes);
  check tbool "of_bool false" true (Vote.equal (Vote.of_bool false) Vote.no);
  Alcotest.check_raises "of_int 2"
    (Invalid_argument "Vote.of_int: 2 is not a vote") (fun () ->
      ignore (Vote.of_int 2))

let test_vote_decision () =
  check tbool "yes -> commit" true
    (Vote.decision_equal (Vote.decision_of_vote Vote.yes) Vote.commit);
  check tbool "no -> abort" true
    (Vote.decision_equal (Vote.decision_of_vote Vote.no) Vote.abort);
  check tint "commit = 1" 1 (Vote.decision_to_int Vote.commit);
  check tbool "roundtrip" true
    (Vote.equal (Vote.vote_of_decision (Vote.decision_of_vote Vote.no)) Vote.no)

let test_vote_all_yes () =
  check tbool "empty" true (Vote.all_yes []);
  check tbool "all yes" true (Vote.all_yes [ Vote.yes; Vote.yes ]);
  check tbool "one no" false (Vote.all_yes [ Vote.yes; Vote.no ])

(* ------------------------------------------------------------------ *)
(* Sim_time *)

let test_time_delays () =
  let u = 1000 in
  check tint "of_delays" 3000 (Sim_time.of_delays ~u 3);
  check (Alcotest.float 1e-9) "delays" 2.5 (Sim_time.delays ~u 2500)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check tbool "same stream" true (Int64.equal (Rng.next64 a) (Rng.next64 b))
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 7 and b = Rng.create 8 in
  let va = List.init 10 (fun _ -> Rng.next64 a) in
  let vb = List.init 10 (fun _ -> Rng.next64 b) in
  check tbool "different seeds differ" false (va = vb)

let test_rng_copy () =
  let a = Rng.create 13 in
  ignore (Rng.next64 a);
  let b = Rng.copy a in
  check tbool "copy continues identically" true
    (Int64.equal (Rng.next64 a) (Rng.next64 b))

let test_rng_invalid () =
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int (Rng.create 1) ~bound:0))

(* The splitmix64 stream, pinned. Every seeded run (the service goldens,
   the sweep goldens, randomized scenarios) is a function of these draws,
   so a change to the generator's representation must leave them
   bit-identical. *)
let t64 = Alcotest.testable (fun ppf v -> Format.fprintf ppf "0x%016LX" v) Int64.equal

let test_rng_stream_pinned () =
  List.iter
    (fun (seed, expect) ->
      let r = Rng.create seed in
      List.iter (fun v -> check t64 (Printf.sprintf "seed %d" seed) v (Rng.next64 r)) expect)
    [
      (0, [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ]);
      (1, [ 0xBFEF8030DDC2D772L; 0x5F552CE482F2AA47L; 0x70335FC3DAF3D8A7L ]);
      (7, [ 0x863B891F4C0ABD4FL; 0x4D58FBD282EAF415L; 0xF0E521070CC03750L ]);
      (-42, [ 0xD5A48CF7B485659BL; 0x7DB2965C555FA7FFL; 0xEB13177AD3A7F71FL ]);
      (max_int, [ 0x2DE2CE032C245FA7L; 0xAF69910C113799ACL; 0xC214C2E0626FF3EFL ]);
      (min_int, [ 0x8A9ADB5311FF9A1DL; 0xD05052FCB0254D35L; 0xD08C0673099E7A4FL ]);
    ]

let test_rng_derived_pinned () =
  let r = Rng.create 11 in
  let draws k f = List.init k (fun _ -> f ()) in
  check (Alcotest.list tint) "int ~bound:1000" [ 933; 177; 855; 389; 820; 174 ]
    (draws 6 (fun () -> Rng.int r ~bound:1000));
  check (Alcotest.list tint) "int ~bound:max_int"
    [ 2349901733149696068; 4517149598208011243 ]
    (draws 2 (fun () -> Rng.int r ~bound:max_int));
  check (Alcotest.list tint) "int_in -5..5" [ 0; -3; 0; -5; -1; 5 ]
    (draws 6 (fun () -> Rng.int_in r ~lo:(-5) ~hi:5));
  check (Alcotest.list (Alcotest.float 0.0)) "float"
    [ 0x1.787c9042bb5eap-1; 0x1.6b7003dbb45d8p-4; 0x1.22f0021db2153p-1; 0x1.742c8c417454bp-1 ]
    (draws 4 (fun () -> Rng.float r));
  check (Alcotest.list tbool) "bool"
    [ true; false; true; false; true; true; false; false; true; false; false; true ]
    (draws 12 (fun () -> Rng.bool r));
  let s = Rng.create 3 in
  check (Alcotest.list tint) "shuffle" [ 2; 5; 6; 7; 4; 1; 8; 3 ]
    (Rng.shuffle s [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
  check tint "pick" 50 (Rng.pick s [ 10; 20; 30; 40; 50 ])

let test_rng_split_copy_pinned () =
  let p = Rng.create 5 in
  ignore (Rng.next64 p);
  let c = Rng.split p in
  List.iter (fun v -> check t64 "split child" v (Rng.next64 c))
    [ 0xF40E9A1167BD1688L; 0x5D2D49CC26CC93B0L; 0x500F686E4351E0ADL ];
  List.iter (fun v -> check t64 "parent after split" v (Rng.next64 p))
    [ 0xC88783661F974CC8L; 0xC4D33F1D7A80B1A9L ];
  let a = Rng.create 13 in
  for _ = 1 to 5 do
    ignore (Rng.next64 a)
  done;
  let b = Rng.copy a in
  List.iter (fun v -> check t64 "copy after 5 draws" v (Rng.next64 b))
    [ 0x871094BFD0439E9BL; 0x48FDD521216E501CL ];
  List.iter (fun v -> check t64 "original after copy" v (Rng.next64 a))
    [ 0x871094BFD0439E9BL; 0x48FDD521216E501CL ]

(* Drawing allocates nothing: the state is unboxed (a [float] draw boxes
   only its result). *)
let test_rng_draws_allocate_nothing () =
  let r = Rng.create 17 in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    acc := !acc + Rng.int r ~bound:97 + Rng.int_in r ~lo:1 ~hi:6;
    if Rng.bool r then incr acc
  done;
  let w1 = Gc.minor_words () in
  check tbool "some draws" true (!acc > 0);
  check tbool (Printf.sprintf "%.0f words for 3000 draws" (w1 -. w0)) true (w1 -. w0 < 64.)

let prop_rng_int_in_bound =
  QCheck.Test.make ~count:500 ~name:"Rng.int is within bound"
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng ~bound in
      v >= 0 && v < bound)

let prop_rng_int_in_range =
  QCheck.Test.make ~count:500 ~name:"Rng.int_in is within range"
    QCheck.(triple small_int (int_range (-1000) 1000) (int_range 0 1000))
    (fun (seed, lo, width) ->
      let rng = Rng.create seed in
      let v = Rng.int_in rng ~lo ~hi:(lo + width) in
      v >= lo && v <= lo + width)

let prop_rng_shuffle_permutation =
  QCheck.Test.make ~count:200 ~name:"Rng.shuffle is a permutation"
    QCheck.(pair small_int (small_list int))
    (fun (seed, xs) ->
      let rng = Rng.create seed in
      List.sort compare (Rng.shuffle rng xs) = List.sort compare xs)

let prop_rng_pick_member =
  QCheck.Test.make ~count:200 ~name:"Rng.pick returns a member"
    QCheck.(pair small_int (list_of_size (Gen.int_range 1 20) int))
    (fun (seed, xs) ->
      let rng = Rng.create seed in
      List.mem (Rng.pick rng xs) xs)

let prop_rng_float_unit =
  QCheck.Test.make ~count:500 ~name:"Rng.float in [0,1)" QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let v = Rng.float rng in
      v >= 0.0 && v < 1.0)

(* ------------------------------------------------------------------ *)
(* Trace *)

let sample_trace () =
  let t = Trace.create () in
  let p1 = Pid.of_rank 1 and p2 = Pid.of_rank 2 in
  Trace.add t (Trace.Propose { at = 0; pid = p1; vote = Vote.yes });
  Trace.add t
    (Trace.Send
       {
         at = 0;
         src = p1;
         dst = p2;
         layer = Trace.Commit_layer;
         tag = "[V,1]";
         deliver_at = 10;
       });
  Trace.add t
    (Trace.Send
       {
         at = 0;
         src = p1;
         dst = p1;
         layer = Trace.Commit_layer;
         tag = "[V,1]";
         deliver_at = 0;
       });
  Trace.add t
    (Trace.Send
       {
         at = 5;
         src = p2;
         dst = p1;
         layer = Trace.Consensus_layer;
         tag = "prepare(1)";
         deliver_at = 15;
       });
  Trace.add t (Trace.Decide { at = 20; pid = p2; decision = Vote.commit });
  Trace.add t (Trace.Crash { at = 30; pid = p1 });
  Trace.add t (Trace.Note { at = 31; pid = p2; label = "phase"; value = "2" });
  t

let test_trace_order () =
  let t = sample_trace () in
  check tint "length" 7 (Trace.length t);
  match Trace.entries t with
  | Trace.Propose _ :: _ -> ()
  | _ -> Alcotest.fail "entries not in append order"

let test_trace_network_sends () =
  let t = sample_trace () in
  check tint "self-sends excluded" 2 (List.length (Trace.network_sends t));
  check tint "commit layer only" 1
    (List.length (Trace.network_sends ~layer:Trace.Commit_layer t));
  check tint "consensus layer only" 1
    (List.length (Trace.network_sends ~layer:Trace.Consensus_layer t))

let test_trace_accessors () =
  let t = sample_trace () in
  check tint "one decision" 1 (List.length (Trace.decisions t));
  check tint "one crash" 1 (List.length (Trace.crashes t));
  check tint "one proposal" 1 (List.length (Trace.proposals t));
  check tint "note filter hit" 1 (List.length (Trace.notes ~label:"phase" t));
  check tint "note filter miss" 0 (List.length (Trace.notes ~label:"other" t))

(* ------------------------------------------------------------------ *)
(* Fingerprint: pid-keyed feeders against a sort-based reference *)

(* The reference is a sorting canonicalizer: the length, then the
   elements stably sorted by renamed pid, each pid as its renamed index.
   It runs on an accumulator with no renaming installed, feeding renamed
   indices by hand, so it shares no code with the feeders. *)
let ref_order perm key l =
  match perm with
  | None -> l
  | Some s -> List.stable_sort (fun a b -> compare s.(key a) s.(key b)) l

let ref_pid perm p = match perm with None -> p | Some s -> s.(p)

let ref_set h perm l =
  Fingerprint.add_int h (List.length l);
  List.iter
    (fun p -> Fingerprint.add_int h (ref_pid perm p))
    (ref_order perm Fun.id l)

let ref_assoc feed h perm l =
  Fingerprint.add_int h (List.length l);
  List.iter
    (fun (p, x) ->
      Fingerprint.add_int h (ref_pid perm p);
      feed h perm x)
    (ref_order perm fst l)

let pids l = List.map (fun (p, x) -> (Pid.of_index p, x)) l
let feed_inner h l = Fingerprint.add_pid_assoc h Fingerprint.add_int (pids l)

type fp_case = {
  perm : int array option;
  set : int list;
  assoc : (int * int) list;
      (* keys may repeat, as in 3PC's state reports: then the stored
         order among equal keys must survive *)
  nested : (int * (int * int) list) list;  (* unique keys, as in a Vset *)
}

let gen_fp_case =
  let open QCheck.Gen in
  int_range 2 7 >>= fun n ->
  let pid = int_range 0 (n - 1) in
  let unique_keys = shuffle_l (List.init n Fun.id) >>= fun ks ->
    int_range 0 n >|= fun k -> List.filteri (fun i _ -> i < k) ks
  in
  let unique v =
    unique_keys >>= fun ks ->
    flatten_l (List.map (fun k -> v >|= fun x -> (k, x)) ks)
  in
  let perm = opt (shuffle_l (List.init n Fun.id) >|= Array.of_list) in
  map4
    (fun perm set assoc nested -> { perm; set; assoc; nested })
    perm
    (list_size (int_range 0 12) pid)
    (list_size (int_range 0 10) (pair pid small_nat))
    (unique (unique small_nat))

let print_fp_case c =
  let ints l = String.concat ";" (List.map string_of_int l) in
  let pairs l =
    String.concat ";" (List.map (fun (p, x) -> Printf.sprintf "%d,%d" p x) l)
  in
  Printf.sprintf "perm=%s set=[%s] assoc=[%s] nested=[%s]"
    (match c.perm with None -> "none" | Some s -> ints (Array.to_list s))
    (ints c.set) (pairs c.assoc)
    (String.concat " "
       (List.map (fun (p, l) -> Printf.sprintf "%d:[%s]" p (pairs l)) c.nested))

let prop_fp_feeders_match_sort =
  QCheck.Test.make ~count:500
    ~name:"pid-keyed feeders feed what a stable renamed sort feeds"
    (QCheck.make ~print:print_fp_case gen_fp_case)
    (fun c ->
      let h = Fingerprint.create () in
      Option.iter (Fingerprint.set_perm h) c.perm;
      Fingerprint.add_pid_set h (List.map Pid.of_index c.set);
      Fingerprint.add_pid_assoc h Fingerprint.add_int (pids c.assoc);
      Fingerprint.add_pid_assoc h feed_inner (pids c.nested);
      let r = Fingerprint.create () in
      ref_set r c.perm c.set;
      ref_assoc (fun h _ x -> Fingerprint.add_int h x) r c.perm c.assoc;
      ref_assoc
        (ref_assoc (fun h _ x -> Fingerprint.add_int h x))
        r c.perm c.nested;
      Fingerprint.equal (Fingerprint.digest h) (Fingerprint.digest r))

let () =
  let quick name fn = Alcotest.test_case name `Quick fn in
  let prop t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "kernel"
    [
      ( "pid",
        [
          quick "roundtrip" test_pid_roundtrip;
          quick "invalid" test_pid_invalid;
          quick "all" test_pid_all;
          quick "others" test_pid_others;
          quick "ring" test_pid_ring;
          quick "pp" test_pid_pp;
        ] );
      ( "vote",
        [
          quick "logand" test_vote_logand;
          quick "conversions" test_vote_conversions;
          quick "decision" test_vote_decision;
          quick "all_yes" test_vote_all_yes;
        ] );
      ("time", [ quick "delays" test_time_delays ]);
      ("fingerprint", [ prop prop_fp_feeders_match_sort ]);
      ( "rng",
        [
          quick "determinism" test_rng_determinism;
          quick "seed sensitivity" test_rng_seed_sensitivity;
          quick "copy" test_rng_copy;
          quick "invalid" test_rng_invalid;
          quick "stream pinned" test_rng_stream_pinned;
          quick "derived draws pinned" test_rng_derived_pinned;
          quick "split and copy pinned" test_rng_split_copy_pinned;
          quick "draws allocate nothing" test_rng_draws_allocate_nothing;
          prop prop_rng_int_in_bound;
          prop prop_rng_int_in_range;
          prop prop_rng_shuffle_permutation;
          prop prop_rng_pick_member;
          prop prop_rng_float_unit;
        ] );
      ( "trace",
        [
          quick "order" test_trace_order;
          quick "network sends" test_trace_network_sends;
          quick "accessors" test_trace_accessors;
        ] );
    ]
