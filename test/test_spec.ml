(* Tests for ac_spec: the property lattice and the 27 cells, the bound
   formulas of Table 1, execution classification and the NBAC checker —
   plus the Vset collection type from ac_protocols. *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let u = Sim_time.default_u

(* ------------------------------------------------------------------ *)
(* Props *)

let test_props_cells_count () =
  check tint "exactly 27 cells" 27 (List.length Props.cells);
  check tint "8 subsets" 8 (List.length Props.all_subsets)

let test_props_cells_valid () =
  List.iter
    (fun (c : Props.cell) ->
      check tbool "nf subset of cf" true (Props.subset c.Props.nf c.Props.cf))
    Props.cells

let test_props_cell_invalid () =
  Alcotest.match_raises "nf must be below cf"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (Props.cell ~cf:Props.a ~nf:Props.avt))

let test_props_subset_lattice () =
  check tbool "empty below all" true (Props.subset Props.empty Props.avt);
  check tbool "av below avt" true (Props.subset Props.av Props.avt);
  check tbool "at not below av" false (Props.subset Props.at Props.av);
  check tbool "union" true
    (Props.equal (Props.union Props.av Props.t_) Props.avt)

let test_props_to_string () =
  check Alcotest.string "avt" "AVT" (Props.to_string Props.avt);
  check Alcotest.string "av" "AV" (Props.to_string Props.av);
  check Alcotest.string "empty" "\xe2\x88\x85" (Props.to_string Props.empty)

let prop_cell_le_partial_order =
  QCheck.Test.make ~count:200 ~name:"cell_le is a partial order"
    QCheck.(pair (int_range 0 26) (int_range 0 26))
    (fun (i, j) ->
      let ci = List.nth Props.cells i and cj = List.nth Props.cells j in
      (* reflexive, antisymmetric *)
      Props.cell_le ci ci
      && (not (Props.cell_le ci cj && Props.cell_le cj ci) || ci = cj))

(* ------------------------------------------------------------------ *)
(* Bounds *)

let cell cf nf = Props.cell ~cf ~nf

let test_bounds_delays () =
  check tint "least robust" 1 (Bounds.delays (cell Props.empty Props.empty));
  check tint "(AVT, A)" 2 (Bounds.delays (cell Props.avt Props.a));
  check tint "(AVT, AVT)" 2 (Bounds.delays (cell Props.avt Props.avt));
  check tint "(AVT, VT)" 1 (Bounds.delays (cell Props.avt Props.vt));
  check tint "(AV, AV)" 1 (Bounds.delays (cell Props.av Props.av))

let test_bounds_two_delay_cells () =
  let two =
    List.filter (fun c -> Bounds.delays c = 2) Props.cells
  in
  (* exactly the four cells (AVT, Y) with A in Y *)
  check tint "four 2-delay cells" 4 (List.length two)

let test_bounds_messages () =
  let n = 10 and f = 3 in
  check tint "validity-free cells cost 0" 0
    (Bounds.messages ~n ~f (cell Props.at Props.at));
  check tint "(AV, A) = n-1+f" (n - 1 + f)
    (Bounds.messages ~n ~f (cell Props.av Props.a));
  check tint "(AVT, T) = n-1+f" (n - 1 + f)
    (Bounds.messages ~n ~f (cell Props.avt Props.t_));
  check tint "(AV, AV) = 2n-2" ((2 * n) - 2)
    (Bounds.messages ~n ~f (cell Props.av Props.av));
  check tint "(AVT, AVT) = 2n-2+f" ((2 * n) - 2 + f)
    (Bounds.messages ~n ~f (cell Props.avt Props.avt))

let test_bounds_given_delays () =
  let n = 10 and f = 3 in
  check tint "1-delay validity cells need n(n-1)" (n * (n - 1))
    (Bounds.messages_given_optimal_delays ~n ~f (cell Props.av Props.av));
  check tint "2-delay cells need 2fn" (2 * f * n)
    (Bounds.messages_given_optimal_delays ~n ~f (cell Props.avt Props.avt));
  check tint "validity-free stays 0" 0
    (Bounds.messages_given_optimal_delays ~n ~f (cell Props.at Props.at))

let test_bounds_tradeoff_count () =
  let tradeoffs = List.filter Bounds.has_tradeoff Props.cells in
  check tint "18 of 27 cells trade delays against messages" 18
    (List.length tradeoffs)

let prop_bounds_monotone_in_robustness =
  QCheck.Test.make ~count:300
    ~name:"bounds are monotone along the robustness order"
    QCheck.(pair (int_range 0 26) (int_range 0 26))
    (fun (i, j) ->
      let ci = List.nth Props.cells i and cj = List.nth Props.cells j in
      if Props.cell_le ci cj then
        Bounds.delays ci <= Bounds.delays cj
        && Bounds.messages ~n:10 ~f:3 ci <= Bounds.messages ~n:10 ~f:3 cj
      else true)

(* ------------------------------------------------------------------ *)
(* Classify and Check, through real runs *)

let run name scenario = (Registry.find_exn name).Registry.run scenario

let test_classify_runs () =
  let nice = run "inbac" (Scenario.nice ~n:4 ~f:1 ()) in
  check tbool "nice run is failure-free" true
    (Classify.of_report nice = Classify.Failure_free);
  check tbool "nice run is nice" true (Classify.is_nice nice);
  let crash =
    run "inbac"
      (Scenario.with_crashes (Scenario.nice ~n:4 ~f:1 ())
         [ (Pid.of_rank 2, Scenario.Before u) ])
  in
  check tbool "crash run classified" true
    (Classify.of_report crash = Classify.Crash_failure);
  let slow = run "inbac" (Witness.eventual_synchrony ~n:4 ~f:1 ~seed:1) in
  check tbool "slow run classified" true
    (Classify.of_report slow = Classify.Network_failure);
  check tbool "failure-free run has no failure" false (Classify.failure_occurred nice);
  check tbool "crash is a failure" true (Classify.failure_occurred crash)

let test_classify_zero_vote_not_nice () =
  let report =
    run "inbac"
      (Scenario.with_no_votes (Scenario.nice ~n:4 ~f:1 ()) [ Pid.of_rank 1 ])
  in
  check tbool "still failure-free" true
    (Classify.of_report report = Classify.Failure_free);
  check tbool "but not nice" false (Classify.is_nice report)

let test_check_verdicts () =
  let good = Check.run (run "inbac" (Scenario.nice ~n:4 ~f:1 ())) in
  check tbool "nice run solves NBAC" true (Check.solves_nbac good);
  check tbool "no violations recorded" true (good.Check.violations = []);
  let blocked = Check.run (run "2pc" (Witness.two_pc_blocks ~n:4)) in
  check tbool "termination violation recorded" true
    (List.exists
       (fun s -> String.length s >= 11 && String.sub s 0 11 = "termination")
       blocked.Check.violations);
  let split = Check.run (run "1nbac" (Witness.one_nbac_disagreement ~n:4)) in
  check tbool "agreement violation recorded" true
    (List.exists
       (fun s -> String.length s >= 9 && String.sub s 0 9 = "agreement")
       split.Check.violations)

let test_check_holds () =
  let v = Check.run (run "2pc" (Witness.two_pc_blocks ~n:4)) in
  check tbool "holds AV" true (Check.holds v Props.av);
  check tbool "does not hold T" false (Check.holds v Props.t_);
  check tbool "holds empty" true (Check.holds v Props.empty)

let test_metrics_guards () =
  Alcotest.match_raises "of_nice rejects non-nice"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () ->
      let report =
        run "inbac"
          (Scenario.with_no_votes (Scenario.nice ~n:4 ~f:1 ()) [ Pid.of_rank 1 ])
      in
      ignore (Metrics.of_nice report));
  Alcotest.match_raises "of_report needs a decision"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () ->
      let report = run "2pc" (Witness.two_pc_blocks ~n:4) in
      (* only P1's unilateral... nobody decided here: coordinator crashed
         before announcing and all votes were yes *)
      ignore (Metrics.of_report report))

(* ------------------------------------------------------------------ *)
(* Vset *)

let p = Pid.of_rank

let test_vset_basics () =
  let s = Vset.add (p 2) Vote.yes (Vset.singleton (p 1) Vote.no) in
  check tint "cardinal" 2 (Vset.cardinal s);
  check tbool "mem" true (Vset.mem (p 1) s);
  check tbool "find" true (Vset.find (p 2) s = Some Vote.yes);
  check tbool "conjunction sees the 0" true
    (Vote.equal (Vset.conjunction s) Vote.no);
  check tbool "covers" true (Vset.covers s [ p 1; p 2 ]);
  check tbool "not covers" false (Vset.covers s [ p 1; p 3 ]);
  check tbool "complete" true (Vset.complete ~n:2 s);
  check tbool "empty conjunction is yes" true
    (Vote.equal (Vset.conjunction Vset.empty) Vote.yes)

let test_vset_first_vote_wins () =
  let s = Vset.add (p 1) Vote.no (Vset.singleton (p 1) Vote.yes) in
  check tint "no duplicate" 1 (Vset.cardinal s);
  check tbool "first binding kept" true (Vset.find (p 1) s = Some Vote.yes)

let prop_vset_sorted_canonical =
  QCheck.Test.make ~count:300 ~name:"Vset bindings are sorted and unique"
    QCheck.(small_list (pair (int_range 1 20) bool))
    (fun entries ->
      let s =
        List.fold_left
          (fun acc (rank, b) -> Vset.add (p rank) (Vote.of_bool b) acc)
          Vset.empty entries
      in
      let ranks = List.map (fun (q, _) -> Pid.rank q) (Vset.bindings s) in
      ranks = List.sort_uniq compare ranks)

let prop_vset_union_commutes_on_domains =
  QCheck.Test.make ~count:300 ~name:"Vset union covers both operands"
    QCheck.(
      pair
        (small_list (pair (int_range 1 20) bool))
        (small_list (pair (int_range 1 20) bool)))
    (fun (xs, ys) ->
      let build entries =
        List.fold_left
          (fun acc (rank, b) -> Vset.add (p rank) (Vote.of_bool b) acc)
          Vset.empty entries
      in
      let a = build xs and b = build ys in
      let union = Vset.union a b in
      List.for_all (fun (q, _) -> Vset.mem q union) (Vset.bindings a)
      && List.for_all (fun (q, _) -> Vset.mem q union) (Vset.bindings b))

(* The copying definitions [Vset.add] and [Vset.union] replaced, kept as
   the reference: [add] rebuilt the prefix before a bound pid, [union]
   folded [add] over its second argument. *)
let rec copying_add q v = function
  | [] -> [ (q, v) ]
  | (r, w) :: rest as t ->
      let c = Pid.compare q r in
      if c < 0 then (q, v) :: t
      else if c = 0 then t
      else (r, w) :: copying_add q v rest

let copying_union a b = List.fold_left (fun acc (q, v) -> copying_add q v acc) a b

(* ranks 1..6, so random sets overlap *)
let vset_of entries =
  List.fold_left
    (fun acc (rank, b) -> Vset.add (p rank) (Vote.of_bool b) acc)
    Vset.empty entries

let arb_entries = QCheck.(small_list (pair (int_range 1 6) bool))

let prop_vset_add_matches_copying =
  QCheck.Test.make ~count:500 ~name:"Vset.add equals the copying add"
    QCheck.(triple arb_entries (int_range 1 6) bool)
    (fun (entries, rank, b) ->
      let s = vset_of entries in
      let v = Vote.of_bool b in
      let added = Vset.add (p rank) v s in
      Vset.bindings added = copying_add (p rank) v (Vset.bindings s)
      && (not (Vset.mem (p rank) s) || added == s))

let prop_vset_union_matches_copying =
  QCheck.Test.make ~count:500 ~name:"Vset.union equals the copying union"
    QCheck.(pair arb_entries arb_entries)
    (fun (ea, eb) ->
      let a = vset_of ea and b = vset_of eb in
      let u = Vset.union a b in
      let adds_nothing =
        List.for_all (fun (q, _) -> Vset.mem q a) (Vset.bindings b)
      in
      Vset.bindings u = copying_union (Vset.bindings a) (Vset.bindings b)
      && ((not adds_nothing) || u == a))

let test_vset_physical () =
  let s = vset_of [ (1, true); (3, false); (5, true) ] in
  check tbool "add of a bound pid is the set itself" true
    (Vset.add (p 3) Vote.yes s == s);
  check tbool "union with a subset is the set itself" true
    (Vset.union s (vset_of [ (5, false); (1, true) ]) == s);
  check tbool "union with empty is the set itself" true
    (Vset.union s Vset.empty == s);
  check tbool "union adding a pid is a new set" false
    (Vset.union s (vset_of [ (2, true) ]) == s)

let prop_vset_covers_first =
  QCheck.Test.make ~count:500 ~name:"Vset.covers_first k = covers P1..Pk"
    QCheck.(pair arb_entries (int_range 0 7))
    (fun (entries, k) ->
      let s = vset_of entries in
      Vset.covers_first k s = Vset.covers s (List.init k (fun i -> p (i + 1))))

let () =
  let quick name fn = Alcotest.test_case name `Quick fn in
  let prop t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "spec"
    [
      ( "props",
        [
          quick "27 cells" test_props_cells_count;
          quick "cells valid" test_props_cells_valid;
          quick "cell invalid" test_props_cell_invalid;
          quick "lattice" test_props_subset_lattice;
          quick "to_string" test_props_to_string;
          prop prop_cell_le_partial_order;
        ] );
      ( "bounds",
        [
          quick "delays" test_bounds_delays;
          quick "two-delay cells" test_bounds_two_delay_cells;
          quick "messages" test_bounds_messages;
          quick "given delays" test_bounds_given_delays;
          quick "tradeoff count" test_bounds_tradeoff_count;
          prop prop_bounds_monotone_in_robustness;
        ] );
      ( "classify/check",
        [
          quick "classify runs" test_classify_runs;
          quick "zero vote not nice" test_classify_zero_vote_not_nice;
          quick "verdicts" test_check_verdicts;
          quick "holds" test_check_holds;
          quick "metrics guards" test_metrics_guards;
        ] );
      ( "vset",
        [
          quick "basics" test_vset_basics;
          quick "first vote wins" test_vset_first_vote_wins;
          prop prop_vset_sorted_canonical;
          prop prop_vset_union_commutes_on_domains;
          prop prop_vset_add_matches_copying;
          prop prop_vset_union_matches_copying;
          quick "uncopied results" test_vset_physical;
          prop prop_vset_covers_first;
        ] );
    ]
