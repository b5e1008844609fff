(* Tests for the parallel batch runner: order preservation, the jobs=1
   escape hatch, exception propagation, and — the property everything
   else rides on — that parallel artifact regeneration is byte-identical
   to sequential. *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let test_order_preserved () =
  let items = List.init 50 (fun i -> i) in
  check (Alcotest.list tint) "results in input order"
    (List.map (fun x -> x * x) items)
    (Batch.run ~jobs:3 (fun x -> x * x) items)

let test_jobs_one_is_sequential () =
  let items = [ 5; 4; 3; 2; 1 ] in
  check (Alcotest.list tint) "jobs:1 equals List.map"
    (List.map succ items)
    (Batch.run ~jobs:1 succ items)

let test_edge_cases () =
  check (Alcotest.list tint) "empty input" [] (Batch.run ~jobs:4 succ []);
  check (Alcotest.list tint) "singleton" [ 8 ] (Batch.run ~jobs:4 succ [ 7 ]);
  check tbool "default_jobs positive" true (Batch.default_jobs () >= 1);
  check (Alcotest.list tint) "jobs above item count" [ 2; 3 ]
    (Batch.run ~jobs:64 succ [ 1; 2 ])

let test_exception_propagation () =
  Alcotest.check_raises "earliest item's exception re-raised"
    (Failure "boom:2") (fun () ->
      ignore
        (Batch.run ~jobs:4
           (fun x ->
             if x >= 2 then failwith (Printf.sprintf "boom:%d" x) else x)
           [ 0; 1; 2; 3; 4 ]))

(* The poison fix: after the first failure, workers must stop claiming
   items. Item 0 fails instantly; the other 63 items each park on a
   barrier-free sleep, so a runner that keeps grinding would execute all
   of them. Promptness = most items never started. *)
let test_poison_aborts_promptly () =
  let executed = Atomic.make 0 in
  let n = 64 in
  Alcotest.check_raises "failure re-raised" (Failure "poison") (fun () ->
      ignore
        (Batch.run ~jobs:2
           (fun x ->
             Atomic.incr executed;
             if x = 0 then failwith "poison"
             else begin
               Unix.sleepf 0.002;
               x
             end)
           (List.init n Fun.id)));
  let ran = Atomic.get executed in
  check tbool
    (Printf.sprintf "poisoned batch stopped early (ran %d of %d)" ran n)
    true
    (ran < n / 2)

let test_poison_keeps_backtrace () =
  (* the re-raise must carry the ORIGINAL backtrace, not the join site *)
  Printexc.record_backtrace true;
  let raiser x = if x = 1 then failwith "bt" else x in
  (try ignore (Batch.run ~jobs:2 raiser [ 0; 1; 2; 3 ]) with Failure _ ->
    let bt = Printexc.get_backtrace () in
    check tbool "backtrace mentions the raising frame" true
      (String.length bt > 0))

(* ---- jobs clamping and the no-nesting guard ----------------------- *)

(* ACTABLE_JOBS only caps the DEFAULT: it can lower what
   recommended_domain_count reports, never raise it, and garbage or
   non-positive values are ignored. Explicit ~jobs arguments are always
   passed through untouched. *)
let test_env_jobs_clamp () =
  let with_env v body =
    let old = Sys.getenv_opt "ACTABLE_JOBS" in
    Unix.putenv "ACTABLE_JOBS" v;
    Fun.protect body ~finally:(fun () ->
        Unix.putenv "ACTABLE_JOBS" (Option.value old ~default:""))
  in
  let unclamped =
    with_env "" (fun () -> Batch.default_jobs ())
  in
  check tbool "default positive" true (unclamped >= 1);
  with_env "1" (fun () ->
      check tint "ACTABLE_JOBS=1 caps the default to 1" 1
        (Batch.default_jobs ()));
  with_env "1" (fun () ->
      check (Alcotest.list tint) "explicit ~jobs ignores the env cap"
        [ 2; 3; 4 ]
        (Batch.run ~jobs:4 succ [ 1; 2; 3 ]));
  List.iter
    (fun garbage ->
      with_env garbage (fun () ->
          check tint
            (Printf.sprintf "ACTABLE_JOBS=%S ignored" garbage)
            unclamped (Batch.default_jobs ())))
    [ "zero"; "0"; "-3"; "2.5"; "" ];
  with_env "100000" (fun () ->
      check tint "huge cap cannot raise the default" unclamped
        (Batch.default_jobs ()))

(* The no-nesting guard: Batch.run invoked from inside a worker domain
   must degrade to sequential instead of spawning domains from a domain
   (which deadlocked under contention and oversubscribed the machine).
   Every inner run below asks for 4 domains; if the guard works, each
   inner batch executes entirely on its caller's domain. *)
let test_nested_run_stays_inline () =
  let outer = List.init 6 Fun.id in
  let results =
    Batch.run ~jobs:3
      (fun i ->
        let here = (Domain.self () :> int) in
        let inner_domains =
          Batch.run ~jobs:4 (fun _ -> (Domain.self () :> int)) (List.init 8 Fun.id)
        in
        let inline = List.for_all (fun d -> d = here) inner_domains in
        (i, inline))
      outer
  in
  List.iter
    (fun (i, inline) ->
      check tbool
        (Printf.sprintf "item %d: nested run stayed on its worker" i)
        true inline)
    results;
  check tint "outer results complete" (List.length outer)
    (List.length results)

(* Determinism of the reworked consumers: the robustness battery run
   through 4 domains must agree element-for-element with the sequential
   evaluation, traces included. *)

let test_robustness_matrix_deterministic () =
  let sequential = Robustness.matrix ~n:4 ~f:1 ~seeds:[ 1 ] ~jobs:1 () in
  let parallel = Robustness.matrix ~n:4 ~f:1 ~seeds:[ 1 ] ~jobs:4 () in
  check tint "same row count" (List.length sequential) (List.length parallel);
  List.iter2
    (fun (a : Robustness.row) (b : Robustness.row) ->
      check tbool (Printf.sprintf "row %s identical" a.Robustness.protocol)
        true (a = b))
    sequential parallel

let test_parallel_traces_identical () =
  let scenarios =
    List.map snd (Robustness.batteries ~n:4 ~f:1 ~seeds:[ 1 ])
  in
  let runner = Registry.find_exn "inbac" in
  let trace_of s =
    Format.asprintf "%a" Trace.pp (runner.Registry.run s).Report.trace
  in
  let sequential = List.map trace_of scenarios in
  let parallel = Batch.run ~jobs:4 trace_of scenarios in
  List.iteri
    (fun i (a, b) ->
      check tbool (Printf.sprintf "scenario %d trace identical" i) true (a = b))
    (List.combine sequential parallel)

let () =
  let quick name fn = Alcotest.test_case name `Quick fn in
  Alcotest.run "batch"
    [
      ( "runner",
        [
          quick "order preserved" test_order_preserved;
          quick "jobs:1 sequential" test_jobs_one_is_sequential;
          quick "edge cases" test_edge_cases;
          quick "exception propagation" test_exception_propagation;
          quick "poison aborts promptly" test_poison_aborts_promptly;
          quick "poison keeps backtrace" test_poison_keeps_backtrace;
        ] );
      ( "jobs-guard",
        [
          quick "ACTABLE_JOBS clamps the default" test_env_jobs_clamp;
          quick "nested run stays inline" test_nested_run_stays_inline;
        ] );
      ( "determinism",
        [
          quick "robustness matrix" test_robustness_matrix_deterministic;
          quick "traces across domains" test_parallel_traces_identical;
        ] );
    ]
