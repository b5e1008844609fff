(* Tests for ac_sim: the event queue's ordering laws, the network models,
   scenario validation and the engine's execution semantics (probed with
   small fixture protocols). *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let u = Sim_time.default_u

(* ------------------------------------------------------------------ *)
(* Event queue *)

let test_queue_time_order () =
  let q = Event_queue.create () in
  List.iter
    (fun t -> Event_queue.add q ~time:t ~klass:0 t)
    [ 5; 1; 4; 2; 3; 0 ];
  let popped = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | None -> ()
    | Some (_, _, v) ->
        popped := v :: !popped;
        drain ()
  in
  drain ();
  check (Alcotest.list tint) "sorted by time" [ 0; 1; 2; 3; 4; 5 ]
    (List.rev !popped)

let test_queue_class_order () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:10 ~klass:3 "timeout";
  Event_queue.add q ~time:10 ~klass:2 "deliver";
  Event_queue.add q ~time:10 ~klass:0 "crash";
  let order = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | None -> ()
    | Some (_, _, v) ->
        order := v :: !order;
        drain ()
  in
  drain ();
  check
    (Alcotest.list Alcotest.string)
    "crash < deliver < timeout at equal time"
    [ "crash"; "deliver"; "timeout" ]
    (List.rev !order)

let test_queue_fifo_within_class () =
  let q = Event_queue.create () in
  List.iter (fun i -> Event_queue.add q ~time:1 ~klass:1 i) [ 10; 20; 30 ];
  let first = Event_queue.pop q and second = Event_queue.pop q in
  check tbool "insertion order preserved" true
    (match (first, second) with
    | Some (_, _, 10), Some (_, _, 20) -> true
    | _ -> false)

let test_queue_misc () =
  let q = Event_queue.create () in
  check tbool "fresh queue empty" true (Event_queue.is_empty q);
  check tbool "no peek" true (Event_queue.peek_time q = None);
  Event_queue.add q ~time:3 ~klass:0 ();
  check tint "size" 1 (Event_queue.size q);
  check tbool "peek" true (Event_queue.peek_time q = Some 3);
  Alcotest.check_raises "negative time"
    (Invalid_argument "Event_queue.add: negative time") (fun () ->
      Event_queue.add q ~time:(-1) ~klass:0 ())

let prop_queue_pop_sorted =
  QCheck.Test.make ~count:300 ~name:"pop order is (time, class, seq) sorted"
    QCheck.(small_list (pair (int_range 0 50) (int_range 0 3)))
    (fun entries ->
      let q = Event_queue.create () in
      List.iteri
        (fun i (time, klass) -> Event_queue.add q ~time ~klass (time, klass, i))
        entries;
      let rec drain acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (_, _, v) -> drain (v :: acc)
      in
      let popped = drain [] in
      let keys = List.map (fun (t, k, i) -> (t, k, i)) popped in
      keys = List.sort compare keys)

(* The packed-key, bottom-up heap against a sorted-list model, with adds
   and takes interleaved as the service drives it: long runs (up to 2000
   operations), every class the key can hold, and times drawn from a
   narrow range so that ties on time, and on (time, class), are the rule.
   Each take must return the model's minimum (time, class, insertion
   order) with its tag. *)
let prop_queue_interleaved_model =
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map3 (fun t k g -> `Add (t, k, g)) (int_range 0 3) (int_range 0 63) nat);
          (2, return `Take);
        ])
  in
  QCheck.Test.make ~count:100
    ~name:"interleaved add/take match a sorted-list model"
    QCheck.(make Gen.(list_size (int_range 0 2000) op))
    (fun ops ->
      let q = Event_queue.create () in
      (* ascending (time, class, seq) *)
      let model = ref [] in
      let seq = ref 0 in
      let rec insert e = function
        | [] -> [ e ]
        | x :: rest as l -> if compare e x < 0 then e :: l else x :: insert e rest
      in
      let take_ok () =
        match !model with
        | [] -> Event_queue.is_empty q
        | ((time, klass, sq), tag) :: rest ->
            model := rest;
            Event_queue.min_time q = time
            && Event_queue.min_klass q = klass
            && Event_queue.min_tag q = tag
            && Event_queue.take q = sq
      in
      let ok =
        List.for_all
          (function
            | `Add (time, klass, tag) ->
                Event_queue.add_tagged q ~time ~klass ~tag !seq;
                model := insert ((time, klass, !seq), tag) !model;
                incr seq;
                true
            | `Take -> take_ok ())
          ops
      in
      let rec drain () = !model = [] || (take_ok () && drain ()) in
      ok && drain () && Event_queue.is_empty q)

let test_queue_class_bound () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:0 ~klass:63 "top class";
  check tint "class 63 accepted" 63 (Event_queue.min_klass q);
  Alcotest.check_raises "class 64"
    (Invalid_argument "Event_queue.add: class above 63") (fun () ->
      Event_queue.add q ~time:0 ~klass:64 "too high");
  Alcotest.check_raises "negative class"
    (Invalid_argument "Event_queue.add: negative class") (fun () ->
      Event_queue.add q ~time:0 ~klass:(-1) "negative");
  check tint "rejected adds leave the queue alone" 1 (Event_queue.size q)

(* Drain/refill capacity retention: the engine's queue empties between
   instants, and before the fix every drain dropped the backing array
   (`t.heap <- [||]`), so each refill re-grew from 16 with a rehash
   cascade. Capacity must now survive a drain — and be bounded, so a
   one-off burst does not pin a huge array forever. *)
let test_queue_capacity_retained () =
  let q = Event_queue.create () in
  let fill k = List.iter (fun i -> Event_queue.add q ~time:i ~klass:0 i)
      (List.init k Fun.id) in
  let drain () =
    let rec go () = match Event_queue.pop q with
      | Some _ -> go () | None -> () in
    go () in
  fill 100;
  drain ();
  let cap = Event_queue.capacity q in
  check tbool "capacity survives a drain" true (cap >= 100);
  for _ = 1 to 10 do
    fill 100;
    drain ();
    check tint "steady-state cycles never re-grow" cap
      (Event_queue.capacity q)
  done

let test_queue_capacity_bounded () =
  let q = Event_queue.create () in
  List.iter (fun i -> Event_queue.add q ~time:i ~klass:0 i)
    (List.init 5000 Fun.id);
  check tbool "burst grows the array" true (Event_queue.capacity q >= 5000);
  let rec drain () = match Event_queue.pop q with
    | Some _ -> drain () | None -> () in
  drain ();
  check tbool "drain shrinks back to the retention bound" true
    (Event_queue.capacity q <= 256)

(* No payload pinning: a popped payload must be collectable even while
   the queue retains its (cleared) cells. The payload is allocated inside
   a function so the only strong reference is the queue's. *)
let test_queue_no_payload_pinning () =
  let q = Event_queue.create () in
  let w =
    let payload = Bytes.create 64 in
    Event_queue.add q ~time:1 ~klass:0 payload;
    Weak.create 1 |> fun w -> Weak.set w 0 (Some payload); w
  in
  (match Event_queue.pop q with
  | Some (_, _, p) -> ignore (Sys.opaque_identity p)
  | None -> Alcotest.fail "queue should pop");
  (* keep the queue alive: the retained cells must not hold the payload *)
  Event_queue.add q ~time:2 ~klass:0 (Bytes.create 8);
  Gc.full_major ();
  Gc.full_major ();
  check tbool "popped payload collected despite retained cells" true
    (Weak.get w 0 = None);
  ignore (Sys.opaque_identity q)

(* Interleaved adds and pops against a model multiset: every pop must
   see the minimum (time, class, insertion seq) of what is currently
   queued, with that event's tag, through the allocation-free readers,
   and [take] must hand back its payload — including after the queue
   fully drains and refills (which exercises the backing-array release
   and regrowth-from-empty paths). *)
let prop_queue_interleaved =
  QCheck.Test.make ~count:300
    ~name:"interleaved adds/pops preserve the heap property"
    QCheck.(
      small_list
        (option (triple (int_range 0 50) (int_range 0 3) small_signed_int)))
    (fun ops ->
      let q = Event_queue.create () in
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      let pop_checked () =
        match !model with
        | [] ->
            if not (Event_queue.is_empty q) then begin
              ok := false;
              ignore (Event_queue.take q)
            end
        | c :: cs ->
            let ((time, klass, _) as key), tag = List.fold_left min c cs in
            if
              Event_queue.is_empty q
              || Event_queue.min_time q <> time
              || Event_queue.min_klass q <> klass
              || Event_queue.min_tag q <> tag
              || Event_queue.take q <> key
            then ok := false;
            model := List.filter (fun (k, _) -> k <> key) !model
      in
      List.iter
        (function
          | Some (time, klass, tag) ->
              Event_queue.add_tagged q ~time ~klass ~tag (time, klass, !seq);
              model := ((time, klass, !seq), tag) :: !model;
              incr seq
          | None -> pop_checked ())
        ops;
      while not (Event_queue.is_empty q) do
        pop_checked ()
      done;
      !ok && !model = [])

(* ------------------------------------------------------------------ *)
(* Network *)

let delay net rng ~src ~dst ~sent_at =
  Network.delay net rng ~src:(Pid.of_rank src) ~dst:(Pid.of_rank dst)
    ~layer:Trace.Commit_layer ~sent_at ~seq:0

let test_network_exact () =
  let net = Network.exact ~u in
  let rng = Rng.create 1 in
  check tint "always u" u (delay net rng ~src:1 ~dst:2 ~sent_at:0);
  check tbool "bound" true (Network.bound net = Some u)

let test_network_jittered () =
  let net = Network.jittered ~u in
  let rng = Rng.create 1 in
  for _ = 1 to 200 do
    let d = delay net rng ~src:1 ~dst:2 ~sent_at:0 in
    check tbool "within (0, u]" true (d >= 1 && d <= u)
  done

let test_network_gst () =
  let net = Network.eventually_synchronous ~u ~gst:(10 * u) ~max_early_delay:(4 * u) in
  let rng = Rng.create 1 in
  let late = ref false in
  for _ = 1 to 300 do
    let d = delay net rng ~src:1 ~dst:2 ~sent_at:0 in
    if d > u then late := true;
    check tbool "early message below 4u" true (d <= 4 * u)
  done;
  check tbool "some early message exceeds u" true !late;
  for _ = 1 to 100 do
    let d = delay net rng ~src:1 ~dst:2 ~sent_at:(10 * u) in
    check tbool "after gst at most u" true (d <= u)
  done

let test_network_adversary_clamped () =
  let net = Network.adversary ~name:"zero" (fun _ -> 0) in
  let rng = Rng.create 1 in
  check tint "clamped to 1 tick" 1
    (delay net rng ~src:1 ~dst:2 ~sent_at:0)

(* an adversary reads the message's info record as sent *)
let test_network_adversary_info () =
  let seen = ref None in
  let net = Network.adversary ~name:"spy" (fun i -> seen := Some i; 7) in
  let d =
    Network.delay net (Rng.create 1) ~src:(Pid.of_rank 3) ~dst:(Pid.of_rank 1)
      ~layer:Trace.Consensus_layer ~sent_at:42 ~seq:9
  in
  check tint "delay" 7 d;
  match !seen with
  | Some { Network.src; dst; layer; sent_at; seq } ->
      check tint "src" 3 (Pid.rank src);
      check tint "dst" 1 (Pid.rank dst);
      check tbool "layer" true (layer = Trace.Consensus_layer);
      check tint "sent_at" 42 sent_at;
      check tint "seq" 9 seq
  | None -> Alcotest.fail "adversary not consulted"

(* ------------------------------------------------------------------ *)
(* Scenario *)

let test_scenario_validation () =
  let bad f = Alcotest.match_raises "invalid" (function Invalid_argument _ -> true | _ -> false) f in
  bad (fun () -> ignore (Scenario.make ~n:1 ~f:1 ()));
  bad (fun () -> ignore (Scenario.make ~n:3 ~f:0 ()));
  bad (fun () -> ignore (Scenario.make ~n:3 ~f:3 ()));
  bad (fun () -> ignore (Scenario.make ~n:3 ~f:1 ~votes:(Array.make 2 Vote.yes) ()));
  bad (fun () ->
      ignore
        (Scenario.make ~n:3 ~f:1
           ~crashes:
             [ (Pid.of_rank 1, Scenario.Before 0); (Pid.of_rank 1, Scenario.Before u) ]
           ()))

let test_scenario_classify () =
  let nice = Scenario.nice ~n:3 ~f:1 () in
  check tbool "nice is failure-free" true (Scenario.classify nice = `Failure_free);
  check tbool "nice is nice" true (Scenario.is_nice nice);
  let crash = Scenario.with_crashes nice [ (Pid.of_rank 1, Scenario.Before u) ] in
  check tbool "crash class" true (Scenario.classify crash = `Crash_failure);
  let slow =
    Scenario.with_network nice
      (Network.eventually_synchronous ~u ~gst:u ~max_early_delay:(2 * u))
  in
  check tbool "network class" true (Scenario.classify slow = `Network_failure);
  check tbool "zero vote is not nice" false
    (Scenario.is_nice (Scenario.with_no_votes nice [ Pid.of_rank 2 ]))

(* ------------------------------------------------------------------ *)
(* Engine semantics, probed with fixture protocols *)

(* Fixture: every process sends Ping to everyone (self included) at
   propose, counts arrivals, and decides commit at the timer iff it heard
   from everyone — arrivals at exactly the timer instant must count
   (delivery before timeout). *)
module Probe = struct
  type msg = Ping

  type state = { heard : int; decided : bool }

  let name = "probe"
  let uses_consensus = false
  let pp_msg ppf Ping = Format.pp_print_string ppf "ping"
  let init _env = { heard = 0; decided = false }

  let on_propose env state _v =
    ( state,
      List.map (fun q -> Proto.Send (q, Ping)) (Pid.all ~n:env.Proto.n)
      @ [ Proto.Set_timer { id = "t"; fire = Proto.At_delay 1 } ] )

  let on_deliver _env state ~src:_ Ping = ({ state with heard = state.heard + 1 }, [])

  let on_timeout env state ~id:_ =
    if state.decided then (state, [])
    else
      ( { state with decided = true },
        [
          Proto.Decide
            (if state.heard = env.Proto.n then Vote.commit else Vote.abort);
        ] )

  let guards = []
  let on_guard _env _state ~id = failwith ("probe: unknown guard " ^ id)
  let on_consensus_decide _env state _d = (state, [])
  let hash_state = None
  let hash_msg = None
  let symmetry ~n ~f:_ = Symmetry.trivial ~n
end

module Probe_engine = Engine.Make (Probe) (Consensus_null)

let test_engine_delivery_before_timeout () =
  let report = Probe_engine.run (Scenario.nice ~n:4 ~f:1 ()) in
  List.iter
    (fun p ->
      match Report.decision_of report p with
      | Some (_, d) ->
          check tbool "deliveries at the timer instant counted" true
            (Vote.decision_equal d Vote.commit)
      | None -> Alcotest.fail "probe did not decide")
    (Pid.all ~n:4)

let test_engine_self_send_immediate () =
  let report = Probe_engine.run (Scenario.nice ~n:3 ~f:1 ()) in
  (* 3 processes x 2 network messages: self-sends excluded from count *)
  check tint "network messages" 6 (Report.commit_messages report);
  let self_delivery_at_zero =
    List.exists
      (function
        | Trace.Deliver { at = 0; src; dst; _ } -> Pid.equal src dst
        | _ -> false)
      (Trace.entries report.Report.trace)
  in
  check tbool "self message delivered at send instant" true self_delivery_at_zero

let test_engine_crash_before () =
  let scenario =
    Scenario.with_crashes (Scenario.nice ~n:3 ~f:1 ())
      [ (Pid.of_rank 3, Scenario.Before 0) ]
  in
  let report = Probe_engine.run scenario in
  (* P3 dead from time 0: sends nothing, receives nothing, decides nothing *)
  check tbool "crashed never decides" true
    (Report.decision_of report (Pid.of_rank 3) = None);
  let p3_sent =
    List.exists
      (function
        | Trace.Send { src; _ } -> Pid.rank src = 3
        | _ -> false)
      (Trace.entries report.Report.trace)
  in
  check tbool "crashed never sends" false p3_sent;
  (* the survivors hear only 2 of 3 pings and abort *)
  check tbool "survivor aborts" true
    (match Report.decision_of report (Pid.of_rank 1) with
    | Some (_, d) -> Vote.decision_equal d Vote.abort
    | None -> false)

let test_engine_crash_during_sends () =
  let scenario =
    Scenario.with_crashes (Scenario.nice ~n:5 ~f:1 ())
      [ (Pid.of_rank 1, Scenario.During_sends (0, 2)) ]
  in
  let report = Probe_engine.run scenario in
  let p1_network_sends =
    List.length
      (List.filter
         (function
           | Trace.Send { src; dst; _ } ->
               Pid.rank src = 1 && not (Pid.equal src dst)
           | _ -> false)
         (Trace.entries report.Report.trace))
  in
  check tint "budget limits network sends" 2 p1_network_sends;
  check tbool "then the process is dead" true
    (report.Report.crashed_at.(0) <> None);
  check tbool "no decision from the half-crashed process" true
    (Report.decision_of report (Pid.of_rank 1) = None)

let test_engine_discard_at_crashed () =
  let scenario =
    Scenario.with_crashes (Scenario.nice ~n:3 ~f:1 ())
      [ (Pid.of_rank 2, Scenario.Before u) ]
  in
  let report = Probe_engine.run scenario in
  let discards =
    List.exists
      (function Trace.Discard _ -> true | _ -> false)
      (Trace.entries report.Report.trace)
  in
  check tbool "arrivals at a dead process are discarded" true discards

let prop_engine_deterministic =
  QCheck.Test.make ~count:50 ~name:"same seed, same trace"
    QCheck.(pair small_int (int_range 2 8))
    (fun (seed, n) ->
      let scenario =
        Scenario.make ~n ~f:1 ~seed ~network:(Network.jittered ~u) ()
      in
      let a = Probe_engine.run scenario and b = Probe_engine.run scenario in
      Format.asprintf "%a" Trace.pp a.Report.trace
      = Format.asprintf "%a" Trace.pp b.Report.trace)

(* ------------------------------------------------------------------ *)
(* Same-instant event priority, pair by pair. The appendix's remark fixes
   the order crashes < proposals < deliveries < timeouts at equal
   instants; each adjacent pair gets its own regression below, asserted
   on the trace order the engine actually produced. *)

let positions pred entries =
  List.mapi (fun i e -> (i, e)) entries
  |> List.filter_map (fun (i, e) -> if pred e then Some i else None)

let all_before name earlier later entries =
  match (positions earlier entries, positions later entries) with
  | [], _ | _, [] -> Alcotest.fail (name ^ ": expected both entry kinds")
  | es, ls ->
      check tbool name true
        (List.fold_left max 0 es < List.fold_left min max_int ls)

(* crash -> proposal: a [Before 0] crash is processed ahead of the t=0
   proposals, so the victim never proposes (and never sends). *)
let test_priority_crash_before_proposal () =
  let scenario =
    Scenario.with_crashes (Scenario.nice ~n:3 ~f:1 ())
      [ (Pid.of_rank 2, Scenario.Before 0) ]
  in
  let report = Probe_engine.run scenario in
  let entries = Trace.entries report.Report.trace in
  check tbool "victim never proposes" false
    (List.exists
       (function
         | Trace.Propose { pid; _ } -> Pid.rank pid = 2
         | _ -> false)
       entries);
  all_before "crash precedes the same-instant proposals"
    (function Trace.Crash { at = 0; _ } -> true | _ -> false)
    (function Trace.Propose { at = 0; _ } -> true | _ -> false)
    entries

(* proposal -> delivery: the only same-instant delivery the network
   allows is a self-send at t=0; its handler must observe the
   post-propose state on every process. *)
module Self_probe = struct
  type msg = Ping

  type state = { proposed : bool }

  let name = "self-probe"
  let uses_consensus = false
  let pp_msg ppf Ping = Format.pp_print_string ppf "ping"
  let init _env = { proposed = false }

  let on_propose env _state _v =
    ({ proposed = true }, [ Proto.Send (env.Proto.self, Ping) ])

  let on_deliver _env state ~src:_ Ping =
    ( state,
      [ Proto.Decide (if state.proposed then Vote.commit else Vote.abort) ] )

  let on_timeout _env state ~id:_ = (state, [])
  let guards = []
  let on_guard _env _state ~id = failwith ("self-probe: unknown guard " ^ id)
  let on_consensus_decide _env state _d = (state, [])
  let hash_state = None
  let hash_msg = None
  let symmetry ~n ~f:_ = Symmetry.trivial ~n
end

module Self_probe_engine = Engine.Make (Self_probe) (Consensus_null)

let test_priority_proposal_before_delivery () =
  let report = Self_probe_engine.run (Scenario.nice ~n:3 ~f:1 ()) in
  List.iter
    (fun p ->
      check tbool "self-delivery handled after the propose" true
        (match Report.decision_of report p with
        | Some (_, d) -> Vote.decision_equal d Vote.commit
        | None -> false))
    (Pid.all ~n:3);
  all_before "proposals precede the same-instant deliveries"
    (function Trace.Propose { at = 0; _ } -> true | _ -> false)
    (function Trace.Deliver { at = 0; _ } -> true | _ -> false)
    (Trace.entries report.Report.trace)

(* delivery -> timeout: pings sent at t=0 arrive at exactly U, the same
   instant the decision timer fires; they must count (the appendix's "a
   message delivery event has a higher priority than a timeout event"). *)
let test_priority_delivery_before_timeout () =
  let report = Probe_engine.run (Scenario.nice ~n:3 ~f:1 ()) in
  List.iter
    (fun p ->
      check tbool "arrivals at the timer instant counted" true
        (match Report.decision_of report p with
        | Some (_, d) -> Vote.decision_equal d Vote.commit
        | None -> false))
    (Pid.all ~n:3);
  all_before "deliveries precede the same-instant timeouts"
    (function Trace.Deliver { at; _ } -> at = u | _ -> false)
    (function Trace.Timeout { at; _ } -> at = u | _ -> false)
    (Trace.entries report.Report.trace)

(* Fixture probing timer semantics: [At_delay k] is the absolute instant
   k*U; [After d] is relative to now; a timer aimed at the past fires
   immediately (clamped to now). *)
module Timer_probe = struct
  type msg = |
  type state = { fired : (string * Sim_time.t) list }

  let name = "timer-probe"
  let uses_consensus = false
  let pp_msg _ppf (m : msg) = (match m with _ -> .)
  let init _env = { fired = [] }

  let on_propose _env state _v =
    ( state,
      [
        Proto.Set_timer { id = "abs"; fire = Proto.At_delay 2 };
        Proto.Set_timer { id = "rel"; fire = Proto.After 1500 };
        Proto.Set_timer { id = "past"; fire = Proto.At_delay 0 };
      ] )

  let on_deliver _env _state ~src:_ (m : msg) = (match m with _ -> .)

  let on_timeout _env state ~id =
    let state = { fired = (id, -1) :: state.fired } in
    if id = "abs" then
      (* a relative timer set from a later instant *)
      (state, [ Proto.Set_timer { id = "chained"; fire = Proto.After 250 } ])
    else (state, [])

  let guards = []
  let on_guard _env _state ~id = failwith ("timer-probe: unknown guard " ^ id)
  let on_consensus_decide _env state _d = (state, [])
  let hash_state = None
  let hash_msg = None
  let symmetry ~n ~f:_ = Symmetry.trivial ~n
end

module Timer_engine = Engine.Make (Timer_probe) (Consensus_null)

let test_engine_timer_semantics () =
  let report = Timer_engine.run (Scenario.make ~n:2 ~f:1 ()) in
  let timeouts =
    List.filter_map
      (function
        | Trace.Timeout { at; pid; timer } when Pid.rank pid = 1 ->
            Some (timer, at)
        | _ -> None)
      (Trace.entries report.Report.trace)
  in
  check tbool "past timer fires at once" true
    (List.mem ("past", 0) timeouts);
  check tbool "relative timer at 1500" true (List.mem ("rel", 1500) timeouts);
  check tbool "absolute timer at 2U" true (List.mem ("abs", 2 * u) timeouts);
  check tbool "chained relative timer at 2U + 250" true
    (List.mem ("chained", (2 * u) + 250) timeouts)

(* Fixture for the guard loop: a guard that stays true forever must make
   the engine fail loudly instead of spinning. *)
module Bad_guard = struct
  type msg = |
  type state = unit

  let name = "bad-guard"
  let uses_consensus = false
  let pp_msg _ppf (m : msg) = (match m with _ -> .)
  let init _env = ()
  let on_propose _env () _v = ((), [])
  let on_deliver _env () ~src:_ (m : msg) = (match m with _ -> .)
  let on_timeout _env () ~id:_ = ((), [])
  let guards = [ ("always", fun _env () -> true) ]
  let on_guard _env () ~id:_ = ((), [])
  let on_consensus_decide _env () _d = ((), [])
  let hash_state = None
  let hash_msg = None
  let symmetry ~n ~f:_ = Symmetry.trivial ~n
end

module Bad_guard_engine = Engine.Make (Bad_guard) (Consensus_null)

let test_engine_guard_fuel () =
  Alcotest.match_raises "guard loop detected"
    (function Failure msg -> String.length msg > 0 | _ -> false)
    (fun () -> ignore (Bad_guard_engine.run (Scenario.nice ~n:2 ~f:1 ())))

(* Fixture probing decision accounting: decides commit at propose, then
   decides again at a timer — with the same value when its vote is yes,
   with the opposite value when it voted no. The engine must trace the
   first decision once, swallow the harmless repeat, and trace (but not
   record) the conflicting one so Check can flag it. *)
module Re_decider = struct
  type msg = |
  type state = { vote : Vote.t }

  let name = "re-decider"
  let uses_consensus = false
  let pp_msg _ppf (m : msg) = (match m with _ -> .)
  let init _env = { vote = Vote.yes }

  let on_propose _env _state v =
    ( { vote = v },
      [
        Proto.Decide Vote.commit;
        Proto.Set_timer { id = "again"; fire = Proto.At_delay 1 };
      ] )

  let on_deliver _env _state ~src:_ (m : msg) = (match m with _ -> .)

  let on_timeout _env state ~id:_ =
    ( state,
      [
        Proto.Decide
          (if Vote.equal state.vote Vote.yes then Vote.commit else Vote.abort);
      ] )

  let guards = []
  let on_guard _env _state ~id = failwith ("re-decider: unknown guard " ^ id)
  let on_consensus_decide _env state _d = (state, [])
  let hash_state = None
  let hash_msg = None
  let symmetry ~n ~f:_ = Symmetry.trivial ~n
end

module Re_decider_engine = Engine.Make (Re_decider) (Consensus_null)

let decide_entries report pid =
  List.filter
    (function
      | Trace.Decide { pid = p; _ } -> Pid.equal p pid
      | _ -> false)
    (Trace.entries report.Report.trace)

let test_engine_no_duplicate_decide () =
  let report = Re_decider_engine.run (Scenario.nice ~n:3 ~f:1 ()) in
  List.iter
    (fun p ->
      check tint "same-value re-decision traced once" 1
        (List.length (decide_entries report p)))
    (Pid.all ~n:3);
  check tbool "agreement holds" true (Check.run report).Check.agreement

let test_engine_conflicting_redecide_flagged () =
  let scenario =
    Scenario.with_no_votes (Scenario.nice ~n:3 ~f:1 ()) [ Pid.of_rank 2 ]
  in
  let report = Re_decider_engine.run scenario in
  check tint "conflicting re-decision traced" 2
    (List.length (decide_entries report (Pid.of_rank 2)));
  check tbool "first decision stands in the report" true
    (match Report.decision_of report (Pid.of_rank 2) with
    | Some (_, d) -> Vote.decision_equal d Vote.commit
    | None -> false);
  let v = Check.run report in
  check tbool "AC2 violation breaks agreement" false v.Check.agreement;
  check tbool "stability violation reported" true
    (List.exists
       (fun s ->
         String.length s >= 18 && String.sub s 0 18 = "decision stability")
       v.Check.violations)

(* Fixture probing timer cancellation: a cancel suppresses every pending
   fire of that id, a fresh set after the cancel fires normally, and a
   suppressed late timeout must not stretch the quiescence time. *)
module Canceller = struct
  type msg = |
  type state = unit

  let name = "canceller"
  let uses_consensus = false
  let pp_msg _ppf (m : msg) = (match m with _ -> .)
  let init _env = ()

  let on_propose _env () _v =
    ( (),
      [
        Proto.Set_timer { id = "dead"; fire = Proto.At_delay 1 };
        Proto.Cancel_timer "dead";
        Proto.Set_timer { id = "twice"; fire = Proto.At_delay 1 };
        Proto.Set_timer { id = "twice"; fire = Proto.At_delay 2 };
        Proto.Set_timer { id = "reborn"; fire = Proto.At_delay 3 };
        Proto.Cancel_timer "reborn";
        Proto.Set_timer { id = "reborn"; fire = Proto.At_delay 4 };
        Proto.Set_timer { id = "late"; fire = Proto.At_delay 10 };
        Proto.Cancel_timer "late";
        Proto.Cancel_timer "never-set";
      ] )

  let on_deliver _env _state ~src:_ (m : msg) = (match m with _ -> .)
  let on_timeout _env () ~id:_ = ((), [])
  let guards = []
  let on_guard _env _state ~id = failwith ("canceller: unknown guard " ^ id)
  let on_consensus_decide _env state _d = (state, [])
  let hash_state = None
  let hash_msg = None
  let symmetry ~n ~f:_ = Symmetry.trivial ~n
end

module Canceller_engine = Engine.Make (Canceller) (Consensus_null)

let test_engine_cancel_timer () =
  let report = Canceller_engine.run (Scenario.nice ~n:2 ~f:1 ()) in
  let timeouts =
    List.filter_map
      (function
        | Trace.Timeout { at; pid; timer; _ } when Pid.rank pid = 1 ->
            Some (timer, at)
        | _ -> None)
      (Trace.entries report.Report.trace)
  in
  check tbool "cancelled timer never fires" false
    (List.mem_assoc "dead" timeouts);
  check tint "both sets of the same id fire" 2
    (List.length (List.filter (fun (t, _) -> t = "twice") timeouts));
  check
    (Alcotest.list (Alcotest.pair Alcotest.string tint))
    "cancel-then-reset fires once, from the new set"
    [ ("reborn", 4 * u) ]
    (List.filter (fun (t, _) -> t = "reborn") timeouts);
  check tbool "suppressed late timeout does not stretch quiescence" true
    (match report.Report.outcome with
    | Report.Quiescent t -> t = 4 * u
    | Report.Max_time_reached -> false)

(* The protocol-level payoff of Cancel_timer: once every process has
   decided, no stale recovery machinery keeps firing. *)
let test_3pc_decided_quiescence () =
  let report =
    (Registry.find_exn "3pc").Registry.run (Scenario.nice ~n:5 ~f:2 ())
  in
  check tbool "everyone decides" true (Report.all_correct_decided report);
  let stale =
    List.exists
      (function
        | Trace.Timeout { timer; _ } ->
            String.length timer >= 8 && String.sub timer 0 8 = "blocked:"
        | _ -> false)
      (Trace.entries report.Report.trace)
  in
  check tbool "no blocked: pings fire after the decisions" false stale

let test_inbac_fast_abort_cancels_phase_timers () =
  let scenario =
    Scenario.with_no_votes (Scenario.nice ~n:5 ~f:2 ()) [ Pid.of_rank 1 ]
  in
  let report = (Registry.find_exn "inbac-fast-abort").Registry.run scenario in
  check tbool "everyone decides" true (Report.all_correct_decided report);
  let phase_timeout =
    List.exists
      (function
        | Trace.Timeout { timer = "phase0" | "phase1"; _ } -> true
        | _ -> false)
      (Trace.entries report.Report.trace)
  in
  check tbool "phase timers cancelled after the fast abort" false phase_timeout

let test_report_accessors () =
  let report = Probe_engine.run (Scenario.nice ~n:3 ~f:1 ()) in
  check tint "everyone decided" 3 (List.length (Report.decided_values report));
  check tbool "all correct decided" true (Report.all_correct_decided report);
  check tint "three correct pids" 3 (List.length (Report.correct_pids report));
  check tbool "no consensus traffic" true (Report.consensus_messages report = 0);
  check tbool "delays measured" true
    (Report.delays_to_last_decision report = Some 1.0)

(* ------------------------------------------------------------------ *)
(* Mux: instance-tagged multiplexing for the multi-shot service *)

(* Read the minimum through the allocation-free accessors, then take it. *)
let mux_pop m =
  if Mux.is_empty m then Alcotest.fail "unexpected empty mux";
  let time = Mux.min_time m and instance = Mux.min_instance m in
  (time, instance, Mux.take m)

let test_mux_order_and_pending () =
  let m = Mux.create () in
  Mux.add m ~instance:1 ~time:5 ~klass:2 "i1-late";
  Mux.add m ~instance:0 ~time:5 ~klass:1 "i0-propose";
  Mux.add m ~instance:1 ~time:3 ~klass:2 "i1-early";
  Mux.add m ~instance:(-1) ~time:5 ~klass:1 "service";
  check tint "pending i0" 1 (Mux.pending m 0);
  check tint "pending i1" 2 (Mux.pending m 1);
  check tint "size counts service events" 4 (Mux.size m);
  check tbool "time order first" true (mux_pop m = (3, 1, "i1-early"));
  check tint "take decrements pending" 1 (Mux.pending m 1);
  (* equal time: class order, then insertion order within a class —
     exactly the engine's (time, class, sequence) law *)
  check tbool "class then fifo" true (mux_pop m = (5, 0, "i0-propose"));
  check tint "i0 quiesced" 0 (Mux.pending m 0);
  check tbool "service event interleaves" true
    (mux_pop m = (5, -1, "service"));
  check tint "service take leaves instances alone" 1 (Mux.pending m 1);
  check tbool "last" true (mux_pop m = (5, 1, "i1-late"));
  check tint "i1 quiesced" 0 (Mux.pending m 1);
  check tbool "drained" true (Mux.is_empty m);
  Alcotest.check_raises "no minimum when drained"
    (Invalid_argument "Event_queue.min_time: empty queue") (fun () ->
      ignore (Mux.min_time m))

let test_mux_pending_growth () =
  let m = Mux.create () in
  for i = 0 to 99 do
    Mux.add m ~instance:(i mod 10) ~time:i ~klass:0 i
  done;
  (* an instance id past the initial capacity forces the table to grow *)
  Mux.add m ~instance:500 ~time:1 ~klass:0 (-1);
  check tint "grown instance tracked" 1 (Mux.pending m 500);
  check tint "dense instance tracked" 10 (Mux.pending m 3);
  check tint "unseen instance" 0 (Mux.pending m 499);
  while not (Mux.is_empty m) do
    ignore (Mux.take m)
  done;
  check tbool "empty after drain" true (Mux.is_empty m);
  check tint "all quiesced" 0 (Mux.pending m 3);
  check tint "grown quiesced" 0 (Mux.pending m 500)

(* Allocation pin for the service's dispatch loop: a warm mux that keeps
   cycling events (take the minimum, re-add it later) without ever
   draining allocates only the payload's option cell per event — no
   (instance, payload) pair, no result tuple, no boxed heap cell. *)
let test_mux_cycle_allocation () =
  let m = Mux.create () in
  let inst = Mux.alloc m in
  for i = 0 to 63 do
    Mux.add m ~instance:inst ~time:i ~klass:(i land 3) i
  done;
  let cycle events =
    for _ = 1 to events do
      let time = Mux.min_time m in
      let instance = Mux.min_instance m in
      let v = Mux.take m in
      Mux.add m ~instance ~time:(time + 1 + (v land 7)) ~klass:(v land 3) v
    done
  in
  cycle 10_000;
  let events = 100_000 in
  let w0 = Gc.minor_words () in
  cycle events;
  let per_event = (Gc.minor_words () -. w0) /. float_of_int events in
  check tint "standing population" 64 (Mux.pending m inst);
  check tbool
    (Printf.sprintf "%.2f minor words per cycled event <= 3" per_event)
    true (per_event <= 3.0)

let test_mux_service_events_untracked () =
  let m = Mux.create () in
  Mux.add m ~instance:(-1) ~time:0 ~klass:0 "a";
  Mux.add m ~instance:(-1) ~time:1 ~klass:0 "b";
  check tint "negative ids never tracked" 0 (Mux.pending m (-1));
  check tint "but still queued" 2 (Mux.size m)

let () =
  let quick name fn = Alcotest.test_case name `Quick fn in
  let prop t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "sim"
    [
      ( "event-queue",
        [
          quick "time order" test_queue_time_order;
          quick "class order" test_queue_class_order;
          quick "fifo within class" test_queue_fifo_within_class;
          quick "misc" test_queue_misc;
          quick "capacity retained across drains" test_queue_capacity_retained;
          quick "capacity bounded after burst" test_queue_capacity_bounded;
          quick "no payload pinning" test_queue_no_payload_pinning;
          prop prop_queue_pop_sorted;
          prop prop_queue_interleaved;
          prop prop_queue_interleaved_model;
          quick "class bound" test_queue_class_bound;
        ] );
      ( "mux",
        [
          quick "order and pending" test_mux_order_and_pending;
          quick "pending table growth" test_mux_pending_growth;
          quick "service events untracked" test_mux_service_events_untracked;
          quick "cycling allocates one payload cell per event"
            test_mux_cycle_allocation;
        ] );
      ( "network",
        [
          quick "exact" test_network_exact;
          quick "jittered" test_network_jittered;
          quick "eventually synchronous" test_network_gst;
          quick "adversary clamped" test_network_adversary_clamped;
          quick "adversary reads info" test_network_adversary_info;
        ] );
      ( "scenario",
        [
          quick "validation" test_scenario_validation;
          quick "classify" test_scenario_classify;
        ] );
      ( "engine",
        [
          quick "delivery before timeout" test_engine_delivery_before_timeout;
          quick "self-send immediate" test_engine_self_send_immediate;
          quick "crash before" test_engine_crash_before;
          quick "crash during sends" test_engine_crash_during_sends;
          quick "discard at crashed" test_engine_discard_at_crashed;
          quick "guard fuel" test_engine_guard_fuel;
          quick "timer semantics" test_engine_timer_semantics;
          quick "report accessors" test_report_accessors;
          prop prop_engine_deterministic;
        ] );
      ( "event-priority",
        [
          quick "crash before same-instant proposal"
            test_priority_crash_before_proposal;
          quick "proposal before same-instant delivery"
            test_priority_proposal_before_delivery;
          quick "delivery before same-instant timeout"
            test_priority_delivery_before_timeout;
        ] );
      ( "decision-accounting",
        [
          quick "no duplicate decide entries" test_engine_no_duplicate_decide;
          quick "conflicting re-decision flagged"
            test_engine_conflicting_redecide_flagged;
        ] );
      ( "timer-cancellation",
        [
          quick "cancel semantics" test_engine_cancel_timer;
          quick "3pc quiescent once decided" test_3pc_decided_quiescence;
          quick "inbac fast-abort cancels phase timers"
            test_inbac_fast_abort_cancels_phase_timers;
        ] );
    ]
