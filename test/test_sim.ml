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
  let q = Event_queue.create ~vacant:0 in
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
  let q = Event_queue.create ~vacant:"" in
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
  let q = Event_queue.create ~vacant:0 in
  List.iter (fun i -> Event_queue.add q ~time:1 ~klass:1 i) [ 10; 20; 30 ];
  let first = Event_queue.pop q and second = Event_queue.pop q in
  check tbool "insertion order preserved" true
    (match (first, second) with
    | Some (_, _, 10), Some (_, _, 20) -> true
    | _ -> false)

let test_queue_misc () =
  let q = Event_queue.create ~vacant:() in
  check tbool "fresh queue empty" true (Event_queue.is_empty q);
  check tbool "no pop" true (Event_queue.pop q = None);
  Event_queue.add q ~time:3 ~klass:0 ();
  check tint "size" 1 (Event_queue.size q);
  Alcotest.check_raises "negative time"
    (Invalid_argument "Event_queue.add: negative time") (fun () ->
      Event_queue.add q ~time:(-1) ~klass:0 ());
  Event_queue.take q;
  check tint "taken time" 3 (Event_queue.taken_time q);
  Alcotest.check_raises "take from an empty queue"
    (Invalid_argument "Event_queue.take: empty queue") (fun () ->
      Event_queue.take q)

let prop_queue_pop_sorted =
  QCheck.Test.make ~count:300 ~name:"pop order is (time, class, seq) sorted"
    QCheck.(small_list (pair (int_range 0 50) (int_range 0 3)))
    (fun entries ->
      let q = Event_queue.create ~vacant:(0, 0, 0) in
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
   order) with its tag and argument, drawn over the whole int range. *)
let prop_queue_interleaved_model =
  let op =
    QCheck.Gen.(
      frequency
        [
          ( 3,
            map4
              (fun t k g a -> `Add (t, k, g, a))
              (int_range 0 3) (int_range 0 63) nat int );
          (2, return `Take);
        ])
  in
  QCheck.Test.make ~count:100
    ~name:"interleaved add/take match a sorted-list model"
    QCheck.(make Gen.(list_size (int_range 0 2000) op))
    (fun ops ->
      let q = Event_queue.create ~vacant:(-1) in
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
        | ((time, klass, sq), (tag, arg)) :: rest ->
            model := rest;
            Event_queue.take q = sq
            && Event_queue.taken_time q = time
            && Event_queue.taken_klass q = klass
            && Event_queue.taken_tag q = tag
            && Event_queue.taken_arg q = arg
      in
      let ok =
        List.for_all
          (function
            | `Add (time, klass, tag, arg) ->
                Event_queue.add_tagged q ~time ~klass ~tag ~arg !seq;
                model := insert ((time, klass, !seq), (tag, arg)) !model;
                incr seq;
                true
            | `Take -> take_ok ())
          ops
      in
      let rec drain () = !model = [] || (take_ok () && drain ()) in
      ok && drain () && Event_queue.is_empty q)

(* The tick ring and its overflow heap against a sorted model, driven the
   way the service drives the queue: a monotone clock (the latest popped
   time) and adds at it, up to 2U past it and at 12U past it (an election
   timer, beyond the 4096-tick window), at the window's edge, anywhere in
   0..2^20, and behind the clock. Each run fills past the ring threshold (128
   events), interleaves adds and takes, drains, and fills past it again,
   so events move between the tiers as the window slides, and a drain of
   a queue grown past 256 slots shrinks it. Every event carries an
   argument unique to it, spread over the whole int range. *)
(* an argument for the [seq]-th event: distinct per event, and of every
   magnitude and sign *)
let arg_of seq = (seq * 0x9E3779B97F4A7C1) lxor (seq lsl 40)

type ring_op =
  | After of int * int * int  (* (delay past the clock, class, tag) *)
  | At of int * int * int  (* (absolute time, class, tag) *)
  | Behind of int * int * int  (* (distance before the clock, class, tag) *)
  | Take
  | Drain

let prop_queue_ring_model =
  let add =
    QCheck.Gen.(
      let klass = int_range 0 3 in
      frequency
        [
          (4, map2 (fun k g -> After (0, k, g)) klass nat);
          (12, map3 (fun d k g -> After (d, k, g)) (int_range 0 (2 * u)) klass nat);
          (2, map2 (fun k g -> After (12 * u, k, g)) klass nat);
          ( 1,
            map3 (fun d k g -> After (d, k, g)) (oneofl [ 4095; 4096; 4097 ])
              klass nat );
          ( 1,
            map3 (fun t k g -> At (t, k, g)) (int_range 0 (1 lsl 20))
              (int_range 0 63) nat );
          (1, map3 (fun d k g -> Behind (d, k, g)) (int_range 1 (3 * u)) klass nat);
        ])
  in
  let fill = QCheck.Gen.(list_size (int_range 150 400) add) in
  let mixed =
    QCheck.Gen.(list_size (int_range 0 1500) (frequency [ (1, add); (1, return Take) ]))
  in
  let ops =
    QCheck.Gen.map4
      (fun a b c d -> a @ b @ (Drain :: c) @ d)
      fill mixed fill mixed
  in
  let module Model = Set.Make (struct
    type t = int * int * int * int  (* time, class, seq, tag *)

    let compare = compare
  end) in
  QCheck.Test.make ~count:40
    ~name:"ring and overflow heap match a sorted model across the window"
    (QCheck.make ops) (fun ops ->
      let q = Event_queue.create ~vacant:(-1) in
      let model = ref Model.empty and seq = ref 0 and clock = ref 0 in
      let add time klass tag =
        Event_queue.add_tagged q ~time ~klass ~tag ~arg:(arg_of !seq) !seq;
        model := Model.add (time, klass, !seq, tag) !model;
        incr seq
      in
      let take_ok () =
        match Model.min_elt_opt !model with
        | None -> Event_queue.is_empty q
        | Some ((time, klass, sq, tag) as e) ->
            model := Model.remove e !model;
            clock := max !clock time;
            Event_queue.size q = Model.cardinal !model + 1
            && Event_queue.take q = sq
            && Event_queue.taken_time q = time
            && Event_queue.taken_klass q = klass
            && Event_queue.taken_tag q = tag
            && Event_queue.taken_arg q = arg_of sq
      in
      let rec drain () = Model.is_empty !model || (take_ok () && drain ()) in
      let ok =
        List.for_all
          (function
            | After (d, k, g) -> add (!clock + d) k g; true
            | At (t, k, g) -> add t k g; true
            | Behind (d, k, g) -> add (max 0 (!clock - d)) k g; true
            | Take -> take_ok ()
            | Drain -> drain () && Event_queue.is_empty q)
          ops
      in
      ok && drain () && Event_queue.is_empty q)

let test_queue_class_bound () =
  let q = Event_queue.create ~vacant:"" in
  Event_queue.add q ~time:0 ~klass:63 "top class";
  Alcotest.check_raises "class 64"
    (Invalid_argument "Event_queue.add: class above 63") (fun () ->
      Event_queue.add q ~time:0 ~klass:64 "too high");
  Alcotest.check_raises "negative class"
    (Invalid_argument "Event_queue.add: negative class") (fun () ->
      Event_queue.add q ~time:0 ~klass:(-1) "negative");
  check tint "rejected adds leave the queue alone" 1 (Event_queue.size q);
  check Alcotest.string "the accepted event" "top class" (Event_queue.take q);
  check tint "class 63 accepted" 63 (Event_queue.taken_klass q)

(* Drain/refill capacity retention: the engine's queue empties between
   instants, and before the fix every drain dropped the backing array
   (`t.heap <- [||]`), so each refill re-grew from 16 with a rehash
   cascade. Capacity must now survive a drain — and be bounded, so a
   one-off burst does not pin a huge array forever. *)
let test_queue_capacity_retained () =
  let q = Event_queue.create ~vacant:0 in
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
  let q = Event_queue.create ~vacant:0 in
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
  let q = Event_queue.create ~vacant:Bytes.empty in
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
   queued, with that event's tag, through the [taken_*] readers, and
   [take] must hand back its payload — including after the queue
   fully drains and refills (which exercises the backing-array release
   and regrowth-from-empty paths). *)
let prop_queue_interleaved =
  QCheck.Test.make ~count:300
    ~name:"interleaved adds/pops preserve the heap property"
    QCheck.(
      small_list
        (option (triple (int_range 0 50) (int_range 0 3) small_signed_int)))
    (fun ops ->
      let q = Event_queue.create ~vacant:(0, 0, 0) in
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
              || Event_queue.take q <> key
              || Event_queue.taken_time q <> time
              || Event_queue.taken_klass q <> klass
              || Event_queue.taken_tag q <> tag
              || Event_queue.taken_arg q <> arg_of (let _, _, s = key in s)
            then ok := false;
            model := List.filter (fun (k, _) -> k <> key) !model
      in
      List.iter
        (function
          | Some (time, klass, tag) ->
              Event_queue.add_tagged q ~time ~klass ~tag ~arg:(arg_of !seq)
                (time, klass, !seq);
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
  let hash_state h s =
    Fingerprint.add_int h s.heard;
    Fingerprint.add_bool h s.decided

  let hash_msg _h Ping = ()
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
  let hash_state h s = Fingerprint.add_bool h s.proposed
  let hash_msg _h Ping = ()
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
  let hash_state h s =
    Fingerprint.add_int h (List.length s.fired);
    List.iter
      (fun (id, at) ->
        Fingerprint.add_string h id;
        Fingerprint.add_int h at)
      s.fired

  let hash_msg _h (m : msg) = (match m with _ -> .)
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
  let hash_state _h () = ()
  let hash_msg _h (m : msg) = (match m with _ -> .)
  let symmetry ~n ~f:_ = Symmetry.trivial ~n
end

module Bad_guard_engine = Engine.Make (Bad_guard) (Consensus_null)

let test_engine_guard_fuel () =
  Alcotest.match_raises "guard loop detected"
    (function Failure msg -> String.length msg > 0 | _ -> false)
    (fun () -> ignore (Bad_guard_engine.run (Scenario.nice ~n:2 ~f:1 ())))

(* [Re_decider] (test/re_decider.ml) decides twice. The engine must
   trace the first decision once, swallow the harmless repeat, and trace
   (but not record) the conflicting one so Check can flag it. *)
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

(* Every process votes no, so every first decision is abort and only
   the re-decisions break agreement. *)
let test_engine_conflicting_redecide_flagged () =
  let scenario =
    Scenario.with_no_votes (Scenario.nice ~n:3 ~f:1 ()) (Pid.all ~n:3)
  in
  let report = Re_decider_engine.run scenario in
  check tint "conflicting re-decision traced" 2
    (List.length (decide_entries report (Pid.of_rank 2)));
  check tbool "first decision stands in the report" true
    (match Report.decision_of report (Pid.of_rank 2) with
    | Some (_, d) -> Vote.decision_equal d Vote.abort
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
  let hash_state _h () = ()
  let hash_msg _h (m : msg) = (match m with _ -> .)
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
(* Tagged events, as the multi-shot service drives the queue *)

(* Take the minimum, then read its time and tag. *)
let take_tagged q =
  if Event_queue.is_empty q then Alcotest.fail "unexpected empty queue";
  let v = Event_queue.take q in
  (Event_queue.taken_time q, Event_queue.taken_tag q, v)

let test_queue_taken_fields () =
  let q = Event_queue.create ~vacant:"" in
  Event_queue.add_tagged q ~tag:1 ~arg:max_int ~time:5 ~klass:2 "i1-late";
  Event_queue.add_tagged q ~tag:0 ~arg:0 ~time:5 ~klass:1 "i0-propose";
  Event_queue.add_tagged q ~tag:1 ~arg:(1 lsl 42) ~time:3 ~klass:2 "i1-early";
  Event_queue.add_tagged q ~tag:(-1) ~arg:min_int ~time:5 ~klass:1 "service";
  check tint "size counts every event" 4 (Event_queue.size q);
  check tbool "time order first" true (take_tagged q = (3, 1, "i1-early"));
  check tint "taken class" 2 (Event_queue.taken_klass q);
  check tint "taken argument" (1 lsl 42) (Event_queue.taken_arg q);
  (* equal time: class order, then insertion order within a class —
     exactly the engine's (time, class, sequence) law *)
  check tbool "class then fifo" true (take_tagged q = (5, 0, "i0-propose"));
  check tint "taken class" 1 (Event_queue.taken_klass q);
  check tbool "negative tag interleaves" true
    (take_tagged q = (5, -1, "service"));
  check tint "negative argument" min_int (Event_queue.taken_arg q);
  check tbool "last" true (take_tagged q = (5, 1, "i1-late"));
  check tbool "drained" true (Event_queue.is_empty q);
  check tbool "readings outlive the drain" true
    (Event_queue.taken_time q = 5 && Event_queue.taken_tag q = 1
    && Event_queue.taken_arg q = max_int);
  Alcotest.check_raises "no minimum when drained"
    (Invalid_argument "Event_queue.take: empty queue") (fun () ->
      ignore (Event_queue.take q))

(* Float payloads make the payload array a flat float array: they must
   come back exact through growth, the ring and the shrink after a
   burst. *)
let test_queue_float_payloads () =
  let q = Event_queue.create ~vacant:Float.nan in
  for i = 0 to 299 do
    Event_queue.add q ~time:(299 - i) ~klass:0 (float_of_int i +. 0.5)
  done;
  let wrong = ref 0 in
  for t = 0 to 299 do
    if Event_queue.take q <> float_of_int (299 - t) +. 0.5 then incr wrong
  done;
  check tint "every payload comes back in time order" 0 !wrong;
  check tbool "drained" true (Event_queue.is_empty q)

(* The service's tags put a drive count above 20 slot bits, and its
   arguments pack pids and a send instant into 62 bits: every tag and
   argument must come back intact as the queue grows and starts its ring. *)
let test_queue_tags_through_growth () =
  let q = Event_queue.create ~vacant:(-1) in
  let tag i = ((i + 1) lsl 20) lor (i land 1023) in
  for i = 0 to 999 do
    Event_queue.add_tagged q ~tag:(tag i) ~arg:(arg_of i) ~time:(i mod 10)
      ~klass:0 i
  done;
  Event_queue.add q ~time:0 ~klass:0 (-2);
  let wrong = ref 0 in
  while not (Event_queue.is_empty q) do
    let v = Event_queue.take q in
    let tag, arg = if v = -2 then (0, 0) else (tag v, arg_of v) in
    if Event_queue.taken_tag q <> tag || Event_queue.taken_arg q <> arg then
      incr wrong
  done;
  check tint "untagged events read tag and argument 0, tagged ones their own"
    0 !wrong

(* Arguments live in the payload slots: they must follow their events
   through growth, from the overflow heap into the sliding ring, and
   through the shrink that a drain after a burst does, then through the
   regrowth of the shrunk queue. *)
let test_queue_args_through_tiers () =
  let q = Event_queue.create ~vacant:(-1) in
  let round events =
    (* times up to 5 windows ahead: most start in the heap and migrate *)
    for i = 0 to events - 1 do
      Event_queue.add_tagged q ~tag:i ~arg:(arg_of i)
        ~time:(Event_queue.taken_time q + (i * 7919 mod 20_000))
        ~klass:(i land 3) i
    done;
    let wrong = ref 0 in
    for _ = 1 to events do
      let v = Event_queue.take q in
      if Event_queue.taken_arg q <> arg_of v || Event_queue.taken_tag q <> v
      then incr wrong
    done;
    !wrong
  in
  check tint "a burst: every argument back" 0 (round 3000);
  check tbool "the drain shrank the queue" true (Event_queue.capacity q <= 256);
  check tint "again after the shrink" 0 (round 1000)

(* Allocation pin for the service's dispatch loop: a warm queue that
   keeps cycling tagged int events with an argument (take the minimum,
   re-add it later) without ever draining allocates nothing per event —
   no option cell, no result tuple, no boxed heap cell. *)
let test_queue_cycle_allocation () =
  let q = Event_queue.create ~vacant:(-1) in
  for i = 0 to 63 do
    Event_queue.add_tagged q ~tag:7 ~arg:i ~time:i ~klass:(i land 3) i
  done;
  let cycle events =
    for _ = 1 to events do
      let v = Event_queue.take q in
      let time = Event_queue.taken_time q and tag = Event_queue.taken_tag q in
      let arg = Event_queue.taken_arg q in
      Event_queue.add_tagged q ~tag ~arg:(arg + 1)
        ~time:(time + 1 + (v land 7))
        ~klass:(v land 3) v
    done
  in
  cycle 10_000;
  let events = 100_000 in
  let w0 = Gc.minor_words () in
  cycle events;
  let per_event = (Gc.minor_words () -. w0) /. float_of_int events in
  check tint "standing population" 64 (Event_queue.size q);
  check tbool
    (Printf.sprintf "%.4f minor words per cycled event < 0.01" per_event)
    true (per_event < 0.01)

(* ------------------------------------------------------------------ *)
(* Machine reset *)

(* [Machine.reset] must return a used machine to exactly the state
   [Machine.create] builds: the commit service runs every instance after
   the first on a reset machine. One machine runs a first instance
   (proposals, every delivery and timer it arms, a crash) and is reset;
   then it and a freshly created machine run a second schedule in
   lockstep. After every step they must agree on decisions, crash
   instants, state digests and the epoch of every timer either instance
   armed, and at the end on the rendered trace. *)
module Reset_check (P : Proto.PROTOCOL) (C : Proto.CONSENSUS) = struct
  module M = Machine.Make (P) (C)

  type event =
    | Deliver of { src : Pid.t; dst : Pid.t; sent_at : Sim_time.t; wire : M.wire }
    | Timeout of { pid : Pid.t; layer : Trace.layer; id : string; epoch : int }

  let vacant =
    Timeout { pid = Pid.of_index 0; layer = Trace.Commit_layer; id = ""; epoch = 0 }

  let n = 3
  let env_of self = { Proto.n; f = 1; u; self }

  (* Deliveries take one U (self-sends none), deliveries before timeouts
     at one instant, as in the engine. Every armed timer's name is
     recorded in [timers]. *)
  let sink timers q =
    {
      M.send =
        (fun ~now ~src ~dst wire ->
          let at = if Pid.equal src dst then now else Sim_time.( + ) now u in
          Event_queue.add q ~time:at ~klass:0
            (Deliver { src; dst; sent_at = now; wire });
          at);
      set_timer =
        (fun ~now:_ ~pid ~layer ~id ~fire:_ ~at ~epoch ->
          timers := (layer, id) :: !timers;
          Event_queue.add q ~time:at ~klass:1 (Timeout { pid; layer; id; epoch }));
    }

  let describe (t, k, e) =
    match e with
    | Deliver { src; dst; wire; _ } ->
        Printf.sprintf "%d/%d deliver %s->%s %s" t k (Pid.to_string src)
          (Pid.to_string dst) (M.tag_of_wire wire)
    | Timeout { pid; id; epoch; _ } ->
        Printf.sprintf "%d/%d timeout %s %s@%d" t k (Pid.to_string pid) id epoch

  let apply m (now, _, e) =
    match e with
    | Deliver { src; dst; sent_at; wire } ->
        M.deliver m ~now ~sent_at ~src ~dst wire
    | Timeout { pid; layer; id; epoch } ->
        ignore (M.timeout m ~now ~pid ~layer ~id ~epoch)

  (* Drive each (machine, queue) pair through one schedule in lockstep:
     proposals at 0, then every queued event in (time, class, seq) order,
     crashing [crash] before the [at]-th event; [after] runs after each
     step. The pairs must pop the same events. *)
  let drive runs ~votes ~crash ~at ~after =
    List.iter
      (fun (m, _) ->
        Array.iteri
          (fun i v -> M.propose m ~now:Sim_time.zero (Pid.of_index i) v)
          votes)
      runs;
    after ();
    let rec loop step now =
      if step = at then begin
        List.iter (fun (m, _) -> M.crash m ~now crash) runs;
        after ()
      end;
      match List.map (fun (_, q) -> Event_queue.pop q) runs with
      | Some ((t, _, _) as ev) :: rest when step < 2_000 ->
          List.iter
            (fun other ->
              check (Alcotest.option Alcotest.string) "same next event"
                (Some (describe ev)) (Option.map describe other))
            rest;
          List.iter2
            (fun (m, _) e -> Option.iter (apply m) e)
            runs (Some ev :: rest);
          after ();
          loop (step + 1) t
      | _ -> ()
    in
    loop 0 Sim_time.zero

  let digest hash state =
    let h = Fingerprint.create () in
    hash h state;
    Fingerprint.digest h

  let agree timers a b =
    check tbool "decisions" true (M.decisions a = M.decisions b);
    check tbool "crash instants" true (M.crashed_at a = M.crashed_at b);
    List.iter
      (fun p ->
        check tbool "protocol state digest" true
          (Fingerprint.equal
             (digest P.hash_state (M.pstate a p))
             (digest P.hash_state (M.pstate b p)));
        check tbool "consensus state digest" true
          (Fingerprint.equal
             (digest C.hash_state (M.cstate a p))
             (digest C.hash_state (M.cstate b p)));
        List.iter
          (fun (layer, id) ->
            check tint "timer epoch" (M.timer_epoch b p layer id)
              (M.timer_epoch a p layer id))
          !timers)
      (Pid.all ~n)

  let test ~first:(votes1, crash1, at1) ~second:(votes2, crash2, at2) () =
    let timers = ref [] in
    let q1 = Event_queue.create ~vacant in
    let m = M.create ~env_of ~n ~u ~sink:(sink timers q1) () in
    drive [ (m, q1) ] ~votes:votes1 ~crash:(Pid.of_rank crash1) ~at:at1
      ~after:ignore;
    let used = !timers in
    let qa = Event_queue.create ~vacant and qb = Event_queue.create ~vacant in
    M.reset m ~sink:(sink timers qa);
    let fresh = M.create ~env_of ~n ~u ~sink:(sink timers qb) () in
    check tbool "the first instance armed timers" true (used <> []);
    drive [ (m, qa); (fresh, qb) ] ~votes:votes2 ~crash:(Pid.of_rank crash2)
      ~at:at2 ~after:(fun () -> agree timers m fresh);
    check Alcotest.string "trace"
      (Format.asprintf "%a" Trace.pp (M.trace fresh))
      (Format.asprintf "%a" Trace.pp (M.trace m))
end

module Reset_inbac = Reset_check (Inbac) (Consensus_paxos)
module Reset_2pc = Reset_check (Two_pc) (Consensus_null)

let yes3 = [| Vote.yes; Vote.yes; Vote.yes |]
let one_no3 = [| Vote.yes; Vote.no; Vote.yes |]

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
          prop prop_queue_ring_model;
          quick "class bound" test_queue_class_bound;
        ] );
      ( "tagged-events",
        [
          quick "taken fields follow (time, class, seq)" test_queue_taken_fields;
          quick "tags survive growth" test_queue_tags_through_growth;
          quick "arguments through the tiers" test_queue_args_through_tiers;
          quick "float payloads" test_queue_float_payloads;
          quick "cycling allocates nothing per event"
            test_queue_cycle_allocation;
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
      ( "machine-reset",
        [
          quick "inbac: reset = create"
            (Reset_inbac.test ~first:(yes3, 2, 4) ~second:(one_no3, 1, 2));
          quick "2pc: reset = create"
            (Reset_2pc.test ~first:(yes3, 1, 1) ~second:(one_no3, 3, 5));
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
