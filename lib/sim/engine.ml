let guard_fuel = Machine.guard_fuel

(* Event classes: crash < propose < deliver < timeout at equal time. A
   [During_sends] crash is marked by a class-4 event so that the process
   still executes its handlers at the crash instant (it dies "while
   sending", i.e. when its send budget runs out, or at the end of the
   instant otherwise). *)
let crash_class = 0
let propose_class = 1

let deliver_class (scenario : Scenario.t) =
  if scenario.Scenario.deliveries_first then 2 else 3

let timeout_class (scenario : Scenario.t) =
  if scenario.Scenario.deliveries_first then 3 else 2

let late_crash_class = 4

(* The timed driver: a discrete-event queue and a network model plugged
   into the {!Machine} interpreter through its sink. The machine owns the
   automata-composition semantics; this module only decides when each
   scheduled event fires. *)
module Make (P : Proto.PROTOCOL) (C : Proto.CONSENSUS) = struct
  module M = Machine.Make (P) (C)

  type ev =
    | Crash of Pid.t
    | Propose of Pid.t
    | Deliver of {
        src : Pid.t;
        dst : Pid.t;
        payload : M.wire;
        sent_at : Sim_time.t;
      }
    | Timeout of {
        pid : Pid.t;
        layer : Trace.layer;
        id : string;
        epoch : int;
            (* the timer's cancellation epoch at set time: a fire whose
               epoch lags the current one was cancelled in the meantime *)
      }

  let run (scenario : Scenario.t) =
    let n = scenario.Scenario.n in
    let env_of pid =
      {
        Proto.n;
        f = scenario.Scenario.f;
        u = scenario.Scenario.u;
        self = pid;
      }
    in
    let queue = Event_queue.create () in
    let rng = Rng.create scenario.Scenario.seed in
    let send_seq = ref 0 in
    let sink =
      {
        M.send =
          (fun ~now ~src ~dst payload ->
            if Pid.equal src dst then begin
              Event_queue.add queue ~time:now
                ~klass:(deliver_class scenario)
                (Deliver { src; dst; payload; sent_at = now });
              now
            end
            else begin
              let info =
                {
                  Network.src;
                  dst;
                  layer = M.layer_of_wire payload;
                  sent_at = now;
                  seq = !send_seq;
                }
              in
              incr send_seq;
              let deliver_at =
                Sim_time.( + ) now
                  (Network.delay scenario.Scenario.network rng info)
              in
              Event_queue.add queue ~time:deliver_at
                ~klass:(deliver_class scenario)
                (Deliver { src; dst; payload; sent_at = now });
              deliver_at
            end);
        M.set_timer =
          (fun ~now:_ ~pid ~layer ~id ~fire:_ ~at ~epoch ->
            Event_queue.add queue ~time:at ~klass:(timeout_class scenario)
              (Timeout { pid; layer; id; epoch }));
      }
    in
    let m = M.create ~env_of ~n ~u:scenario.Scenario.u ~sink () in
    List.iter
      (fun (pid, crash) ->
        match (crash : Scenario.crash) with
        | Scenario.Before at ->
            Event_queue.add queue ~time:at ~klass:crash_class (Crash pid)
        | Scenario.During_sends (at, k) ->
            M.set_send_budget m pid ~at k;
            Event_queue.add queue ~time:at ~klass:late_crash_class (Crash pid))
      scenario.Scenario.crashes;
    List.iter
      (fun pid ->
        Event_queue.add queue ~time:Sim_time.zero ~klass:propose_class
          (Propose pid))
      (Pid.all ~n);
    (* Returns whether the event actually happened: a cancelled timeout is
       suppressed as if it had been removed from the queue, in particular
       it must not count as activity for the quiescence timestamp. *)
    let handle_event ~now = function
      | Crash pid -> M.crash m ~now pid; true
      | Propose pid ->
          M.propose m ~now pid scenario.Scenario.votes.(Pid.index pid);
          true
      | Deliver { src; dst; payload; sent_at } ->
          M.deliver m ~now ~sent_at ~src ~dst payload;
          true
      | Timeout { pid; layer; id; epoch } ->
          M.timeout m ~now ~pid ~layer ~id ~epoch
    in
    let last_event_time = ref Sim_time.zero in
    let rec loop () =
      if Event_queue.is_empty queue then Report.Quiescent !last_event_time
      else
        let time = Event_queue.min_time queue in
        if time > scenario.Scenario.max_time then Report.Max_time_reached
        else begin
          if handle_event ~now:time (Event_queue.take queue) then
            last_event_time := time;
          loop ()
        end
    in
    let outcome = loop () in
    {
      Report.scenario;
      protocol = P.name;
      consensus = (if P.uses_consensus then Some C.name else None);
      trace = M.trace m;
      decisions = M.decisions m;
      crashed_at = M.crashed_at m;
      outcome;
    }
end
