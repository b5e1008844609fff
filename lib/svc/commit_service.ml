type spec = {
  clients : int;
  txns : int;
  think_gap : Sim_time.t;
  keys : int;
  zipf_s : float;
  reads_per_txn : int;
  writes_per_txn : int;
  batch_window : Sim_time.t;
  max_batch : int;
  pipeline_depth : int;
  wait_budget : int;
  network : Network.t;
  outages : (int * Sim_time.t * Sim_time.t option) list;
  election_timeout : Sim_time.t option;
  flush_every : int;
  max_time : Sim_time.t;
  seed : int;
}

let default =
  let u = Sim_time.default_u in
  {
    clients = 128;
    txns = 1000;
    think_gap = u;
    keys = 2048;
    (* the exponent under which the 16 hottest of 2048 keys draw 10% of
       the accesses: Workload.Zipf.(s (of_hot ~keys:2048 ~hot_keys:16
       ~hot_fraction:0.1)), written out so start-up does no bisection *)
    zipf_s = 0x1.24139f98d46p-1;
    reads_per_txn = 2;
    writes_per_txn = 2;
    batch_window = u / 2;
    max_batch = 8;
    pipeline_depth = 64;
    wait_budget = 64;
    network = Network.jittered ~u;
    outages = [];
    election_timeout = Some (12 * u);
    flush_every = 0;
    max_time = 100_000 * u;
    seed = 11;
  }

(* Event classes at equal simulated time, matching the engine: crashes <
   proposals/service events < deliveries < timeouts. *)
let crash_class = 0
let service_class = 1
let deliver_class = 2
let timeout_class = 3

let u = Sim_time.default_u

(* An instance event's tag is its drive count above the slot of its
   instance record: unique for the whole run, though records recycle. *)
let slot_bits = 20
let slot_mask = (1 lsl slot_bits) - 1

(* An event's int argument packs what a record would carry, within these
   bounds (OCaml ints have 62 bits for non-negative values):
   - a pid index takes [pid_bits] = 10 bits, so n <= [max_n] = 1024;
   - a delivery packs its send instant above its source and destination
     pids, in the 42 bits left. A send happens while an event at or
     before [max_time] is handled, so [max_time <= max_send_instant]
     (2^42 - 1 ticks, about 4.4e9 delays) bounds every send instant;
   - a timeout packs its cancellation epoch above its layer bit and its
     pid, in the 51 bits left. An epoch counts one process's
     cancellations of one timer within one drive, and the sink refuses
     one past [max_epoch] (2^51 - 1) rather than wrap it.
   [run] checks n and [max_time]. *)
let pid_bits = 10
let max_n = 1 lsl pid_bits
let pid_mask = max_n - 1
let max_send_instant = (1 lsl (62 - (2 * pid_bits))) - 1
let max_epoch = (1 lsl (62 - pid_bits - 1)) - 1

let[@inline] pack_delivery ~src ~dst ~sent_at =
  (((sent_at lsl pid_bits) lor Pid.index src) lsl pid_bits) lor Pid.index dst

let[@inline] pack_timer ~pid ~layer ~epoch =
  let layer_bit =
    match layer with Trace.Commit_layer -> 0 | Trace.Consensus_layer -> 1
  in
  (((epoch lsl 1) lor layer_bit) lsl pid_bits) lor Pid.index pid

let[@inline] packed_pid arg = Pid.of_index (arg land pid_mask)
let[@inline] packed_src arg = Pid.of_index ((arg lsr pid_bits) land pid_mask)
let[@inline] packed_sent_at arg = arg lsr (2 * pid_bits)

let[@inline] packed_layer arg =
  if (arg lsr pid_bits) land 1 = 0 then Trace.Commit_layer
  else Trace.Consensus_layer

let[@inline] packed_epoch arg = arg lsr (pid_bits + 1)

(* an instance's outcome, shared by every instance that reaches it *)
let some_commit = Some Vote.Commit
let some_abort = Some Vote.Abort

module Make (P : Proto.PROTOCOL) (C : Proto.CONSENSUS) = struct
  module M = Machine.Make (P) (C)

  (* One commit instance; a retired record and its machine serve the next
     launch. *)
  type inst = {
    slot : int;  (* its index in [slots], for life *)
    mutable tag : int;
        (* the tag of its current drive, so events of an earlier drive
           (a stale crash broadcast, a beaten election timer) miss it; -1
           while pooled *)
    mutable pending : int;  (* events queued under [tag] *)
    mutable hid : int;  (* the holder id admission launched it under *)
    mutable i_id : int;  (* launch order *)
    mutable i_members : Svc_admission.waiter array;
        (* the holder's, oldest first: the first [i_count] *)
    mutable i_count : int;
    votes : Vote.t array;
    machine : M.t;
    mutable sink : M.sink;  (* built once, for the record's life *)
    mutable started : Sim_time.t;  (* the current drive's start *)
    mutable outcome : Vote.decision option;  (* None while running/parked *)
    mutable quiesced : bool;
    resolved : bool array;  (* per shard: staged writes applied/discarded *)
    mutable elected : bool;  (* current drive is a stand-in replay *)
    mutable parked_at : Sim_time.t option;  (* first park instant *)
  }

  (* The service's events and, tagged with their instance, one commit
     instance's events (mirroring the engine's event type). An event's
     ints travel in its queue slot, as its argument ([arg]), so only a
     delivery's message and a timeout's timer id need a block. *)
  type sev =
    | Submit  (* arg: the client *)
    | Launch_batch  (* batch-window expiry; tag: the serial, arg: the holder *)
    | Outage  (* arg: the shard's index *)
    | Recover  (* arg: the shard's index *)
    | Elect  (* election timer of the instance the event is tagged with *)
    | Propose  (* arg: the shard's index *)
    | Deliver of M.wire  (* arg: [pack_delivery] *)
    | Timeout of string  (* the timer's id; arg: [pack_timer] *)
    | Crash  (* arg: the shard's index *)

  type t = {
    spec : spec;
    n : int;
    env_of : Pid.t -> Proto.env;
    q : sev Event_queue.t;
    rng : Rng.t;
    dist : Workload.Zipf.t;
    ks : Keyspace.t;
    hist : Svc_history.t;
    down : bool array;
    scratch : int array;  (* the key indices of the transaction being drawn *)
    owner_scratch : int array;  (* the owner shards of its writes *)
    mutable slots : inst array;
        (* every record by its slot; past [nslots], filler no tag names *)
    mutable nslots : int;
    mutable pool : inst list;  (* retired records *)
    mutable drives : int;
  }

  (* Enqueue an event of [inst]'s current drive. *)
  let add_event t inst ~time ~klass ~arg ev =
    inst.pending <- inst.pending + 1;
    Event_queue.add_tagged t.q ~time ~klass ~tag:inst.tag ~arg ev

  (* The instance-tagged sink: one network, one clock, one rng across
     all instances. Protocols express "set timer to time k" as an
     absolute instant ([At_delay k] = k * U), written against a run
     that starts at time zero — re-anchor those to the instance's own
     start so instance k+1's automata are oblivious to the service
     clock. [After] timers are already relative. Built once per record,
     it reads the current drive's start from the record. *)
  let sink t inst =
    {
      M.send =
        (fun ~now ~src ~dst payload ->
          let at =
            if Pid.equal src dst then now
            else
              let seq = Svc_history.sent t.hist in
              Sim_time.( + ) now
                (Network.delay t.spec.network t.rng ~src ~dst
                   ~layer:(M.layer_of_wire payload) ~sent_at:now ~seq)
          in
          add_event t inst ~time:at ~klass:deliver_class
            ~arg:(pack_delivery ~src ~dst ~sent_at:now) (Deliver payload);
          at);
      M.set_timer =
        (fun ~now ~pid ~layer ~id ~fire ~at ~epoch ->
          let at =
            match fire with
            | Proto.At_delay k ->
                Sim_time.max now
                  (Sim_time.( + ) inst.started (Sim_time.of_delays ~u k))
            | Proto.After _ -> at
          in
          if epoch > max_epoch then
            failwith "Commit_service: timer epoch past 2^51";
          add_event t inst ~time:at ~klass:timeout_class
            ~arg:(pack_timer ~pid ~layer ~epoch) (Timeout id));
    }

  (* a blank record's machine, until [drive] resets it under [sink] *)
  let idle_sink =
    { M.send = (fun ~now ~src:_ ~dst:_ _ -> now);
      M.set_timer = (fun ~now:_ ~pid:_ ~layer:_ ~id:_ ~fire:_ ~at:_ ~epoch:_ -> ()) }

  (* live instances satisfying [p], in launch order *)
  let live t p =
    let acc = ref [] in
    for s = 0 to t.nslots - 1 do
      let inst = t.slots.(s) in
      if inst.tag >= 0 && p inst then acc := inst :: !acc
    done;
    List.sort (fun a b -> Int.compare a.i_id b.i_id) !acc

  (* an instance's first events: the down shards crash, unless [replay],
     and every shard proposes its vote *)
  let schedule_instance_events t inst now ~replay =
    if not replay then
      for i = 0 to t.n - 1 do
        if t.down.(i) then
          add_event t inst ~time:now ~klass:crash_class ~arg:i Crash
      done;
    for i = 0 to t.n - 1 do
      add_event t inst ~time:now ~klass:service_class ~arg:i Propose
    done

  let resubmit t now client =
    let think = 1 + Rng.int t.rng ~bound:(Int.max 1 t.spec.think_gap) in
    Event_queue.add_tagged t.q
      ~time:(Sim_time.( + ) now think)
      ~klass:service_class ~tag:0 ~arg:client Submit

  (* Give [inst] a fresh tag with no event under it and restart its
     machine: at launch and at every re-drive. *)
  let drive t now inst =
    t.drives <- t.drives + 1;
    inst.tag <- (t.drives lsl slot_bits) lor inst.slot;
    inst.pending <- 0;
    inst.started <- now;
    M.reset inst.machine ~sink:inst.sink;
    inst.quiesced <- false;
    Svc_history.driven t.hist

  (* a blank record in the next slot; [drive] resets its machine *)
  let new_inst t hid =
    let slot = t.nslots in
    if slot > slot_mask then failwith "Commit_service: instance slots exhausted";
    let inst =
      { slot; tag = -1; pending = 0; hid; i_id = 0; i_members = [||];
        i_count = 0; outcome = None; votes = Array.make t.n Vote.no;
        quiesced = false;
        machine =
          M.create ~record_trace:false ~env_of:t.env_of ~n:t.n ~u
            ~sink:idle_sink ();
        sink = idle_sink; started = 0; resolved = Array.make t.n false;
        elected = false; parked_at = None }
    in
    inst.sink <- sink t inst;
    if slot = Array.length t.slots then
      t.slots <- Array.append t.slots (Array.make (Int.max 16 slot) inst);
    t.slots.(slot) <- inst;
    t.nslots <- slot + 1;
    inst

  (* Admission's launch under holder [hid]: stage the members' writes,
     take a record, vote and drive. *)
  let launch t now hid (members : Svc_admission.waiter array) count =
    (* write-ahead: every owner stages its legs before voting *)
    for m = 0 to count - 1 do
      let w = members.(m) in
      let shards = Svc_admission.shards w.w_owners in
      for s = 0 to Array.length shards - 1 do
        Keyspace.stage t.ks ~shard:shards.(s) ~txn:w.w_id w.w_keys
          ~writes:w.w_writes
      done
    done;
    let inst =
      match t.pool with
      | inst :: rest ->
          t.pool <- rest;
          inst
      | [] -> new_inst t hid
    in
    inst.hid <- hid;
    inst.i_id <- Svc_history.launched t.hist ~members:count;
    inst.i_members <- members;
    inst.i_count <- count;
    inst.outcome <- None;
    Array.fill inst.resolved 0 t.n false;
    inst.elected <- false;
    inst.parked_at <- None;
    (* a shard votes no iff some read it owns is stale; admission dropped
       stale members, so a no vote shows a launch filter that let one
       through *)
    Array.fill inst.votes 0 t.n Vote.yes;
    for m = 0 to count - 1 do
      let w = members.(m) in
      for j = 0 to w.w_reads - 1 do
        let k = Svc_admission.read_key w j in
        if Keyspace.version t.ks k <> Svc_admission.read_version w j then
          inst.votes.(Keyspace.owner t.ks k) <- Vote.no
      done
    done;
    drive t now inst;
    schedule_instance_events t inst now ~replay:false

  (* Re-run a parked instance from its recorded votes: after a recovery,
     or [elected] by a stand-in as a crash-free replay, so a blocking
     protocol does not just park again. *)
  let redrive t now ~elected inst =
    if elected then Svc_history.elected t.hist else Svc_history.retried t.hist;
    inst.elected <- elected;
    drive t now inst;
    schedule_instance_events t inst now ~replay:elected

  (* apply or discard the staged writes at one shard and release its
     locks: at the decision if the shard is up, else when it recovers *)
  let resolve_at_shard t adm inst shard =
    let commit =
      match inst.outcome with Some Vote.Commit -> true | _ -> false
    in
    for m = 0 to inst.i_count - 1 do
      let txn = inst.i_members.(m).w_id in
      if commit then Keyspace.apply t.ks ~shard ~txn
      else Keyspace.discard t.ks ~shard ~txn
    done;
    Svc_admission.release adm ~shard inst.hid;
    inst.resolved.(shard) <- true

  let check_staging t inst =
    let decided = Option.is_some inst.outcome in
    for m = 0 to inst.i_count - 1 do
      let w = inst.i_members.(m) in
      Svc_history.check_staged t.hist t.ks ~decided ~resolved:inst.resolved
        ~txn:w.w_id (Svc_admission.shards w.w_owners)
    done

  (* An instance whose every shard resolved is pure history: check its
     staging now, then recycle the slot, the holder id and the record. *)
  let maybe_retire t adm inst =
    match inst.outcome with
    | Some _ when Array.for_all Fun.id inst.resolved ->
        check_staging t inst;
        Svc_admission.retire adm inst.hid;
        inst.tag <- -1;
        inst.i_members <- [||];
        inst.i_count <- 0;
        t.pool <- inst :: t.pool
    | _ -> ()

  (* the first shard's decision; [Array.find_map] would allocate its loop *)
  let rec first_decision ds i =
    if i = Array.length ds then None
    else match ds.(i) with None -> first_decision ds (i + 1) | d -> d

  (* An instance with no event left in flight has quiesced: some process
     decided, or none did and it parks. *)
  let finalize t adm now inst =
    inst.quiesced <- true;
    Svc_history.quiesced t.hist;
    let ds = M.decisions inst.machine in
    (match first_decision ds 0 with
    | None -> (
        if Option.is_none inst.parked_at then inst.parked_at <- Some now;
        match t.spec.election_timeout with
        | Some d ->
            add_event t inst ~time:(Sim_time.( + ) now d) ~klass:service_class
              ~arg:0 Elect
        | None -> ())
    | Some (t0, d0) ->
        let decided_at =
          Svc_history.decided t.hist ~now ~elected:inst.elected
            ~parked_at:inst.parked_at ds t0 d0
        in
        inst.outcome <-
          (match d0 with Vote.Commit -> some_commit | Vote.Abort -> some_abort);
        for shard = 0 to t.n - 1 do
          if not t.down.(shard) then resolve_at_shard t adm inst shard
        done;
        for m = 0 to inst.i_count - 1 do
          let w = inst.i_members.(m) in
          Svc_history.finished t.hist d0 ~decided_at ~txn:w.w_id
            ~submitted:w.w_submitted;
          resubmit t now w.w_client
        done;
        Svc_admission.drain adm now inst.hid;
        maybe_retire t adm inst);
    Svc_admission.launch_ready adm now

  (* Allocation-lean transaction generation: pick distinct key indices
     into a scratch array (same rejection-then-top-rank-fill-then-shuffle
     procedure as {!Workload.distinct_keys}, same rng consumption); the
     first [reads_per_txn] are read, the rest written. *)
  let rec mem (scratch : int array) idx upto i =
    i < upto && (scratch.(i) = idx || mem scratch idx upto (i + 1))

  let pick_distinct t =
    let scratch = t.scratch and keys = t.spec.keys in
    let count = Int.min (t.spec.reads_per_txn + t.spec.writes_per_txn) keys in
    if count = keys then
      for i = 0 to count - 1 do
        scratch.(i) <- i
      done
    else begin
      let attempts = ref ((16 * count) + 64) in
      let filled = ref 0 in
      while !filled < count && !attempts > 0 do
        decr attempts;
        let idx = Workload.Zipf.index t.dist t.rng in
        if not (mem scratch idx !filled 0) then begin
          scratch.(!filled) <- idx;
          incr filled
        end
      done;
      let i = ref 0 in
      while !filled < count do
        if not (mem scratch !i !filled 0) then begin
          scratch.(!filled) <- !i;
          incr filled
        end;
        incr i
      done
    end;
    for i = count - 1 downto 1 do
      let j = Rng.int t.rng ~bound:(i + 1) in
      let tmp = scratch.(i) in
      scratch.(i) <- scratch.(j);
      scratch.(j) <- tmp
    done;
    count

  (* The first draws are the reads, the rest the writes; the waiter's one
     array holds the writes, the reads, then the reads' versions. *)
  let generate t adm now client =
    let id = Svc_history.issue t.hist now in
    let count = pick_distinct t in
    let nreads = Int.min t.spec.reads_per_txn count in
    let nwrites = count - nreads in
    let scratch = t.scratch in
    let keys = Array.make (count + nreads) 0 in
    for j = 0 to nwrites - 1 do
      keys.(j) <- scratch.(nreads + j)
    done;
    for j = 0 to nreads - 1 do
      let k = scratch.(j) in
      keys.(nwrites + j) <- k;
      keys.(count + j) <- Keyspace.version t.ks k
    done;
    let owners = Keyspace.owners t.ks keys nwrites t.owner_scratch in
    {
      Svc_admission.w_id = id;
      w_client = client;
      w_submitted = now;
      w_keys = keys;
      w_writes = nwrites;
      w_reads = nreads;
      w_owners = Svc_admission.owners adm t.owner_scratch owners;
      w_waits = 0;
      w_by_name = [||];
    }

  let handle t adm now tag arg ev =
    match ev with
    | Submit ->
        if Svc_history.issued t.hist < t.spec.txns then
          Svc_admission.submit adm now (generate t adm now arg)
    | Launch_batch -> Svc_admission.launch_batch adm now arg tag
    | Outage ->
        let pid = Pid.of_index arg in
        t.down.(arg) <- true;
        (* every in-flight instance sees the shard crash *)
        List.iter
          (fun inst ->
            if not (M.is_crashed inst.machine pid) then
              add_event t inst ~time:now ~klass:crash_class ~arg Crash)
          (live t (fun inst -> not inst.quiesced))
    | Recover ->
        let shard = arg in
        t.down.(shard) <- false;
        let decided = live t (fun i -> i.quiesced && Option.is_some i.outcome)
        and parked = live t (fun i -> i.quiesced && Option.is_none i.outcome) in
        List.iter
          (fun inst ->
            if not inst.resolved.(shard) then begin
              resolve_at_shard t adm inst shard;
              Svc_admission.drain adm now inst.hid;
              maybe_retire t adm inst
            end)
          decided;
        List.iter (redrive t now ~elected:false) parked
    | Elect | Propose | Deliver _ | Timeout _ | Crash ->
        (* an instance event's tag names a slot; under a superseded tag
           the event finds no instance and dies inert *)
        let inst = t.slots.(tag land slot_mask) in
        if inst.tag = tag then begin
          inst.pending <- inst.pending - 1;
          (match ev with
          | Elect -> (
              (* the timer is void if the parked drive was retried or
                 decided; with every shard down only a recovery helps *)
              match inst.outcome with
              | None when inst.quiesced && Array.exists not t.down ->
                  redrive t now ~elected:true inst
              | _ -> ())
          | Propose ->
              M.propose inst.machine ~now (Pid.of_index arg) inst.votes.(arg)
          | Deliver payload ->
              M.deliver inst.machine ~now ~sent_at:(packed_sent_at arg)
                ~src:(packed_src arg) ~dst:(packed_pid arg) payload
          | Timeout id ->
              ignore
                (M.timeout inst.machine ~now ~pid:(packed_pid arg)
                   ~layer:(packed_layer arg) ~id ~epoch:(packed_epoch arg))
          | Crash ->
              let pid = Pid.of_index arg in
              if not (M.is_crashed inst.machine pid) then
                M.crash inst.machine ~now pid
          | Submit | Launch_batch | Outage | Recover -> ());
          if inst.tag = tag && (not inst.quiesced) && inst.pending = 0 then
            finalize t adm now inst
        end

  (* the instant of the last event handled *)
  let rec loop t adm last =
    if Event_queue.is_empty t.q then last
    else
      let ev = Event_queue.take t.q in
      let time = Event_queue.taken_time t.q in
      if time > t.spec.max_time then last
      else begin
        handle t adm time (Event_queue.taken_tag t.q)
          (Event_queue.taken_arg t.q) ev;
        loop t adm time
      end

  let run ?observe ~n ~f (spec : spec) =
    let hist =
      Svc_history.create ?observe ~txns:spec.txns ~clients:spec.clients
        ~flush_every:spec.flush_every ()
    in
    let t =
      { spec; n; env_of = (fun pid -> { Proto.n; f; u; self = pid });
        q = Event_queue.create ~vacant:Elect; rng = Rng.create spec.seed;
        dist = Workload.Zipf.make ~keys:spec.keys ~s:spec.zipf_s;
        ks = Keyspace.create ~n ~keys:spec.keys; hist;
        down = Array.make n false;
        scratch =
          Array.make (Int.max 1 (spec.reads_per_txn + spec.writes_per_txn)) 0;
        owner_scratch = Array.make (Int.max 1 spec.writes_per_txn) 0;
        slots = [||]; nslots = 0; pool = []; drives = 0 }
    in
    let adm =
      Svc_admission.create ~ks:t.ks ~hist ~keys:spec.keys
        ~max_batch:spec.max_batch ~batch_window:spec.batch_window
        ~wait_budget:spec.wait_budget ~pipeline_depth:spec.pipeline_depth
        ~launch:(launch t) ~resubmit:(resubmit t)
        ~arm:(fun at hid serial ->
          Event_queue.add_tagged t.q ~time:at ~klass:service_class ~tag:serial
            ~arg:hid Launch_batch)
    in
    List.iter
      (fun (rank, down_at, back_at) ->
        let arg = Pid.index (Pid.of_rank rank) in
        Event_queue.add_tagged t.q ~time:down_at ~klass:crash_class ~tag:0 ~arg
          Outage;
        match back_at with
        | Some at ->
            Event_queue.add_tagged t.q ~time:at ~klass:crash_class ~tag:0 ~arg
              Recover
        | None -> ())
      spec.outages;
    for client = 0 to spec.clients - 1 do
      let at = 1 + Rng.int t.rng ~bound:(Int.max 1 spec.think_gap) in
      Event_queue.add_tagged t.q ~time:at ~klass:service_class ~tag:0
        ~arg:client Submit
    done;
    let makespan = loop t adm Sim_time.zero in
    (* retired instances were checked as they left *)
    List.iter (check_staging t) (live t (fun _ -> true));
    let staged_left =
      Array.fold_left ( + ) 0
        (Array.init n (fun shard ->
             if t.down.(shard) then 0 else Keyspace.staged_count t.ks ~shard))
    in
    Svc_history.stats hist ~protocol:P.name ~zipf_s:(Workload.Zipf.s t.dist)
      ~staged_left ~makespan
end

let run ?(consensus = Registry.Paxos) ?observe ~protocol ~n ~f (spec : spec) =
  let check bad what =
    if bad then invalid_arg ("Commit_service.run: " ^ what)
  in
  check (n < 2) "n < 2";
  check (n > max_n) (Printf.sprintf "n above %d" max_n);
  check (f < 1 || f > n - 1) "bad f";
  check (spec.clients < 1) "no clients";
  check (spec.txns < 0) "txns < 0";
  check (spec.writes_per_txn < 1) "writes_per_txn < 1";
  check (spec.reads_per_txn < 0) "reads_per_txn < 0";
  check
    (spec.reads_per_txn + spec.writes_per_txn > spec.keys)
    "keyspace smaller than a transaction";
  check (spec.keys > Keyspace.max_keys)
    (Printf.sprintf "keys above %d" Keyspace.max_keys);
  check (spec.pipeline_depth < 1) "pipeline_depth < 1";
  check (spec.max_batch < 1) "max_batch < 1";
  check (spec.batch_window < 0) "batch_window < 0";
  check (spec.wait_budget < 0) "wait_budget < 0";
  check (spec.flush_every < 0) "flush_every < 0";
  check (spec.max_time < 0) "max_time < 0";
  check
    (spec.max_time > max_send_instant)
    (Printf.sprintf "max_time above %d" max_send_instant);
  List.iter
    (fun (rank, down_at, back_at) ->
      check (rank < 1 || rank > n) "outage rank outside 1..n";
      check (down_at < 0) "outage instant < 0";
      check
        (match back_at with Some at -> at <= down_at | None -> false)
        "outage must recover after it goes down")
    spec.outages;
  (* sorted by rank and down instant, a shard's window must recover
     strictly before its next one begins *)
  let rec separate = function
    | (r, _, back) :: ((r', down, _) :: _ as rest) ->
        check
          (Int.equal r r'
          && match back with Some (at : Sim_time.t) -> at >= down | None -> true)
          "outages of one shard overlap or touch";
        separate rest
    | [] | [ _ ] -> ()
  in
  let by_rank_and_down (r, d, _) (r', d', _) =
    let c = Int.compare r r' in
    if c <> 0 then c else Int.compare d d'
  in
  separate (List.sort by_rank_and_down spec.outages);
  check
    (match spec.election_timeout with Some d -> d < 1 | None -> false)
    "election_timeout < 1";
  let reg = Registry.find_exn protocol in
  let proto, cons = Registry.compose reg consensus in
  let module P = (val proto) in
  let module C = (val cons) in
  let module S = Make (P) (C) in
  S.run ?observe ~n ~f spec
