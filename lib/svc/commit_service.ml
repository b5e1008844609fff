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
  soak : bool;
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
    soak = false;
    flush_every = 0;
    max_time = 100_000 * u;
    seed = 11;
  }

type stats = {
  protocol : string;
  transactions : int;
  committed : int;
  aborted : int;
  local_aborts : int;
  stale_aborts : int;
  queued : int;
  parked : int;
  instances : int;
  retries : int;
  elections : int;
  stolen : int;
  mean_batch : float;
  peak_in_flight : int;
  total_messages : int;
  staged_left : int;
  makespan_delays : float;
  latency : Histogram.summary;
  time_parked : Histogram.summary;
  queue_depth : Histogram.summary;
  zipf_s : float;
  goodput : float;
  wall_seconds : float;
  commits_per_sec : float;
  minor_words_per_txn : float;
  atomicity_ok : bool;
  agreement_ok : bool;
}

(* Event classes at equal simulated time, matching the engine: crashes <
   proposals/service events < deliveries < timeouts. *)
let crash_class = 0
let service_class = 1
let deliver_class = 2
let timeout_class = 3

(* owner sets, keyed by their ascending shard array *)
module Shard_sets = Hashtbl.Make (struct
  type t = int array

  let equal a b =
    Array.length a = Array.length b && Array.for_all2 Int.equal a b

  let hash a = Array.fold_left (fun h s -> (h * 31) + s) 0 a land max_int
end)

module Make (P : Proto.PROTOCOL) (C : Proto.CONSENSUS) = struct
  module M = Machine.Make (P) (C)

  type inst = {
    mutable i_id : int;
    mutable tag : int;  (* current Mux tag; re-tagged on every re-drive *)
    mutable i_members : waiter list;  (* oldest first *)
    votes : Vote.t array;
    mutable machine : M.t;
    mutable started : Sim_time.t;
    mutable outcome : Vote.decision option;  (* None while running/parked *)
    mutable quiesced : bool;
    resolved : bool array;  (* per shard: staged writes applied/discarded *)
    mutable attempts : int;
    mutable elected : bool;  (* current drive is a stand-in replay *)
    mutable parked_at : Sim_time.t option;  (* first park instant *)
    waiters : waiter Queue.t;
        (* transactions blocked on a write lock this instance holds, FIFO;
           released when the instance resolves *)
  }

  (* A transaction waiting on a holder, sitting in a batch, or running
     through an instance: its sequence number, its key indices and the
     versions it read. Everything admission reads is fixed per
     transaction, so it is computed once at submit, the interned
     write-owner set included. *)
  and waiter = {
    w_id : int;
    w_client : int;
    w_submitted : Sim_time.t;
    w_keys : int array;
        (* every key, in name order ("k10" < "k9"): a waiter queues on
           the first held key in this order *)
    w_reads : int array;
    w_read_vers : int array;  (* [w_reads]' versions at submit *)
    w_writes : int array;
    w_owners : owner_set;
    mutable w_waits : int;  (* completed waits so far *)
  }

  (* The shards owning a transaction's writes, interned: transactions with
     the same owner set share one record, so it doubles as the index of
     the batches they may join. *)
  and owner_set = {
    shards : int array;  (* ascending shard indices *)
    mutable open_batches : batch list;  (* unlaunched, newest first *)
  }

  and batch = {
    b_owners : owner_set;
    mutable b_members : waiter list;  (* newest first *)
    mutable b_count : int;
    mutable b_launched : bool;
  }

  (* The service's events and, tagged with their instance, one commit
     instance's events (mirroring the engine's event type), in one flat
     type: an instance event is a single block. *)
  type sev =
    | Submit of int  (* client id *)
    | Launch_batch of batch  (* batch-window expiry *)
    | Outage of Pid.t
    | Recover of Pid.t
    | Elect  (* election timer of the instance the event is tagged with *)
    | Propose of Pid.t
    | Deliver of {
        src : Pid.t;
        dst : Pid.t;
        payload : M.wire;
        sent_at : Sim_time.t;
      }
    | Timeout of { pid : Pid.t; layer : Trace.layer; id : string; epoch : int }
    | Crash of Pid.t

  let run ?observe ~n ~f (spec : spec) : stats =
    let wall_start = Unix.gettimeofday () in
    let gc_words0 = Gc.minor_words () in
    let u = Sim_time.default_u in
    let env_of pid = { Proto.n; f; u; self = pid } in
    let rng = Rng.create spec.seed in
    let dist = Workload.Zipf.make ~keys:spec.keys ~s:spec.zipf_s in
    let q : sev Mux.t = Mux.create () in
    let ks = Keyspace.create ~n ~keys:spec.keys in
    let all_pids = Pid.all ~n in
    (* write locks held by launched-but-unresolved instances, one slot per
       key. Admission and launch both turn away a transaction any of whose
       keys is held, so a key has at most one holder. Holding the instance
       record (not just its id) lets admission reach the holder's wait
       queue. *)
    let key_holder : inst option array = Array.make spec.keys None in
    let down = Array.make n false in
    let send_seq = ref 0 in
    let messages = ref 0 in

    let lock_add k inst =
      assert (match key_holder.(k) with None -> true | Some _ -> false);
      key_holder.(k) <- Some inst
    in
    let lock_release shard inst =
      List.iter
        (fun w ->
          Array.iter
            (fun k ->
              if Keyspace.owner ks k = shard then key_holder.(k) <- None)
            w.w_writes)
        inst.i_members
    in
    let rec holder_from keys j =
      if j = Array.length keys then None
      else
        match key_holder.(keys.(j)) with
        | Some _ as h -> h
        | None -> holder_from keys (j + 1)
    in
    let holder_of w = holder_from w.w_keys 0 in

    (* Live instances, indexed by the slot of their current Mux tag; a
       popped event resolves only when its full tag still matches, so
       events queued under a superseded tag (stale crash broadcasts,
       beaten election timers) die inert — the same dispatch the old
       monotone-tag table did, in O(live) memory. Fully resolved
       instances leave the array (their atomicity is checked as they
       retire) and their records and machines recycle through pools, so
       a soak run's footprint is the pipeline depth, not the history. *)
    let slots : inst option array ref = ref (Array.make 256 None) in
    let ensure_slot s =
      if s >= Array.length !slots then begin
        let cap = ref (2 * Array.length !slots) in
        while s >= !cap do
          cap := 2 * !cap
        done;
        let grown = Array.make !cap None in
        Array.blit !slots 0 grown 0 (Array.length !slots);
        slots := grown
      end
    in
    let slot_put tag inst =
      let s = Mux.slot tag in
      ensure_slot s;
      !slots.(s) <- Some inst
    in
    let find_by_tag tag =
      let s = Mux.slot tag in
      if s < Array.length !slots then
        match !slots.(s) with
        | Some inst as found when inst.tag = tag -> found
        | _ -> None
      else None
    in
    let iter_insts fn =
      Array.iter (function Some inst -> fn inst | None -> ()) !slots
    in

    let next_inst = ref 0 in
    let in_flight = ref 0 in
    let peak_in_flight = ref 0 in
    let retries = ref 0 in
    let elections = ref 0 in
    let stolen = ref 0 in
    let members_launched = ref 0 in

    let owner_sets : owner_set Shard_sets.t = Shard_sets.create 64 in
    let intern_owners shards =
      match Shard_sets.find_opt owner_sets shards with
      | Some os -> os
      | None ->
          let os = { shards; open_batches = [] } in
          Shard_sets.add owner_sets shards os;
          os
    in
    let ready : batch Queue.t = Queue.create () in

    let issued = ref 0 in
    let committed = ref 0 and aborted = ref 0 and local_aborts = ref 0 in
    let stale_aborts = ref 0 in
    let queued = ref 0 in
    let total_waiting = ref 0 in
    (* soak mode swaps the exact (every-sample-retained) histograms for
       fixed-bin streaming ones: same summary interface, constant memory,
       percentile error bounded by one bin width *)
    let mk_hist max_v =
      if spec.soak then Histogram.streaming ~bins:4096 ~max:max_v
      else Histogram.create ()
    in
    let latency = mk_hist 8192.0 in
    let time_parked = mk_hist 8192.0 in
    let queue_depth = mk_hist (float_of_int (max 16 spec.clients)) in
    let agreement_ok = ref true in
    let atomicity_ok = ref true in
    let last_time = ref Sim_time.zero in
    let txn_seq = ref 0 in

    (* The instance-tagged sink: one network, one clock, one rng across
       all instances. Protocols express "set timer to time k" as an
       absolute instant ([At_delay k] = k * U), written against a run
       that starts at time zero — re-anchor those to the instance's own
       start so instance k+1's automata are oblivious to the service
       clock. [After] timers are already relative. *)
    let sink inst_id started =
      {
        M.send =
          (fun ~now ~src ~dst payload ->
            if Pid.equal src dst then begin
              Mux.add q ~instance:inst_id ~time:now ~klass:deliver_class
                (Deliver { src; dst; payload; sent_at = now });
              now
            end
            else begin
              let seq = !send_seq in
              incr send_seq;
              incr messages;
              let deliver_at =
                Sim_time.( + ) now
                  (Network.delay spec.network rng ~src ~dst
                     ~layer:(M.layer_of_wire payload) ~sent_at:now ~seq)
              in
              Mux.add q ~instance:inst_id ~time:deliver_at ~klass:deliver_class
                (Deliver { src; dst; payload; sent_at = now });
              deliver_at
            end);
        M.set_timer =
          (fun ~now ~pid ~layer ~id ~fire ~at ~epoch ->
            let at =
              match fire with
              | Proto.At_delay k ->
                  Sim_time.max now
                    (Sim_time.( + ) started (Sim_time.of_delays ~u k))
              | Proto.After _ -> at
            in
            Mux.add q ~instance:inst_id ~time:at ~klass:timeout_class
              (Timeout { pid; layer; id; epoch }));
      }
    in

    (* Machines recycle: a retired instance's machine resets in place for
       the next one. Tracing stays off — the service never reads
       traces. *)
    let machine_pool : M.t list ref = ref [] in
    let take_machine tag started =
      match !machine_pool with
      | m :: rest ->
          machine_pool := rest;
          M.reset m ~sink:(sink tag started);
          m
      | [] -> M.create ~record_trace:false ~env_of ~n ~u ~sink:(sink tag started) ()
    in
    let release_machine m = machine_pool := m :: !machine_pool in
    let inst_pool : inst list ref = ref [] in

    let schedule_instance_events inst now =
      Array.iteri
        (fun i is_down ->
          if is_down then
            Mux.add q ~instance:inst.tag ~time:now ~klass:crash_class
              (Crash (Pid.of_index i)))
        down;
      List.iter
        (fun pid ->
          Mux.add q ~instance:inst.tag ~time:now ~klass:service_class
            (Propose pid))
        all_pids
    in
    let retag inst =
      !slots.(Mux.slot inst.tag) <- None;
      Mux.retire q inst.tag;
      let tag = Mux.alloc q in
      inst.tag <- tag;
      slot_put tag inst
    in

    let client_resubmit now client =
      let think = 1 + Rng.int rng ~bound:(max 1 spec.think_gap) in
      Mux.add q ~instance:(-1)
        ~time:(Sim_time.( + ) now think)
        ~klass:service_class (Submit client)
    in
    (* The conflict branch of admission: the transaction [w] hit a write
       lock held by [holder]. Queue it FIFO on the holder (it re-admits
       when the holder resolves), unless waiting cannot help — the holder
       already decided, so its remaining locks release only when a dead
       shard recovers — or [w] has exhausted its wait budget; then it
       aborts locally (budget 0 is the optimistic OCC check).
       Waiters hold no locks while they wait, so there is no hold-and-wait
       and queues cannot deadlock; the budget bounds re-conflict chains,
       so they cannot livelock either. *)
    let wait_or_abort now (w : waiter) (holder : inst) =
      let decided = match holder.outcome with Some _ -> true | None -> false in
      if decided || w.w_waits >= spec.wait_budget then begin
        incr local_aborts;
        client_resubmit now w.w_client
      end
      else begin
        if w.w_waits = 0 then incr queued;
        incr total_waiting;
        Histogram.add queue_depth (float_of_int !total_waiting);
        Queue.push w holder.waiters
      end
    in

    let start_members now (members : waiter list) =
      let id = !next_inst in
      incr next_inst;
      (* write-ahead: every owner stages its legs before voting *)
      List.iter
        (fun w ->
          Array.iter
            (fun shard ->
              Keyspace.stage ks ~shard ~txn:w.w_id ~writes:w.w_writes)
            w.w_owners.shards)
        members;
      let tag = Mux.alloc q in
      let inst =
        match !inst_pool with
        | i :: rest ->
            inst_pool := rest;
            i.i_id <- id;
            i.tag <- tag;
            i.i_members <- members;
            i.machine <- take_machine tag now;
            i.started <- now;
            i.outcome <- None;
            i.quiesced <- false;
            Array.fill i.resolved 0 n false;
            i.attempts <- 1;
            i.elected <- false;
            i.parked_at <- None;
            i
        | [] ->
            {
              i_id = id;
              tag;
              i_members = members;
              votes = Array.make n Vote.no;
              machine = take_machine tag now;
              started = now;
              outcome = None;
              quiesced = false;
              resolved = Array.make n false;
              attempts = 1;
              elected = false;
              parked_at = None;
              waiters = Queue.create ();
            }
      in
      (* per-shard vote: optimistic read validation. No key of the batch
         is write-locked by another instance — launch turned those members
         away — so validating the reads is the whole certification: a
         shard votes no iff some read it owns is stale. Launch also
         dropped the stale members, so every vote here is yes; the
         check stays as the protocol's input, and a launch filter that
         let a stale read through shows up as an instance abort. *)
      Array.fill inst.votes 0 n Vote.yes;
      List.iter
        (fun w ->
          Array.iteri
            (fun j k ->
              if Keyspace.version ks k <> w.w_read_vers.(j) then
                inst.votes.(Keyspace.owner ks k) <- Vote.no)
            w.w_reads;
          Array.iter (fun k -> lock_add k inst) w.w_writes)
        members;
      slot_put tag inst;
      members_launched := !members_launched + List.length members;
      incr in_flight;
      if !in_flight > !peak_in_flight then peak_in_flight := !in_flight;
      schedule_instance_events inst now
    in
    let rec reads_fresh (w : waiter) j =
      j = Array.length w.w_reads
      || Keyspace.version ks w.w_reads.(j) = w.w_read_vers.(j)
         && reads_fresh w (j + 1)
    in
    (* Conflicts that developed after admission (inside the batch window,
       or while the batch sat behind the pipeline cap) would only launch
       an instance doomed to No votes: re-queue those members on the
       holder instead (or abort them locally). A free member whose read
       went stale since submit can only make its shard vote no, so it
       aborts locally here instead of taking its batch-mates down with
       it; the rest launch. *)
    let start_instance now (waiters_in : waiter list) =
      let members =
        List.filter
          (fun w ->
            match holder_of w with
            | Some holder ->
                wait_or_abort now w holder;
                false
            | None ->
                if reads_fresh w 0 then true
                else begin
                  incr local_aborts;
                  incr stale_aborts;
                  client_resubmit now w.w_client;
                  false
                end)
          waiters_in
      in
      match members with [] -> () | _ -> start_members now members
    in

    let launch_ready now =
      while !in_flight < spec.pipeline_depth && not (Queue.is_empty ready) do
        let b = Queue.pop ready in
        start_instance now (List.rev b.b_members)
      done
    in
    (* drop [b] from its owner set's open list (it is there exactly once),
       sharing the tail behind it *)
    let rec unlink b = function
      | [] -> []
      | ob :: rest -> if ob == b then rest else ob :: unlink b rest
    in
    let launch_batch now b =
      if not b.b_launched then begin
        b.b_launched <- true;
        b.b_owners.open_batches <- unlink b b.b_owners.open_batches;
        Queue.push b ready;
        launch_ready now
      end
    in

    let redrive now inst =
      inst.attempts <- inst.attempts + 1;
      inst.quiesced <- false;
      inst.started <- now;
      retag inst;
      release_machine inst.machine;
      inst.machine <- take_machine inst.tag now;
      incr in_flight;
      if !in_flight > !peak_in_flight then peak_in_flight := !in_flight
    in
    let retry_instance now inst =
      incr retries;
      inst.elected <- false;
      redrive now inst;
      schedule_instance_events inst now
    in
    (* Coordinator re-election: the lowest live rank takes over a parked
       instance and re-drives its decision from the recorded vote log.
       The replay is crash-free — every shard logged its vote at instance
       start, so the stand-in replays the dead shards' automata from the
       log instead of crashing them (otherwise a blocking protocol would
       just park again). A shard that went down *after* voting can only
       have decided by the same deterministic vote rule, so the stand-in
       reaches the decision the lost coordinator would have: at-most-once
       holds, and adoption on recovery reconciles against the stand-in's
       outcome exactly as it reconciles against a live decision. *)
    let elect now inst =
      let rec lowest_live i =
        if i >= n then None
        else if not down.(i) then Some (Pid.of_index i)
        else lowest_live (i + 1)
      in
      match lowest_live 0 with
      | None -> ()  (* every shard is down; only a recovery can help *)
      | Some _standin ->
          incr elections;
          inst.elected <- true;
          redrive now inst;
          List.iter
            (fun pid ->
              Mux.add q ~instance:inst.tag ~time:now ~klass:service_class
                (Propose pid))
            all_pids
    in

    (* Apply/discard the instance's staged writes at one shard and release
       its locks there — on decision for live shards, on recovery for
       shards that were down when the decision was reached. *)
    let resolve_at_shard inst shard =
      (match inst.outcome with
      | Some Vote.Commit ->
          List.iter
            (fun w -> Keyspace.apply ks ~shard ~txn:w.w_id)
            inst.i_members
      | Some Vote.Abort ->
          List.iter
            (fun w -> Keyspace.discard ks ~shard ~txn:w.w_id)
            inst.i_members
      | None -> ());
      lock_release shard inst;
      inst.resolved.(shard) <- true
    in

    (* An instance whose every shard resolved is pure history: check its
       write-ahead entries are gone right now (the incremental half of the
       whole-history atomicity check), then recycle the slot, the record
       and the machine. *)
    let maybe_retire inst =
      match inst.outcome with
      | Some _ when Array.for_all Fun.id inst.resolved ->
          List.iter
            (fun w ->
              Array.iter
                (fun shard ->
                  if Keyspace.staged ks ~shard ~txn:w.w_id then
                    atomicity_ok := false)
                w.w_owners.shards)
            inst.i_members;
          assert (Queue.is_empty inst.waiters);
          !slots.(Mux.slot inst.tag) <- None;
          Mux.retire q inst.tag;
          release_machine inst.machine;
          inst.i_members <- [];
          inst_pool := inst :: !inst_pool
      | _ -> ()
    in

    (* typed: left polymorphic, [=] here is [caml_equal] per key *)
    let rec has_key (keys : int array) k j =
      j < Array.length keys && (keys.(j) = k || has_key keys k (j + 1))
    in
    let rec shares_key a b j =
      j < Array.length a && (has_key b a.(j) 0 || shares_key a b (j + 1))
    in
    (* Batching: [w] joins the newest open batch of its owner set that has
       room and shares none of its keys, or opens a new one. *)
    let admit now (w : waiter) =
      let os = w.w_owners in
      let fits b =
        b.b_count < spec.max_batch
        && not
             (List.exists (fun o -> shares_key w.w_keys o.w_keys 0) b.b_members)
      in
      match List.find_opt fits os.open_batches with
      | Some b ->
          b.b_members <- w :: b.b_members;
          b.b_count <- b.b_count + 1;
          if b.b_count >= spec.max_batch then launch_batch now b
      | None ->
          let b =
            {
              b_owners = os;
              b_members = [ w ];
              b_count = 1;
              b_launched = false;
            }
          in
          os.open_batches <- b :: os.open_batches;
          if spec.batch_window = 0 || spec.max_batch <= 1 then
            launch_batch now b
          else
            Mux.add q ~instance:(-1)
              ~time:(Sim_time.( + ) now spec.batch_window)
              ~klass:service_class (Launch_batch b)
    in

    let admit_or_wait now (w : waiter) =
      match holder_of w with
      | None -> admit now w
      | Some holder -> wait_or_abort now w holder
    in
    (* Release an instance's wait queue (after its locks released):
       transfer out first, so a waiter that re-conflicts elsewhere cannot
       land back in the queue being drained. *)
    let drain_scratch : waiter Queue.t = Queue.create () in
    let drain_waiters now inst =
      if not (Queue.is_empty inst.waiters) then begin
        Queue.transfer inst.waiters drain_scratch;
        while not (Queue.is_empty drain_scratch) do
          let w = Queue.pop drain_scratch in
          decr total_waiting;
          w.w_waits <- w.w_waits + 1;
          admit_or_wait now w
        done
      end
    in

    (* An instance with no event left in flight has quiesced: either some
       process decided (commit on all-yes votes, abort otherwise) — or
       nobody did and the instance parks, keeping its staged writes and
       locks, until a recovery retries it or the election timer elects a
       stand-in coordinator. *)
    let rec first_decision ds i =
      if i = Array.length ds then None
      else
        match ds.(i) with
        | Some _ as d -> d
        | None -> first_decision ds (i + 1)
    in
    let finalize now inst =
      inst.quiesced <- true;
      decr in_flight;
      let ds = M.decisions inst.machine in
      (match first_decision ds 0 with
      | None ->
          (* parked: clients stall, pipeline keeps flowing; waiters stay
             queued until the instance eventually decides *)
          (match inst.parked_at with
          | None -> inst.parked_at <- Some now
          | Some _ -> ());
          (match spec.election_timeout with
          | Some d ->
              Mux.add q ~instance:inst.tag
                ~time:(Sim_time.( + ) now d)
                ~klass:service_class Elect
          | None -> ())
      | Some (t0, d0) ->
          let decided_at = ref t0 in
          Array.iter
            (function
              | Some (t, d) ->
                  if not (Vote.decision_equal d d0) then agreement_ok := false;
                  decided_at := Sim_time.max !decided_at t
              | None -> ())
            ds;
          inst.outcome <- Some d0;
          if inst.elected then incr stolen;
          (match inst.parked_at with
          | Some p ->
              Histogram.add time_parked
                (Sim_time.delays ~u (Sim_time.( - ) now p))
          | None -> ());
          for shard = 0 to n - 1 do
            if not down.(shard) then resolve_at_shard inst shard
          done;
          List.iter
            (fun w ->
              (match d0 with
              | Vote.Commit ->
                  incr committed;
                  Histogram.add latency
                    (Sim_time.delays ~u
                       (Sim_time.( - ) !decided_at w.w_submitted))
              | Vote.Abort -> incr aborted);
              (match observe with
              | Some obs -> obs ("t" ^ string_of_int w.w_id) d0
              | None -> ());
              client_resubmit now w.w_client)
            inst.i_members;
          drain_waiters now inst;
          maybe_retire inst);
      launch_ready now
    in

    (* Allocation-lean transaction generation: pick distinct key indices
       into a scratch array (same rejection-then-top-rank-fill-then-shuffle
       procedure as {!Workload.distinct_keys}, same rng consumption); the
       first [reads_per_txn] are read, the rest written. *)
    let nkeys = spec.reads_per_txn + spec.writes_per_txn in
    let scratch = Array.make (max 1 nkeys) 0 in
    let pick_distinct () =
      let count = min nkeys spec.keys in
      let mem idx upto =
        let rec go i = i < upto && (scratch.(i) = idx || go (i + 1)) in
        go 0
      in
      if count = spec.keys then
        for i = 0 to count - 1 do
          scratch.(i) <- i
        done
      else begin
        let attempts = ref ((16 * count) + 64) in
        let filled = ref 0 in
        while !filled < count && !attempts > 0 do
          decr attempts;
          let idx = Workload.Zipf.index dist rng in
          if not (mem idx !filled) then begin
            scratch.(!filled) <- idx;
            incr filled
          end
        done;
        let i = ref 0 in
        while !filled < count do
          if not (mem !i !filled) then begin
            scratch.(!filled) <- !i;
            incr filled
          end;
          incr i
        done
      end;
      for i = count - 1 downto 1 do
        let j = Rng.int rng ~bound:(i + 1) in
        let tmp = scratch.(i) in
        scratch.(i) <- scratch.(j);
        scratch.(j) <- tmp
      done;
      count
    in
    let generate now client =
      let id = !txn_seq in
      incr txn_seq;
      let count = pick_distinct () in
      let nreads = min spec.reads_per_txn count in
      let w_reads = Array.sub scratch 0 nreads in
      let w_writes = Array.sub scratch nreads (count - nreads) in
      let w_keys = Array.sub scratch 0 count in
      Keyspace.sort_names w_keys;
      {
        w_id = id;
        w_client = client;
        w_submitted = now;
        w_keys;
        w_reads;
        w_read_vers = Array.map (Keyspace.version ks) w_reads;
        w_writes;
        w_owners = intern_owners (Keyspace.owners ks w_writes);
        w_waits = 0;
      }
    in

    let flush now =
      let wall = Unix.gettimeofday () -. wall_start in
      let words = Gc.minor_words () -. gc_words0 in
      Printf.eprintf
        "[soak] issued %d/%d  committed %d  goodput %.4f  waiting %d  \
         in-flight %d  t=%.0f delays  %.0f commits/s  %.0f minor words/txn\n\
         %!"
        !issued spec.txns !committed
        (if !issued = 0 then 0.0
         else float_of_int !committed /. float_of_int !issued)
        !total_waiting !in_flight (Sim_time.delays ~u now)
        (if wall > 0.0 then float_of_int !committed /. wall else 0.0)
        (words /. float_of_int (max 1 !issued))
    in

    let by_id a b = Int.compare a.i_id b.i_id in
    let handle now instance ev =
      match ev with
      | Submit client ->
          if !issued < spec.txns then begin
            incr issued;
            if spec.flush_every > 0 && !issued mod spec.flush_every = 0 then
              flush now;
            admit_or_wait now (generate now client)
          end
      | Launch_batch b -> launch_batch now b
      | Outage pid ->
          down.(Pid.index pid) <- true;
          (* every in-flight instance sees the shard crash *)
          let running = ref [] in
          iter_insts (fun inst ->
              if not inst.quiesced then running := inst :: !running);
          List.iter
            (fun inst ->
              if not (M.is_crashed inst.machine pid) then
                Mux.add q ~instance:inst.tag ~time:now ~klass:crash_class
                  (Crash pid))
            (List.sort by_id !running)
      | Recover pid ->
          let shard = Pid.index pid in
          down.(shard) <- false;
          (* first adopt the decisions reached while the shard was down,
             then re-run every parked instance with its recorded votes *)
          let decided = ref [] and parked = ref [] in
          iter_insts (fun inst ->
              if inst.quiesced then
                match inst.outcome with
                | Some _ -> decided := inst :: !decided
                | None -> parked := inst :: !parked);
          List.iter
            (fun inst ->
              if not inst.resolved.(shard) then begin
                resolve_at_shard inst shard;
                drain_waiters now inst;
                maybe_retire inst
              end)
            (List.sort by_id !decided);
          List.iter (retry_instance now) (List.sort by_id !parked)
      | Elect -> (
          (* still tagged with the parked drive's tag: if the instance was
             retried or decided in the meantime the tag no longer resolves
             (or the instance is no longer a parked one) and the timer is
             void *)
          match find_by_tag instance with
          | Some ({ quiesced = true; outcome = None; _ } as inst) ->
              elect now inst
          | _ -> ())
      | Propose pid -> (
          match find_by_tag instance with
          | Some inst ->
              M.propose inst.machine ~now pid inst.votes.(Pid.index pid)
          | None -> ())
      | Deliver { src; dst; payload; sent_at } -> (
          match find_by_tag instance with
          | Some inst -> M.deliver inst.machine ~now ~sent_at ~src ~dst payload
          | None -> ())
      | Timeout { pid; layer; id; epoch } -> (
          match find_by_tag instance with
          | Some inst ->
              ignore (M.timeout inst.machine ~now ~pid ~layer ~id ~epoch)
          | None -> ())
      | Crash pid -> (
          match find_by_tag instance with
          | Some inst ->
              if not (M.is_crashed inst.machine pid) then
                M.crash inst.machine ~now pid
          | None -> ())
    in

    List.iter
      (fun (rank, down_at, back_at) ->
        let pid = Pid.of_rank rank in
        Mux.add q ~instance:(-1) ~time:down_at ~klass:crash_class (Outage pid);
        match back_at with
        | Some t ->
            Mux.add q ~instance:(-1) ~time:t ~klass:crash_class (Recover pid)
        | None -> ())
      spec.outages;
    for client = 0 to spec.clients - 1 do
      let at = 1 + Rng.int rng ~bound:(max 1 spec.think_gap) in
      Mux.add q ~instance:(-1) ~time:at ~klass:service_class (Submit client)
    done;

    let rec loop () =
      if not (Mux.is_empty q) then begin
        let time = Mux.min_time q in
        if time <= spec.max_time then begin
          let instance = Mux.min_instance q in
          let ev = Mux.take q in
          last_time := time;
          handle time instance ev;
          (if instance >= 0 && Mux.pending q instance = 0 then
             match find_by_tag instance with
             | Some inst when not inst.quiesced -> finalize time inst
             | _ -> ());
          loop ()
        end
      end
    in
    loop ();
    let wall_seconds = Unix.gettimeofday () -. wall_start in
    let minor_words = Gc.minor_words () -. gc_words0 in

    (* Whole-history atomicity, residual half: retired instances were
       checked as they left; every instance still live (parked, or decided
       with a still-down shard) must hold its write-ahead entries exactly
       where its decision is unresolved. *)
    iter_insts (fun inst ->
        List.iter
          (fun w ->
            Array.iter
              (fun shard ->
                let still_staged = Keyspace.staged ks ~shard ~txn:w.w_id in
                let expect_staged =
                  match inst.outcome with
                  | None -> true
                  | Some _ -> not inst.resolved.(shard)
                in
                if still_staged <> expect_staged then atomicity_ok := false)
              w.w_owners.shards)
          inst.i_members);

    (* Write-ahead entries left on LIVE shards: a still-down shard's
       staging is exactly what recovery adoption will replay, so it is
       recoverable state, not a leak — the atomicity check above already
       insists it is present there. *)
    let staged_left =
      let acc = ref 0 in
      for shard = 0 to n - 1 do
        if not down.(shard) then acc := !acc + Keyspace.staged_count ks ~shard
      done;
      !acc
    in
    let parked = !issued - !committed - !aborted - !local_aborts in
    let instances_n = !next_inst in
    {
      protocol = P.name;
      transactions = !issued;
      committed = !committed;
      aborted = !aborted;
      local_aborts = !local_aborts;
      stale_aborts = !stale_aborts;
      queued = !queued;
      parked;
      instances = instances_n;
      retries = !retries;
      elections = !elections;
      stolen = !stolen;
      mean_batch =
        (if instances_n = 0 then Float.nan
         else float_of_int !members_launched /. float_of_int instances_n);
      peak_in_flight = !peak_in_flight;
      total_messages = !messages;
      staged_left;
      makespan_delays = Sim_time.delays ~u !last_time;
      latency = Histogram.summary latency;
      time_parked = Histogram.summary time_parked;
      queue_depth = Histogram.summary queue_depth;
      zipf_s = Workload.Zipf.s dist;
      goodput =
        (if !issued = 0 then 0.0
         else float_of_int !committed /. float_of_int !issued);
      wall_seconds;
      commits_per_sec =
        (if wall_seconds > 0.0 then float_of_int !committed /. wall_seconds
         else Float.nan);
      minor_words_per_txn =
        (if !issued = 0 then 0.0 else minor_words /. float_of_int !issued);
      atomicity_ok = !atomicity_ok;
      agreement_ok = !agreement_ok;
    }
end

let run ?(consensus = Registry.Paxos) ?observe ~protocol ~n ~f (spec : spec) =
  if n < 2 then invalid_arg "Commit_service.run: n < 2";
  if f < 1 || f > n - 1 then invalid_arg "Commit_service.run: bad f";
  if spec.clients < 1 then invalid_arg "Commit_service.run: no clients";
  if spec.txns < 0 then invalid_arg "Commit_service.run: txns < 0";
  if spec.writes_per_txn < 1 then
    invalid_arg "Commit_service.run: writes_per_txn < 1";
  if spec.reads_per_txn < 0 then
    invalid_arg "Commit_service.run: reads_per_txn < 0";
  if spec.reads_per_txn + spec.writes_per_txn > spec.keys then
    invalid_arg "Commit_service.run: keyspace smaller than a transaction";
  if spec.keys > Keyspace.max_keys then
    invalid_arg
      (Printf.sprintf "Commit_service.run: keys above %d" Keyspace.max_keys);
  if spec.pipeline_depth < 1 then
    invalid_arg "Commit_service.run: pipeline_depth < 1";
  if spec.max_batch < 1 then invalid_arg "Commit_service.run: max_batch < 1";
  if spec.batch_window < 0 then
    invalid_arg "Commit_service.run: batch_window < 0";
  if spec.wait_budget < 0 then
    invalid_arg "Commit_service.run: wait_budget < 0";
  if spec.flush_every < 0 then
    invalid_arg "Commit_service.run: flush_every < 0";
  List.iter
    (fun (rank, down_at, back_at) ->
      if rank < 1 || rank > n then
        invalid_arg "Commit_service.run: outage rank outside 1..n";
      if down_at < 0 then invalid_arg "Commit_service.run: outage instant < 0";
      match back_at with
      | Some t when t <= down_at ->
          invalid_arg
            "Commit_service.run: outage must recover after it goes down"
      | _ -> ())
    spec.outages;
  (match spec.election_timeout with
  | Some d when d < 1 ->
      invalid_arg "Commit_service.run: election_timeout < 1"
  | _ -> ());
  let reg = Registry.find_exn protocol in
  let proto, cons = Registry.compose reg consensus in
  let module P = (val proto) in
  let module C = (val cons) in
  let module S = Make (P) (C) in
  S.run ?observe ~n ~f spec

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "@[<v2>%s: %d txns -> %d committed, %d aborted (%d local), %d \
     unresolved@,\
     %d waited, %d stale at launch, goodput %.3f, queue depth %a@,\
     %d instances (+%d retries, %d elections -> %d stolen), mean batch \
     %.2f, peak in-flight %d@,\
     %d msgs, %d staged left, makespan %.1f delays, zipf s=%.3f@,\
     latency %a@,\
     %.0f commits/sec (wall %.3fs), %.0f minor words/txn%s%s@]"
    s.protocol s.transactions s.committed (s.aborted + s.local_aborts)
    s.local_aborts s.parked s.queued s.stale_aborts s.goodput
    Histogram.pp_summary s.queue_depth s.instances s.retries s.elections
    s.stolen s.mean_batch s.peak_in_flight s.total_messages
    s.staged_left s.makespan_delays s.zipf_s Histogram.pp_summary s.latency
    s.commits_per_sec s.wall_seconds s.minor_words_per_txn
    (if s.atomicity_ok then "" else "  ATOMICITY VIOLATED")
    (if s.agreement_ok then "" else "  AGREEMENT VIOLATED")

(* The deterministic slice of a run's stats as a JSON body: everything
   except the wall-clock and GC fields. The tests pin it per golden arm
   and assert byte-identity across [Batch.run ~jobs] settings. *)
let arm_json_body (s : stats) =
  let num v = if Float.is_nan v then "0.0" else Printf.sprintf "%.6f" v in
  let summary (h : Histogram.summary) =
    Printf.sprintf
      "{\"mean\": %s, \"p50\": %s, \"p95\": %s, \"p99\": %s, \"max\": %s}"
      (num h.Histogram.mean) (num h.Histogram.p50) (num h.Histogram.p95)
      (num h.Histogram.p99) (num h.Histogram.max)
  in
  String.concat ""
    [
      Printf.sprintf "\"transactions\": %d, " s.transactions;
      Printf.sprintf "\"committed\": %d, " s.committed;
      Printf.sprintf "\"aborted\": %d, " s.aborted;
      Printf.sprintf "\"local_aborts\": %d, " s.local_aborts;
      Printf.sprintf "\"stale_aborts\": %d, " s.stale_aborts;
      Printf.sprintf "\"queued\": %d, " s.queued;
      Printf.sprintf "\"parked\": %d, " s.parked;
      Printf.sprintf "\"instances\": %d, " s.instances;
      Printf.sprintf "\"retries\": %d, " s.retries;
      Printf.sprintf "\"elections\": %d, " s.elections;
      Printf.sprintf "\"stolen\": %d, " s.stolen;
      Printf.sprintf "\"mean_batch\": %s, " (num s.mean_batch);
      Printf.sprintf "\"peak_in_flight\": %d, " s.peak_in_flight;
      Printf.sprintf "\"messages\": %d, " s.total_messages;
      Printf.sprintf "\"staged_left\": %d, " s.staged_left;
      Printf.sprintf "\"abort_rate\": %s, "
        (num
           (if s.transactions = 0 then 0.0
            else
              float_of_int (s.aborted + s.local_aborts)
              /. float_of_int s.transactions));
      Printf.sprintf "\"goodput\": %s, " (num s.goodput);
      Printf.sprintf "\"zipf_s\": %s, " (num s.zipf_s);
      Printf.sprintf "\"latency_delays\": %s, " (summary s.latency);
      Printf.sprintf "\"time_parked_delays\": %s, " (summary s.time_parked);
      Printf.sprintf "\"queue_depth\": %s, " (summary s.queue_depth);
      Printf.sprintf "\"atomicity_ok\": %b, " s.atomicity_ok;
      Printf.sprintf "\"agreement_ok\": %b" s.agreement_ok;
    ]
