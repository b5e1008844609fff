let guard_fuel = 10_000

module Make (P : Proto.PROTOCOL) (C : Proto.CONSENSUS) = struct
  type wire = Commit_msg of P.msg | Cons_msg of C.msg

  let layer_of_wire = function
    | Commit_msg _ -> Trace.Commit_layer
    | Cons_msg _ -> Trace.Consensus_layer

  let tag_of_wire = function
    | Commit_msg m -> Format.asprintf "%a" P.pp_msg m
    | Cons_msg m -> Format.asprintf "%a" C.pp_msg m

  type sink = {
    send : now:Sim_time.t -> src:Pid.t -> dst:Pid.t -> wire -> Sim_time.t;
    set_timer :
      now:Sim_time.t -> pid:Pid.t -> layer:Trace.layer -> id:string ->
      fire:Proto.fire -> at:Sim_time.t -> epoch:int -> unit;
  }

  type snapshot = {
    mutable s_stamp : int;
        (* value of [t.stamp] when this record was (re)captured; entries
           whose [last_mut] exceeds it have diverged from the record *)
    mutable s_pooled : bool;
    mutable s_trace : Trace.snapshot;
    mutable s_crash_count : int;
    mutable s_epoch_bumps : int;
    s_pstates : P.state array;
    s_cstates : C.state array;
    s_crashed : Sim_time.t option array;
    s_decisions : (Sim_time.t * Vote.decision) option array;
    s_cons_decided : bool array;
    s_send_budget : (Sim_time.t * int) option array;
    s_timer_epochs : (Trace.layer * string * int) list array;
    s_pd_valid : bool array;
    s_pd : int array;
    mutable s_redecision : (Pid.t * Vote.decision * Vote.decision) option;
  }

  type t = {
    envs : Proto.env array;
        (* per pid, built once: a step hands the automaton its env
           without allocating one *)
    u : Sim_time.t;
    mutable sink : sink;
        (* swapped by [reset] when a pooled machine is re-bound to a new
           commit instance *)
    trace : Trace.t;
    trace_on : bool;
        (* tracing never feeds back into the automata; drivers that never
           read traces skip the per-event entry and tag rendering *)
    tags : (wire, string) Hashtbl.t;
        (* memoized [tag_of_wire]: rendering a message tag runs the Format
           machinery, and the model checker re-sends structurally equal
           payloads millions of times across re-executed schedules *)
    pstates : P.state array;
    cstates : C.state array;
    crashed : Sim_time.t option array;
    decisions : (Sim_time.t * Vote.decision) option array;
    cons_decided : bool array;
        (* consensus decision already handed to the commit layer *)
    send_budget : (Sim_time.t * int ref) option array;
        (* [During_sends] crash: remaining network sends at that instant *)
    timer_epochs : (Trace.layer * string * int) list array;
        (* per process: current cancellation epoch of each named timer.
           Immutable alists so snapshot/restore share them by reference
           instead of copying a hashtable per process per snapshot. *)
    mutable pool : snapshot list;
        (* released snapshot records awaiting recapture *)
    mutable pool_owner : int;
        (* Domain id that owns the pooled records. Pools are strictly
           domain-local: if the machine is ever driven from a different
           domain, the pool is dropped and re-owned rather than handing
           records captured on one domain to another (see [adopt]). *)
    mutable stamp : int;
        (* bumped after every capture; [last_mut] entries are compared
           against a record's [s_stamp] to find which pids diverged *)
    last_mut : int array;
        (* per pid: [stamp] at the time of its last mutation. Monotone:
           restore re-marks rewound entries with the current stamp rather
           than rewinding, so the dirty test stays sound for pooled
           records captured at any earlier stamp. *)
    mutable crash_count : int;
    mutable epoch_bumps : int;
        (* monotone-per-path mutation counters (rewound by [restore]):
           the model checker compares them across steps to skip
           re-filtering its pending lists on quiet steps *)
    renamings : int array array;
        (* the renamings [feed_proc] keeps digests under; [||] for one
           digest per process, hashed under no renaming *)
    cols : int;  (* digests per process: [max 1 |renamings|] *)
    pd_fp : Fingerprint.t;
    pd_valid : bool array;
        (* per pid: [pd] holds its digests for its current state.
           Cleared by [touch]; captured and restored with the state, so a
           valid digest in a snapshot record was computed for the state
           that record holds. *)
    pd : int array;
        (* two lanes per (pid, renaming), at [2 * (i * cols + r)] *)
    mutable redecision : (Pid.t * Vote.decision * Vote.decision) option;
        (* the first conflicting re-decision on the current path *)
  }

  let create ?(record_trace = true) ?(renamings = [||]) ~env_of ~n ~u ~sink
      () =
    let envs = Array.init n (fun i -> env_of (Pid.of_index i)) in
    let cols = max 1 (Array.length renamings) in
    {
      envs;
      u;
      sink;
      trace = Trace.create ();
      trace_on = record_trace;
      tags = Hashtbl.create 64;
      pstates = Array.map P.init envs;
      cstates = Array.map C.init envs;
      crashed = Array.make n None;
      decisions = Array.make n None;
      cons_decided = Array.make n false;
      send_budget = Array.make n None;
      timer_epochs = Array.make n [];
      pool = [];
      pool_owner = (Domain.self () :> int);
      stamp = 1;
      last_mut = Array.make n 0;
      crash_count = 0;
      epoch_bumps = 0;
      renamings;
      cols;
      pd_fp = Fingerprint.create ();
      pd_valid = Array.make n false;
      pd = Array.make (2 * n * cols) 0;
      redecision = None;
    }

  (* Every write to a per-pid slot must mark the pid as mutated at the
     current stamp, or pooled snapshots would treat the slot as still
     agreeing with their captured copy, and must drop the pid's digests,
     or [feed_proc] would feed those of its old state. *)
  let touch t i =
    t.last_mut.(i) <- t.stamp;
    t.pd_valid.(i) <- false

  let empty_trace = Trace.snapshot (Trace.create ())

  let reset t ~sink =
    t.sink <- sink;
    Trace.restore t.trace empty_trace;
    for i = 0 to Array.length t.pstates - 1 do
      let env = t.envs.(i) in
      t.pstates.(i) <- P.init env;
      t.cstates.(i) <- C.init env;
      t.crashed.(i) <- None;
      t.decisions.(i) <- None;
      t.cons_decided.(i) <- false;
      t.send_budget.(i) <- None;
      t.timer_epochs.(i) <- [];
      t.last_mut.(i) <- 0;
      t.pd_valid.(i) <- false
    done;
    t.pool <- [];
    t.stamp <- 1;
    t.crash_count <- 0;
    t.epoch_bumps <- 0;
    t.redecision <- None

  let trace t = t.trace
  let pstate t p = t.pstates.(Pid.index p)
  let cstate t p = t.cstates.(Pid.index p)
  let decisions t = t.decisions
  let crashed_at t = t.crashed
  let[@inline] is_crashed t p =
    match t.crashed.(Pid.index p) with None -> false | Some _ -> true
  let cons_handed t p = t.cons_decided.(Pid.index p)

  let[@inline] same_layer (a : Trace.layer) b =
    match (a, b) with
    | Trace.Commit_layer, Trace.Commit_layer
    | Trace.Consensus_layer, Trace.Consensus_layer ->
        true
    | _ -> false

  let rec epoch_of layer id = function
    | [] -> 0
    | (l, i, e) :: tl ->
        if same_layer l layer && String.equal i id then e
        else epoch_of layer id tl

  let timer_epoch t pid layer id =
    epoch_of layer id t.timer_epochs.(Pid.index pid)

  (* [epochs] without its entry for the timer, if any (there is at most
     one: [cancel_timer] is the only writer) *)
  let rec drop_epoch layer id = function
    | [] -> []
    | ((l, i, _) as e) :: tl ->
        if same_layer l layer && String.equal i id then tl
        else e :: drop_epoch layer id tl

  let tag t payload =
    match Hashtbl.find_opt t.tags payload with
    | Some s -> s
    | None ->
        let s = tag_of_wire payload in
        Hashtbl.add t.tags payload s;
        s

  let redecision t = t.redecision

  (* Re-hash process [i] under every renaming: what a state fingerprint
     covers of one process apart from its crash flag and decision. *)
  let refresh_digests t i =
    let h = t.pd_fp in
    for r = 0 to t.cols - 1 do
      Fingerprint.reset h;
      if Array.length t.renamings > 0 then
        Fingerprint.set_perm h t.renamings.(r);
      P.hash_state h t.pstates.(i);
      C.hash_state h t.cstates.(i);
      Fingerprint.add_bool h t.cons_decided.(i);
      let k = 2 * ((i * t.cols) + r) in
      t.pd.(k) <- Fingerprint.digest_d1 h;
      t.pd.(k + 1) <- Fingerprint.digest_d2 h
    done;
    t.pd_valid.(i) <- true

  let feed_proc t h ~renaming i =
    if not t.pd_valid.(i) then refresh_digests t i;
    let k = 2 * ((i * t.cols) + renaming) in
    Fingerprint.add_int h t.pd.(k);
    Fingerprint.add_int h t.pd.(k + 1)

  let forget_digest t p = t.pd_valid.(Pid.index p) <- false

  let hash_wire h = function
    | Commit_msg m ->
        Fingerprint.add_int h 0;
        P.hash_msg h m
    | Cons_msg m ->
        Fingerprint.add_int h 1;
        C.hash_msg h m

  let symmetry ~n ~f = Symmetry.meet (P.symmetry ~n ~f) (C.symmetry ~n ~f)

  let mark_crashed t ~now pid =
    if not (is_crashed t pid) then begin
      t.crashed.(Pid.index pid) <- Some now;
      touch t (Pid.index pid);
      t.crash_count <- t.crash_count + 1;
      if t.trace_on then Trace.add t.trace (Trace.Crash { at = now; pid })
    end

  (* Whether [src] may transmit one more network message now, honouring a
     [During_sends] crash budget: exhausting the budget kills the process
     on the spot ("crashes while sending"). *)
  let may_send t ~now src =
    match t.send_budget.(Pid.index src) with
    | Some (at, remaining) when Sim_time.equal at now ->
        if !remaining > 0 then begin
          decr remaining;
          touch t (Pid.index src);
          true
        end
        else begin
          mark_crashed t ~now src;
          false
        end
    | Some _ | None -> not (is_crashed t src)

  let transmit t ~now ~src ~dst payload =
    if Pid.equal src dst then begin
      (* a self-addressed message "arrives immediately" (footnote 10) and
         is not a network message: no budget consumed *)
      let deliver_at = t.sink.send ~now ~src ~dst payload in
      if t.trace_on then
        Trace.add t.trace
          (Trace.Send
             {
               at = now;
               src;
               dst;
               layer = layer_of_wire payload;
               tag = tag t payload;
               deliver_at;
             })
    end
    else if may_send t ~now src then begin
      let deliver_at = t.sink.send ~now ~src ~dst payload in
      if t.trace_on then
        Trace.add t.trace
          (Trace.Send
             {
               at = now;
               src;
               dst;
               layer = layer_of_wire payload;
               tag = tag t payload;
               deliver_at;
             })
    end

  let fire_time ~now ~u = function
    | Proto.At_delay k -> k * u
    | Proto.After d -> Sim_time.( + ) now d

  let set_timer t ~now ~pid ~layer ~id fire =
    let at = fire_time ~now ~u:t.u fire in
    let at = Sim_time.max at now in
    t.sink.set_timer ~now ~pid ~layer ~id ~fire ~at
      ~epoch:(timer_epoch t pid layer id)

  (* Bumping the epoch strands every outstanding fire of this timer; sets
     made after the cancellation carry the new epoch and fire normally. *)
  let cancel_timer t ~pid ~layer ~id =
    let i = Pid.index pid in
    let epochs = t.timer_epochs.(i) in
    t.timer_epochs.(i) <-
      (layer, id, epoch_of layer id epochs + 1) :: drop_epoch layer id epochs;
    touch t i;
    t.epoch_bumps <- t.epoch_bumps + 1

  let record_decision t ~now ~pid decision =
    match t.decisions.(Pid.index pid) with
    | None ->
        t.decisions.(Pid.index pid) <- Some (now, decision);
        touch t (Pid.index pid);
        if t.trace_on then
          Trace.add t.trace (Trace.Decide { at = now; pid; decision })
    | Some (_, first) ->
        (* A re-decision with the same value is not an event: tracing it
           would duplicate the entry every decision consumer reads. A
           conflicting one is traced so the spec checkers can flag the
           stability breach instead of never seeing it, and the first
           one is kept for drivers that record no trace. *)
        if not (Vote.decision_equal first decision) then begin
          (match t.redecision with
          | None -> t.redecision <- Some (pid, first, decision)
          | Some _ -> ());
          if t.trace_on then
            Trace.add t.trace (Trace.Decide { at = now; pid; decision })
        end

  (* The suffix of [guards] headed by the first enabled guard ([] when
     none is): a plain recursion, so evaluating guards allocates
     nothing. *)
  let rec enabled env state = function
    | [] -> []
    | (_, pred) :: rest as guards ->
        if pred env state then guards else enabled env state rest

  (* Interpreting actions. Commit-layer actions may invoke the consensus
     service ([Propose_consensus]) and consensus decisions re-enter the
     commit layer, hence the mutual recursion. [interpret_commit] runs the
     guard loop after the actions; [commit_actions] interprets actions
     only (used from inside the guard loop itself). *)
  let rec commit_actions t ~now ~pid = function
    | [] -> ()
    | _ when is_crashed t pid ->
        (* the process died mid-action-list (send budget exhausted) *)
        ()
    | action :: rest ->
        (match (action : P.msg Proto.action) with
        | Proto.Send (dst, m) -> transmit t ~now ~src:pid ~dst (Commit_msg m)
        | Proto.Set_timer { id; fire } ->
            set_timer t ~now ~pid ~layer:Trace.Commit_layer ~id fire
        | Proto.Cancel_timer id ->
            cancel_timer t ~pid ~layer:Trace.Commit_layer ~id
        | Proto.Decide d -> record_decision t ~now ~pid d
        | Proto.Propose_consensus v ->
            if t.trace_on then
              Trace.add t.trace
                (Trace.Note
                   {
                     at = now;
                     pid;
                     label = "consensus-propose";
                     value = Format.asprintf "%a" Vote.pp v;
                   });
            let cstate, cactions =
              C.on_propose t.envs.(Pid.index pid) t.cstates.(Pid.index pid) v
            in
            t.cstates.(Pid.index pid) <- cstate;
            touch t (Pid.index pid);
            interpret_cons t ~now ~pid cactions
        | Proto.Note (label, value) ->
            if t.trace_on then
              Trace.add t.trace (Trace.Note { at = now; pid; label; value }));
        commit_actions t ~now ~pid rest

  and interpret_commit t ~now ~pid actions =
    commit_actions t ~now ~pid actions;
    run_guards t ~now ~pid

  and interpret_cons t ~now ~pid = function
    | [] -> ()
    | _ when is_crashed t pid -> ()
    | action :: rest ->
        (match (action : C.msg Proto.action) with
        | Proto.Send (dst, m) -> transmit t ~now ~src:pid ~dst (Cons_msg m)
        | Proto.Set_timer { id; fire } ->
            set_timer t ~now ~pid ~layer:Trace.Consensus_layer ~id fire
        | Proto.Cancel_timer id ->
            cancel_timer t ~pid ~layer:Trace.Consensus_layer ~id
        | Proto.Decide d ->
            (* The consensus instance at [pid] decided; hand the value to
               the commit layer exactly once. *)
            if not t.cons_decided.(Pid.index pid) then begin
              t.cons_decided.(Pid.index pid) <- true;
              touch t (Pid.index pid);
              if t.trace_on then
                Trace.add t.trace
                  (Trace.Note
                     {
                       at = now;
                       pid;
                       label = "consensus-decide";
                       value = Format.asprintf "%a" Vote.pp_decision d;
                     });
              let pstate, pactions =
                P.on_consensus_decide t.envs.(Pid.index pid)
                  t.pstates.(Pid.index pid)
                  (Vote.vote_of_decision d)
              in
              t.pstates.(Pid.index pid) <- pstate;
              touch t (Pid.index pid);
              interpret_commit t ~now ~pid pactions
            end
        | Proto.Propose_consensus _ ->
            failwith "Machine: consensus automaton proposed to consensus"
        | Proto.Note (label, value) ->
            if t.trace_on then
              Trace.add t.trace (Trace.Note { at = now; pid; label; value }));
        interpret_cons t ~now ~pid rest

  and run_guards t ~now ~pid =
    if not (is_crashed t pid) then guard_loop t ~now ~pid guard_fuel

  (* One guard firing per iteration, until none is enabled. *)
  and guard_loop t ~now ~pid fuel =
    if fuel = 0 then
      failwith
        (Printf.sprintf "Engine: guard loop of %s did not quiesce at %s"
           P.name (Pid.to_string pid));
    let env = t.envs.(Pid.index pid) in
    match enabled env t.pstates.(Pid.index pid) P.guards with
    | [] -> ()
    | (id, _) :: _ ->
        if t.trace_on then
          Trace.add t.trace (Trace.Guard { at = now; pid; guard = id });
        let state, actions = P.on_guard env t.pstates.(Pid.index pid) ~id in
        t.pstates.(Pid.index pid) <- state;
        touch t (Pid.index pid);
        commit_actions t ~now ~pid actions;
        guard_loop t ~now ~pid (fuel - 1)

  (* ---- steps ----------------------------------------------------- *)

  let set_send_budget t pid ~at k =
    t.send_budget.(Pid.index pid) <- Some (at, ref k);
    touch t (Pid.index pid)

  let crash t ~now pid = mark_crashed t ~now pid

  let propose t ~now pid vote =
    if not (is_crashed t pid) then begin
      if t.trace_on then
        Trace.add t.trace (Trace.Propose { at = now; pid; vote });
      let env = t.envs.(Pid.index pid) in
      let state, actions = P.on_propose env t.pstates.(Pid.index pid) vote in
      t.pstates.(Pid.index pid) <- state;
      touch t (Pid.index pid);
      interpret_commit t ~now ~pid actions
    end

  let deliver t ~now ~sent_at ~src ~dst payload =
    if is_crashed t dst then begin
      if t.trace_on then
        Trace.add t.trace (Trace.Discard { at = now; dst; tag = tag t payload })
    end
    else begin
      if t.trace_on then
        Trace.add t.trace
          (Trace.Deliver
             {
               at = now;
               src;
               dst;
               layer = layer_of_wire payload;
               tag = tag t payload;
               sent_at;
             });
      let env = t.envs.(Pid.index dst) in
      match payload with
      | Commit_msg m ->
          let state, actions = P.on_deliver env t.pstates.(Pid.index dst) ~src m in
          t.pstates.(Pid.index dst) <- state;
          touch t (Pid.index dst);
          interpret_commit t ~now ~pid:dst actions
      | Cons_msg m ->
          let state, actions = C.on_deliver env t.cstates.(Pid.index dst) ~src m in
          t.cstates.(Pid.index dst) <- state;
          touch t (Pid.index dst);
          interpret_cons t ~now ~pid:dst actions
    end

  let timeout t ~now ~pid ~layer ~id ~epoch =
    if epoch <> timer_epoch t pid layer id then false
    else begin
      (if not (is_crashed t pid) then begin
         if t.trace_on then
           Trace.add t.trace (Trace.Timeout { at = now; pid; timer = id });
         let env = t.envs.(Pid.index pid) in
         match layer with
         | Trace.Commit_layer ->
             let state, actions = P.on_timeout env t.pstates.(Pid.index pid) ~id in
             t.pstates.(Pid.index pid) <- state;
             touch t (Pid.index pid);
             interpret_commit t ~now ~pid actions
         | Trace.Consensus_layer ->
             let state, actions = C.on_timeout env t.cstates.(Pid.index pid) ~id in
             t.cstates.(Pid.index pid) <- state;
             touch t (Pid.index pid);
             interpret_cons t ~now ~pid actions
       end);
      true
    end

  (* ---- snapshots -------------------------------------------------- *)

  let crash_count t = t.crash_count
  let epoch_bump_count t = t.epoch_bumps

  let budget_value (at, remaining) = (at, !remaining)

  let copy_digests ~(src : int array) ~(dst : int array) cols i =
    for k = 2 * i * cols to (2 * (i + 1) * cols) - 1 do
      dst.(k) <- src.(k)
    done

  let fresh_snapshot t =
    let s =
      {
        s_stamp = t.stamp;
        s_pooled = false;
        s_trace = Trace.snapshot t.trace;
        s_crash_count = t.crash_count;
        s_epoch_bumps = t.epoch_bumps;
        s_pstates = Array.copy t.pstates;
        s_cstates = Array.copy t.cstates;
        s_crashed = Array.copy t.crashed;
        s_decisions = Array.copy t.decisions;
        s_cons_decided = Array.copy t.cons_decided;
        s_send_budget = Array.map (Option.map budget_value) t.send_budget;
        s_timer_epochs = Array.copy t.timer_epochs;
        s_pd_valid = Array.copy t.pd_valid;
        s_pd = Array.copy t.pd;
        s_redecision = t.redecision;
      }
    in
    t.stamp <- t.stamp + 1;
    s

  (* Recapture into a released record: only pids mutated since the
     record's own capture stamp can disagree with its arrays (every write
     path calls [touch], and [restore]'s writes re-mark with the current
     stamp instead of rewinding, so the comparison is sound even though
     the record sat in the pool across intervening restores). *)
  let capture_into t s =
    s.s_pooled <- false;
    s.s_trace <- Trace.snapshot t.trace;
    s.s_crash_count <- t.crash_count;
    s.s_epoch_bumps <- t.epoch_bumps;
    s.s_redecision <- t.redecision;
    let stamp = s.s_stamp in
    for i = 0 to Array.length t.pstates - 1 do
      if t.last_mut.(i) > stamp then begin
        s.s_pstates.(i) <- t.pstates.(i);
        s.s_cstates.(i) <- t.cstates.(i);
        s.s_crashed.(i) <- t.crashed.(i);
        s.s_decisions.(i) <- t.decisions.(i);
        s.s_cons_decided.(i) <- t.cons_decided.(i);
        s.s_send_budget.(i) <- Option.map budget_value t.send_budget.(i);
        s.s_timer_epochs.(i) <- t.timer_epochs.(i);
        copy_digests ~src:t.pd ~dst:s.s_pd t.cols i;
        s.s_pd_valid.(i) <- t.pd_valid.(i)
      end
    done;
    s.s_stamp <- t.stamp;
    t.stamp <- t.stamp + 1;
    s

  (* Pooled records never cross domains: a machine driven from a new
     domain abandons the records captured on the old one (they are
     garbage-collected) and starts a fresh pool it owns. The check is a
     single int compare on the hot path; in the common case (the model
     checker creates one machine per worker domain and never migrates
     it) the branch is never taken. *)
  let adopt t =
    let d = (Domain.self () :> int) in
    if t.pool_owner <> d then begin
      t.pool <- [];
      t.pool_owner <- d
    end

  let snapshot t =
    adopt t;
    match t.pool with
    | s :: rest ->
        t.pool <- rest;
        capture_into t s
    | [] -> fresh_snapshot t

  let release t s =
    if not s.s_pooled then begin
      s.s_pooled <- true;
      if t.pool_owner = (Domain.self () :> int) then t.pool <- s :: t.pool
      (* else: [s] was captured while another domain owned the pool —
         retire it to the GC instead of handing it across domains *)
    end

  let restore t s =
    Trace.restore t.trace s.s_trace;
    t.crash_count <- s.s_crash_count;
    t.epoch_bumps <- s.s_epoch_bumps;
    t.redecision <- s.s_redecision;
    let stamp = s.s_stamp in
    for i = 0 to Array.length t.pstates - 1 do
      if t.last_mut.(i) > stamp then begin
        t.pstates.(i) <- s.s_pstates.(i);
        t.cstates.(i) <- s.s_cstates.(i);
        t.crashed.(i) <- s.s_crashed.(i);
        t.decisions.(i) <- s.s_decisions.(i);
        t.cons_decided.(i) <- s.s_cons_decided.(i);
        t.send_budget.(i) <-
          Option.map (fun (at, remaining) -> (at, ref remaining))
            s.s_send_budget.(i);
        t.timer_epochs.(i) <- s.s_timer_epochs.(i);
        copy_digests ~src:s.s_pd ~dst:t.pd t.cols i;
        t.pd_valid.(i) <- s.s_pd_valid.(i);
        t.last_mut.(i) <- t.stamp
      end
    done
end
