(* The systematic schedule explorer.

   The checker drives the same [Machine] interpreter as the engine, but
   instead of a timed event queue it keeps the pending deliveries and
   timer fires as an explicit frontier and branches on every enabled
   ordering. Time is abstracted to the pair (instant, event class) of the
   last executed event — the engine's own queue ordering — with:

   - synchronous deliveries pinned at exactly [send + U] (the repo's
     canonical [Network.exact] semantics; within-window variation is
     explored through the order of same-instant deliveries, not through
     sub-instant timing);
   - in network-failure mode, any delivery may additionally be procrastinated
     past its synchronous slot and delivered at any later point of the
     schedule;
   - crash injection (up to [f]) at any point where it is realizable by a
     [Scenario.Before] crash — in particular never between two timer
     fires of the same instant, which no delay assignment can separate;
   - timers armed beyond the exploration horizon never fire (this bounds
     the consensus retry cascade).

   An executed event may never strand a deadline: a synchronous delivery
   cannot be scheduled after its slot has passed, and a timer below the
   horizon must fire at its instant. This keeps every explored schedule
   realizable by the engine under some delay assignment, which is what
   makes counterexample replay ({!Mc_replay}) possible. *)

(* Growable scratch buffers, reused across DFS nodes so candidate
   enumeration stops allocating a fresh list/array per node. [vec_sort]
   is an insertion sort: candidate sets are tiny (tens of elements), it
   allocates nothing, and it is stable — ties keep the order of the
   input scan, which the enumerator relies on to reproduce the
   historical [List.sort]-over-creation-order candidate order. *)
type 'a vec = { mutable vbuf : 'a array; mutable vlen : int }

let vec_make () = { vbuf = [||]; vlen = 0 }
let vec_clear v = v.vlen <- 0

let vec_push v x =
  let cap = Array.length v.vbuf in
  if v.vlen = cap then begin
    let nb = Array.make (if cap = 0 then 16 else 2 * cap) x in
    Array.blit v.vbuf 0 nb 0 cap;
    v.vbuf <- nb
  end;
  v.vbuf.(v.vlen) <- x;
  v.vlen <- v.vlen + 1

let vec_sort cmp v =
  let a = v.vbuf in
  for i = 1 to v.vlen - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && cmp a.(!j) x > 0 do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let vec_to_list_map f v =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) (f v.vbuf.(i) :: acc)
  in
  go (v.vlen - 1) []

(* count of elements [<= limit] in the sorted prefix [vbuf[0..vlen)] *)
let vec_count_leq (v : int vec) limit =
  let lo = ref 0 and hi = ref v.vlen in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v.vbuf.(mid) <= limit then lo := mid + 1 else hi := mid
  done;
  !lo

(* Tables keyed by state digest. Both lanes are avalanched, so [d1] is
   the bucket hash as it is, and equality is two int compares: a lookup
   runs neither [caml_hash] nor polymorphic compare. *)
module Dtbl = Hashtbl.Make (struct
  type t = Fingerprint.digest

  let equal = Fingerprint.equal
  let hash (d : t) = d.Fingerprint.d1
end)

module Make (P : Proto.PROTOCOL) (C : Proto.CONSENSUS) = struct
  module M = Machine.Make (P) (C)

  type exec_class = { allow_crashes : bool; allow_late : bool }

  type config = {
    n : int;
    f : int;
    u : Sim_time.t;
    votes : Vote.t array;
    klass : exec_class;
    budgets : Mc_limits.budgets;
    symmetry : bool;
        (* canonicalize fingerprints under the machine's process-
           permutation group (refined by the vote assignment), collapsing
           orbit-equivalent states to one visited entry *)
  }

  (* ---- pending events -------------------------------------------- *)

  type pmsg = {
    uid : int * int;
        (* (sender index, k-th network send of that sender): stable across
           commuted schedules, because one process's sends are totally
           ordered in every schedule the checker equates *)
    seq : int;  (* creation order along the current path (queue tie-break) *)
    src : Pid.t;
    dst : Pid.t;
    payload : M.wire;
    pl_id : int;
        (* intern id of [payload]: equal ids iff structurally equal
           payloads, stable for the lifetime of the context, so the
           fingerprint covers an in-flight message by one word instead
           of hashing its payload *)
    sent_mc : Sim_time.t;
    nominal : Sim_time.t;  (* sent_mc + u: the synchronous slot *)
  }

  type ptimer = {
    t_seq : int;
    t_pid : Pid.t;
    t_layer : Trace.layer;
    t_id : string;
    t_idh : int;
        (* hash of [t_id], taken once at set time so the fingerprint
           feeds one word per timer. A hash rather than an intern id:
           contexts that share a visited table must agree on it. *)
    t_fire : Proto.fire;
    t_set_mc : Sim_time.t;
    t_at : Sim_time.t;
    t_epoch : int;
  }

  type step =
    | S_proposals  (* the whole instant-0 propose block, in rank order *)
    | S_crash of Pid.t
    | S_deliver of { msg : pmsg; at : Sim_time.t; klass : int; late : bool }
    | S_timeout of ptimer

  (* Identity of a transition for sleep sets and visited-set bookkeeping.
     Delivery keys embed destination and execution slot so independence
     can be judged from the key alone; both are stable for as long as the
     event can stay in a sleep set (an event that would change a pending
     delivery's slot has a later slot itself, hence is dependent and
     flushes it from the sleep set first). *)
  type key =
    | K_prop
    | K_crash of int
    | K_del of (int * int) * int * Sim_time.t * int  (* uid, dst, at, class *)
    | K_to of int * Trace.layer * string * Sim_time.t

  let key_of = function
    | S_proposals -> K_prop
    | S_crash p -> K_crash (Pid.index p)
    | S_deliver { msg; at; klass; _ } ->
        K_del (msg.uid, Pid.index msg.dst, at, klass)
    | S_timeout t -> K_to (Pid.index t.t_pid, t.t_layer, t.t_id, t.t_at)

  let independent k1 k2 =
    match (k1, k2) with
    | K_crash p, K_crash q -> p <> q
    | K_del (_, d1, a1, c1), K_del (_, d2, a2, c2) ->
        d1 <> d2 && a1 = a2 && c1 = c2
    | K_to (p1, _, _, a1), K_to (p2, _, _, a2) -> p1 <> p2 && a1 = a2
    | _ -> false

  (* Monomorphic key equality: [List.mem] would run polymorphic compare
     on the [K_del] tuples at every visited hit and every candidate. *)
  let key_equal k1 k2 =
    match (k1, k2) with
    | K_prop, K_prop -> true
    | K_crash p, K_crash q -> p = q
    | K_del ((s1, o1), d1, (a1 : Sim_time.t), c1), K_del ((s2, o2), d2, a2, c2)
      ->
        s1 = s2 && o1 = o2 && d1 = d2 && a1 = a2 && c1 = c2
    | K_to (p1, l1, i1, (a1 : Sim_time.t)), K_to (p2, l2, i2, a2) ->
        p1 = p2 && a1 = a2 && l1 = l2 && String.equal i1 i2
    | _ -> false

  (* sleep sets are tiny; plain sorted-insert lists suffice *)
  let rec k_mem k = function
    | [] -> false
    | k' :: rest -> key_equal k k' || k_mem k rest

  let rec k_subset a b =
    match a with [] -> true | k :: rest -> k_mem k b && k_subset rest b

  let k_inter a b = List.filter (fun k -> k_mem k b) a

  (* ---- the execution context ------------------------------------- *)

  type ctx = {
    cfg : config;
    m : M.t;
    box_msgs : pmsg list ref;  (* reversed; filled by the sink *)
    box_self : (Pid.t * M.wire) list ref;
    box_timers : ptimer list ref;
    sends_by : int array;
    creation : int ref;
    intern : (M.wire, int) Hashtbl.t;
        (* payload interning table. Grows monotonically and is never
           rewound by [restore]: an id only depends on the first time a
           structurally equal payload was ever sent in this context, so
           ids are consistent across all paths the context explores. *)
    fp_acc : Fingerprint.t;  (* reusable hashed-fingerprint accumulator *)
    fp_aux : Fingerprint.t;
        (* scratch for payload and pending-element digests; each use
           resets it *)
    mutable fp_el : int array;
        (* two digest lanes per pending element of the multiset being
           fed, reused across calls *)
    sym_perms : (int array * int array) array;
        (* (sigma, sigma inverse) per candidate renaming of the vote-
           refined group, identity first; [||] when canonicalization is
           off or the group is trivial *)
    sym_d1 : int array;
    sym_d2 : int array;
        (* per-permutation digest lanes of the last [fingerprint_sym] call *)
    mutable sym_argmin : int;
        (* index into [sym_perms] of the renaming that achieved the
           minimal (canonical) digest on that call *)
    sym_twins : (int * int * int) array;
        (* transpositions present in [sym_perms], as (a, b, perm index)
           with [a < b], sorted by (b, a): twin-pruning candidates *)
    mutable sym_pl_cache : Fingerprint.digest array;
        (* payload digest at [pl_id * |perms| + perm index], [no_digest]
           until computed: payloads are interned for the context's
           lifetime, so the digest depends only on the pair and is
           computed once *)
    mutable clock_t : Sim_time.t;
    mutable clock_k : int;
    mutable pending_msgs : pmsg list;  (* newest first (reverse creation) *)
    mutable pending_timers : ptimer list;  (* newest first *)
    mutable crashes_left : int;
    mutable proposed : bool;
    mutable overtaken : int list;
        (* [seq]s of commit-layer messages whose synchronous slot has been
           passed; they may now be delivered at any later point. Grows by
           consing only, so a snapshot of the list is always a physical
           suffix of the later list — restore rewinds the mirror bitset
           by walking to that suffix. *)
    mutable ot_bits : Bytes.t;
        (* bitset mirror of [overtaken], keyed by [seq]: O(1) membership
           in place of the O(overtaken) list scans *)
    mutable late_count : int;
    mutable someone_no : bool;
    (* ---- incremental enabled-set caches ---- *)
    mutable seen_crashes : int;
    mutable seen_bumps : int;
        (* machine mutation counters at the last [merge_boxes]: a step
           that crashed nobody and cancelled no timer cannot have staled
           any pending event, so the merge skips the full rescans *)
    mutable hard_valid : bool;
    mutable hard_none : bool;
    mutable hard_t : Sim_time.t;
    mutable hard_k : int;
        (* cached minimum hard deadline over pending events (valid while
           [hard_valid]); [ok pair] is one pair comparison against it *)
    sc_timers : ptimer vec;
    sc_dels : step vec;
    sc_soft : int vec;
    mutable snap_pool : ctx_snap list;
    mutable snap_owner : int;
        (* Domain id owning the pooled context snapshots; mirrors the
           machine-level pool ownership (see {!Machine}): records are
           dropped, never handed over, if the ctx changes domains *)
  }

  and ctx_snap = {
    mutable cs_pooled : bool;
    mutable cs_m : M.snapshot;
    cs_sends_by : int array;
    mutable cs_creation : int;
    mutable cs_clock_t : Sim_time.t;
    mutable cs_clock_k : int;
    mutable cs_pending_msgs : pmsg list;
    mutable cs_pending_timers : ptimer list;
    mutable cs_crashes_left : int;
    mutable cs_proposed : bool;
    mutable cs_overtaken : int list;
    mutable cs_late_count : int;
    mutable cs_someone_no : bool;
  }

  let max_late_of cfg =
    if cfg.klass.allow_late then cfg.budgets.Mc_limits.max_late else 0

  let late_used ctx = ctx.late_count > 0

  (* The vote-refined permutation group of a configuration. Processes
     stay interchangeable only when the machine's declared group agrees
     AND their input votes match: votes are not part of the fingerprint
     (each visited table's scope is a single vote assignment), so a
     renaming must fix the vote partition to be faithful. *)
  let sym_group cfg =
    if not cfg.symmetry then None
    else
      let g =
        Symmetry.refine
          (M.symmetry ~n:cfg.n ~f:cfg.f)
          ~key:(fun i -> Vote.to_int cfg.votes.(i))
      in
      if Symmetry.is_trivial g then None else Some g

  (* The machine records no trace unless [record_trace]: the explorer
     reads decisions, re-decisions and crashes from the machine itself. *)
  let create_ctx ?(record_trace = false) cfg =
    let box_msgs = ref [] and box_self = ref [] and box_timers = ref [] in
    let sends_by = Array.make cfg.n 0 in
    let creation = ref 0 in
    let intern = Hashtbl.create 256 in
    let intern_payload payload =
      match Hashtbl.find_opt intern payload with
      | Some id -> id
      | None ->
          let id = Hashtbl.length intern in
          Hashtbl.add intern payload id;
          id
    in
    let id_fp = Fingerprint.create () in
    let id_hash id =
      Fingerprint.reset id_fp;
      Fingerprint.add_string id_fp id;
      Fingerprint.digest_d1 id_fp
    in
    let sink =
      {
        M.send =
          (fun ~now ~src ~dst payload ->
            if Pid.equal src dst then begin
              box_self := (src, payload) :: !box_self;
              now
            end
            else begin
              let si = Pid.index src in
              let uid = (si, sends_by.(si)) in
              sends_by.(si) <- sends_by.(si) + 1;
              let seq = !creation in
              incr creation;
              let nominal = Sim_time.( + ) now cfg.u in
              let pl_id = intern_payload payload in
              box_msgs :=
                { uid; seq; src; dst; payload; pl_id; sent_mc = now; nominal }
                :: !box_msgs;
              nominal
            end);
        M.set_timer =
          (fun ~now ~pid ~layer ~id ~fire ~at ~epoch ->
            let t_seq = !creation in
            incr creation;
            box_timers :=
              {
                t_seq;
                t_pid = pid;
                t_layer = layer;
                t_id = id;
                t_idh = id_hash id;
                t_fire = fire;
                t_set_mc = now;
                t_at = at;
                t_epoch = epoch;
              }
              :: !box_timers);
      }
    in
    let env_of pid =
      { Proto.n = cfg.n; f = cfg.f; u = cfg.u; self = pid }
    in
    let sym_perms =
      match sym_group cfg with
      | None -> [||]
      | Some g ->
          Array.map (fun s -> (s, Symmetry.inverse s)) (Symmetry.perms g)
    in
    let sym_twins =
      if Array.length sym_perms = 0 then [||]
      else begin
        let twins = ref [] in
        Array.iteri
          (fun pi (s, _) ->
            if pi > 0 then begin
              let moved = ref [] in
              Array.iteri (fun i j -> if i <> j then moved := i :: !moved) s;
              match !moved with
              | [ b; a ] when s.(a) = b && s.(b) = a ->
                  twins := (a, b, pi) :: !twins
              | _ -> ()
            end)
          sym_perms;
        Array.of_list
          (List.sort
             (fun (a1, b1, _) (a2, b2, _) ->
               compare (b1, a1) (b2, a2))
             !twins)
      end
    in
    {
      cfg;
      m =
        M.create ~record_trace ~renamings:(Array.map fst sym_perms) ~env_of
          ~n:cfg.n ~u:cfg.u ~sink ();
      box_msgs;
      box_self;
      box_timers;
      sends_by;
      creation;
      intern;
      fp_acc = Fingerprint.create ();
      fp_aux = Fingerprint.create ();
      fp_el = [||];
      sym_perms;
      sym_d1 = Array.make (max 1 (Array.length sym_perms)) 0;
      sym_d2 = Array.make (max 1 (Array.length sym_perms)) 0;
      sym_argmin = 0;
      sym_twins;
      sym_pl_cache = [||];
      clock_t = Sim_time.zero;
      clock_k = 0;
      pending_msgs = [];
      pending_timers = [];
      crashes_left = cfg.f;
      proposed = false;
      overtaken = [];
      ot_bits = Bytes.make 64 '\000';
      late_count = 0;
      someone_no = false;
      seen_crashes = 0;
      seen_bumps = 0;
      hard_valid = false;
      hard_none = true;
      hard_t = Sim_time.zero;
      hard_k = 0;
      sc_timers = vec_make ();
      sc_dels = vec_make ();
      sc_soft = vec_make ();
      snap_pool = [];
      snap_owner = (Domain.self () :> int);
    }

  (* ---- the overtaken bitset --------------------------------------- *)

  let is_overtaken ctx mg =
    let byte = mg.seq lsr 3 in
    byte < Bytes.length ctx.ot_bits
    && Char.code (Bytes.unsafe_get ctx.ot_bits byte)
       land (1 lsl (mg.seq land 7))
       <> 0

  let bit_set ctx i =
    let byte = i lsr 3 in
    if byte >= Bytes.length ctx.ot_bits then begin
      let nb =
        Bytes.make (max (byte + 1) (2 * Bytes.length ctx.ot_bits)) '\000'
      in
      Bytes.blit ctx.ot_bits 0 nb 0 (Bytes.length ctx.ot_bits);
      ctx.ot_bits <- nb
    end;
    Bytes.unsafe_set ctx.ot_bits byte
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get ctx.ot_bits byte)
         lor (1 lsl (i land 7))))

  let bit_clear ctx i =
    let byte = i lsr 3 in
    if byte < Bytes.length ctx.ot_bits then
      Bytes.unsafe_set ctx.ot_bits byte
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get ctx.ot_bits byte)
           land lnot (1 lsl (i land 7))
           land 0xff))

  (* [saved] is always a physical suffix of the current list (the list
     only grows by consing and restores only rewind along the current
     path), so clearing exactly the bits consed since the save leaves the
     bitset mirroring [saved]. *)
  let rec rewind_overtaken ctx saved l =
    if l != saved then
      match l with
      | seq :: tl ->
          bit_clear ctx seq;
          rewind_overtaken ctx saved tl
      | [] -> assert (saved == [])

  (* ---- context snapshots ------------------------------------------ *)

  (* Pooled ctx snapshots are domain-local, like the machine's: driving
     the ctx from a new domain abandons the old pool. *)
  let adopt_pool ctx =
    let d = (Domain.self () :> int) in
    if ctx.snap_owner <> d then begin
      ctx.snap_pool <- [];
      ctx.snap_owner <- d
    end

  let save ctx =
    adopt_pool ctx;
    match ctx.snap_pool with
    | s :: rest ->
        ctx.snap_pool <- rest;
        s.cs_pooled <- false;
        s.cs_m <- M.snapshot ctx.m;
        Array.blit ctx.sends_by 0 s.cs_sends_by 0 (Array.length ctx.sends_by);
        s.cs_creation <- !(ctx.creation);
        s.cs_clock_t <- ctx.clock_t;
        s.cs_clock_k <- ctx.clock_k;
        s.cs_pending_msgs <- ctx.pending_msgs;
        s.cs_pending_timers <- ctx.pending_timers;
        s.cs_crashes_left <- ctx.crashes_left;
        s.cs_proposed <- ctx.proposed;
        s.cs_overtaken <- ctx.overtaken;
        s.cs_late_count <- ctx.late_count;
        s.cs_someone_no <- ctx.someone_no;
        s
    | [] ->
        {
          cs_pooled = false;
          cs_m = M.snapshot ctx.m;
          cs_sends_by = Array.copy ctx.sends_by;
          cs_creation = !(ctx.creation);
          cs_clock_t = ctx.clock_t;
          cs_clock_k = ctx.clock_k;
          cs_pending_msgs = ctx.pending_msgs;
          cs_pending_timers = ctx.pending_timers;
          cs_crashes_left = ctx.crashes_left;
          cs_proposed = ctx.proposed;
          cs_overtaken = ctx.overtaken;
          cs_late_count = ctx.late_count;
          cs_someone_no = ctx.someone_no;
        }

  let release ctx s =
    if not s.cs_pooled then begin
      s.cs_pooled <- true;
      M.release ctx.m s.cs_m;
      if ctx.snap_owner = (Domain.self () :> int) then
        ctx.snap_pool <- s :: ctx.snap_pool
      (* else: captured under another domain — retire it to the GC *)
    end

  let restore ctx s =
    M.restore ctx.m s.cs_m;
    Array.blit s.cs_sends_by 0 ctx.sends_by 0 (Array.length ctx.sends_by);
    ctx.creation := s.cs_creation;
    ctx.clock_t <- s.cs_clock_t;
    ctx.clock_k <- s.cs_clock_k;
    ctx.pending_msgs <- s.cs_pending_msgs;
    ctx.pending_timers <- s.cs_pending_timers;
    ctx.crashes_left <- s.cs_crashes_left;
    ctx.proposed <- s.cs_proposed;
    rewind_overtaken ctx s.cs_overtaken ctx.overtaken;
    ctx.overtaken <- s.cs_overtaken;
    ctx.late_count <- s.cs_late_count;
    ctx.someone_no <- s.cs_someone_no;
    ctx.seen_crashes <- M.crash_count ctx.m;
    ctx.seen_bumps <- M.epoch_bump_count ctx.m;
    ctx.hard_valid <- false;
    ctx.box_msgs := [];
    ctx.box_self := [];
    ctx.box_timers := []

  (* ---- executing one step ----------------------------------------- *)

  let drain_self ctx ~now =
    let rec go () =
      match List.rev !(ctx.box_self) with
      | [] -> ()
      | items ->
          ctx.box_self := [];
          List.iter
            (fun (p, payload) ->
              M.deliver ctx.m ~now ~sent_at:now ~src:p ~dst:p payload)
            items;
          go ()
    in
    go ()

  let fresh_timer ctx t =
    (not (M.is_crashed ctx.m t.t_pid))
    && t.t_epoch = M.timer_epoch ctx.m t.t_pid t.t_layer t.t_id

  (* Runs after every executed step. Pending lists are newest-first, so
     absorbing the (also newest-first) boxes is a prepend: a quiet step
     costs O(new events), not O(pending). The full staleness rescans of
     the old pending entries are gated on the machine's crash / timer-
     epoch mutation counters: a step that crashed nobody and cancelled no
     timer cannot have staled an event that survived the last merge. *)
  let merge_boxes ctx =
    let crashes = M.crash_count ctx.m in
    let bumps = M.epoch_bump_count ctx.m in
    let keep mg = not (M.is_crashed ctx.m mg.dst) in
    let changed = ref false in
    let new_msgs = !(ctx.box_msgs) in
    ctx.box_msgs := [];
    let new_msgs =
      if crashes > 0 && not (List.for_all keep new_msgs) then
        List.filter keep new_msgs
      else new_msgs
    in
    if crashes > ctx.seen_crashes
       && not (List.for_all keep ctx.pending_msgs)
    then begin
      ctx.pending_msgs <- List.filter keep ctx.pending_msgs;
      changed := true
    end;
    (match new_msgs with
    | [] -> ()
    | _ ->
        ctx.pending_msgs <- new_msgs @ ctx.pending_msgs;
        changed := true);
    let new_timers = !(ctx.box_timers) in
    ctx.box_timers := [];
    let new_timers =
      if List.for_all (fresh_timer ctx) new_timers then new_timers
      else List.filter (fresh_timer ctx) new_timers
    in
    if (crashes > ctx.seen_crashes || bumps > ctx.seen_bumps)
       && not (List.for_all (fresh_timer ctx) ctx.pending_timers)
    then begin
      ctx.pending_timers <- List.filter (fresh_timer ctx) ctx.pending_timers;
      changed := true
    end;
    (match new_timers with
    | [] -> ()
    | _ ->
        ctx.pending_timers <- new_timers @ ctx.pending_timers;
        changed := true);
    ctx.seen_crashes <- crashes;
    ctx.seen_bumps <- bumps;
    if !changed then ctx.hard_valid <- false

  let pair_geq ((t1 : int), (k1 : int)) (t2, k2) =
    t1 > t2 || (t1 = t2 && k1 >= k2)
  let is_commit_wire mg = M.layer_of_wire mg.payload = Trace.Commit_layer

  let layer_code = function
    | Trace.Commit_layer -> 0
    | Trace.Consensus_layer -> 1

  (* Executing at [pair] passes the synchronous slot of every pending
     commit-layer message behind it; each such message consumes one unit
     of the lateness budget, once, and may be delivered at any later
     point. Enabledness ([enumerate]) admits only steps whose cost fits,
     so no message is ever stranded undeliverable. *)
  let overtake ctx pair =
    List.iter
      (fun mg ->
        if
          is_commit_wire mg
          && (not (is_overtaken ctx mg))
          && not (pair_geq (mg.nominal, 2) pair)
        then begin
          ctx.overtaken <- mg.seq :: ctx.overtaken;
          bit_set ctx mg.seq;
          ctx.late_count <- ctx.late_count + 1
        end)
      ctx.pending_msgs

  let bump_clock ctx t k =
    if t > ctx.clock_t || (t = ctx.clock_t && k > ctx.clock_k) then begin
      ctx.clock_t <- t;
      ctx.clock_k <- k
    end

  (* Check the state a step left for a safety breach. A re-decision is
     read from the machine, which keeps the path's first: a path ends at
     its first breach, so a re-decision seen here happened in this step. *)
  let check_safety ctx =
    let decs = M.decisions ctx.m in
    match M.redecision ctx.m with
    | Some (pid, first, second) ->
        Some
          ( Mc_replay.Agreement,
            Format.asprintf
              "decision stability (AC2): %a decided %a then %a" Pid.pp pid
              Vote.pp_decision first Vote.pp_decision second )
    | None -> (
        (* Scan the decisions array directly: this runs once per executed
           transition, and the intermediate (pid, decision) list it used
           to build was pure allocation churn. *)
        let first = ref (-1) in
        let conflicting = ref None in
        let any_commit = ref false in
        (try
           for i = 0 to ctx.cfg.n - 1 do
             match decs.(i) with
             | None -> ()
             | Some (_, d) ->
                 if Vote.decision_equal d Vote.Commit then any_commit := true;
                 if !first < 0 then first := i
                 else
                   let _, d0 = Option.get decs.(!first) in
                   if not (Vote.decision_equal d0 d) then begin
                     conflicting :=
                       Some (Pid.of_index !first, d0, Pid.of_index i, d);
                     raise Exit
                   end
           done
         with Exit -> ());
        match !conflicting with
        | Some (p0, d0, p, d) ->
            Some
              ( Mc_replay.Agreement,
                Format.asprintf "agreement: %a decided %a but %a decided %a"
                  Pid.pp p0 Vote.pp_decision d0 Pid.pp p Vote.pp_decision d )
        | None ->
            if ctx.someone_no && !any_commit then
              Some
                ( Mc_replay.Validity,
                  "commit-validity: commit decided although some process \
                   voted 0" )
            else None)

  let exec_step ctx step =
    (match step with
    | S_proposals ->
        let no = ref false in
        for i = 0 to ctx.cfg.n - 1 do
          let p = Pid.of_index i in
          (* a crashed process proposes nothing: its vote is never cast *)
          if
            (not (M.is_crashed ctx.m p))
            && Vote.equal ctx.cfg.votes.(i) Vote.no
          then no := true;
          M.propose ctx.m ~now:Sim_time.zero p ctx.cfg.votes.(i);
          drain_self ctx ~now:Sim_time.zero
        done;
        ctx.proposed <- true;
        ctx.someone_no <- !no;
        bump_clock ctx Sim_time.zero 1
    | S_crash p ->
        M.crash ctx.m ~now:ctx.clock_t p;
        ctx.crashes_left <- ctx.crashes_left - 1
    | S_deliver { msg; at; klass; late = _ } ->
        ctx.pending_msgs <-
          List.filter (fun mg -> mg.seq <> msg.seq) ctx.pending_msgs;
        ctx.hard_valid <- false;
        overtake ctx (at, klass);
        M.deliver ctx.m ~now:at ~sent_at:msg.sent_mc ~src:msg.src
          ~dst:msg.dst msg.payload;
        drain_self ctx ~now:at;
        bump_clock ctx at klass
    | S_timeout t ->
        ctx.pending_timers <-
          List.filter (fun t' -> t'.t_seq <> t.t_seq) ctx.pending_timers;
        ctx.hard_valid <- false;
        overtake ctx (t.t_at, 3);
        ignore
          (M.timeout ctx.m ~now:t.t_at ~pid:t.t_pid ~layer:t.t_layer
             ~id:t.t_id ~epoch:t.t_epoch);
        drain_self ctx ~now:t.t_at;
        bump_clock ctx t.t_at 3);
    merge_boxes ctx;
    check_safety ctx

  (* ---- enabled transitions ---------------------------------------- *)

  let alive_pids ctx =
    List.filter
      (fun p -> not (M.is_crashed ctx.m p))
      (Pid.all ~n:ctx.cfg.n)

  (* Recompute the cached minimum hard deadline (a timer below the
     horizon, or a message that may not miss its slot). [ok pair] needs
     only the minimum: "no deadline is strictly below [pair]" is exactly
     "the minimum is >= [pair]". *)
  let refresh_hard ctx =
    let h = ctx.cfg.budgets.Mc_limits.horizon in
    let max_late = max_late_of ctx.cfg in
    ctx.hard_none <- true;
    let consider t k =
      if
        ctx.hard_none
        || not (pair_geq (t, k) (ctx.hard_t, ctx.hard_k))
      then begin
        ctx.hard_none <- false;
        ctx.hard_t <- t;
        ctx.hard_k <- k
      end
    in
    List.iter
      (fun t -> if t.t_at <= h then consider t.t_at 3)
      ctx.pending_timers;
    List.iter
      (fun mg ->
        if not (max_late > 0 && is_commit_wire mg) then consider mg.nominal 2)
      ctx.pending_msgs;
    ctx.hard_valid <- true

  (* Sorted nominal slots of the soft (late-deliverable, not yet
     overtaken) messages: the per-candidate lateness cost becomes one
     binary search instead of a full pending scan. Refreshed per
     [enumerate] call because [overtake] flips bits without touching the
     pending lists. *)
  let refresh_soft ctx =
    vec_clear ctx.sc_soft;
    List.iter
      (fun mg ->
        if is_commit_wire mg && not (is_overtaken ctx mg) then
          vec_push ctx.sc_soft mg.nominal)
      ctx.pending_msgs;
    vec_sort (fun (a : int) b -> compare a b) ctx.sc_soft

  (* number of soft slots strictly below [(t, k)]: a nominal slot
     [(n, 2)] is passed iff [n < t], or [n = t] with [k = 3] *)
  let soft_cost ctx t k =
    vec_count_leq ctx.sc_soft (if k >= 3 then t else t - 1)

  let timer_cmp a b =
    let c = compare (a.t_at : int) b.t_at in
    if c <> 0 then c
    else
      let c = compare (Pid.index a.t_pid) (Pid.index b.t_pid) in
      if c <> 0 then c
      else
        let c = compare (layer_code a.t_layer) (layer_code b.t_layer) in
        if c <> 0 then c
        else
          let c = String.compare a.t_id b.t_id in
          if c <> 0 then c else compare (a.t_seq : int) b.t_seq

  let del_cmp a b =
    match (a, b) with
    | S_deliver a, S_deliver b ->
        let c = compare (a.at : int) b.at in
        if c <> 0 then c
        else
          let c = compare (a.klass : int) b.klass in
          if c <> 0 then c
          else
            let c = compare (fst a.msg.uid : int) (fst b.msg.uid) in
            if c <> 0 then c
            else compare (snd a.msg.uid : int) (snd b.msg.uid)
    | _ -> 0

  (* Candidates in canonical exploration order: crash injections first,
     then timeouts, then deliveries — adversarial choices lead so that a
     depth-first search reaches failure schedules before it has exhausted
     the benign ones. *)
  let enumerate ctx =
    if not ctx.proposed then
      (if ctx.cfg.klass.allow_crashes && ctx.crashes_left > 0 then
         List.map (fun p -> S_crash p) (alive_pids ctx)
       else [])
      @ [ S_proposals ]
    else begin
      let h = ctx.cfg.budgets.Mc_limits.horizon in
      let max_late = max_late_of ctx.cfg in
      let clock = (ctx.clock_t, ctx.clock_k) in
      if not ctx.hard_valid then refresh_hard ctx;
      if max_late > 0 then refresh_soft ctx;
      (* an executable step must not strand a hard deadline, and the soft
         slots it passes must fit in the remaining lateness budget *)
      let ok (t, k) =
        (ctx.hard_none || pair_geq (ctx.hard_t, ctx.hard_k) (t, k))
        && (max_late = 0 || ctx.late_count + soft_cost ctx t k <= max_late)
      in
      let timer_at_clock =
        List.exists (fun t -> t.t_at = ctx.clock_t) ctx.pending_timers
      in
      vec_clear ctx.sc_timers;
      List.iter
        (fun t ->
          if t.t_at <= h && pair_geq (t.t_at, 3) clock && ok (t.t_at, 3) then
            vec_push ctx.sc_timers t)
        ctx.pending_timers;
      vec_sort timer_cmp ctx.sc_timers;
      let timeouts = vec_to_list_map (fun t -> S_timeout t) ctx.sc_timers in
      vec_clear ctx.sc_dels;
      List.iter
        (fun mg ->
          if is_overtaken ctx mg then begin
            (* slot already missed (budget paid): deliverable at the
               current point of the schedule *)
            if ctx.clock_k <= 2 then begin
              if ok (ctx.clock_t, 2) then
                vec_push ctx.sc_dels
                  (S_deliver
                     { msg = mg; at = ctx.clock_t; klass = 2; late = true })
            end
            else if timer_at_clock then ()
              (* a delivery between two timer fires of one instant is
                 not realizable by any delay assignment *)
            else if ok (ctx.clock_t, 3) then
              vec_push ctx.sc_dels
                (S_deliver
                   { msg = mg; at = ctx.clock_t; klass = 3; late = true })
          end
          else if pair_geq (mg.nominal, 2) clock && ok (mg.nominal, 2) then
            vec_push ctx.sc_dels
              (S_deliver { msg = mg; at = mg.nominal; klass = 2; late = false }))
        ctx.pending_msgs;
      vec_sort del_cmp ctx.sc_dels;
      let deliveries = vec_to_list_map Fun.id ctx.sc_dels in
      let has_work = timeouts <> [] || deliveries <> [] in
      let crashes =
        if
          ctx.cfg.klass.allow_crashes
          && ctx.crashes_left > 0
          && has_work
          && ((not (ctx.clock_k >= 3)) || not timer_at_clock)
          (* same unrealizability as above: a crash cannot be separated
             from timer fires of an instant once one of them has run *)
        then List.map (fun p -> S_crash p) (alive_pids ctx)
        else []
      in
      crashes @ timeouts @ deliveries
    end

  (* Leaves: nothing enabled. Either a true terminal (no pending event at
     all: check the terminal-only properties) or a horizon cut. *)
  let terminal_violation ctx =
    let decs = M.decisions ctx.m in
    let undecided =
      List.filter
        (fun p ->
          (not (M.is_crashed ctx.m p)) && decs.(Pid.index p) = None)
        (Pid.all ~n:ctx.cfg.n)
    in
    if undecided <> [] then
      Some
        ( Mc_replay.Termination,
          Format.asprintf
            "termination: correct process(es) %s never decide and no \
             event is pending (the run blocks)"
            (String.concat "," (List.map Pid.to_string undecided)) )
    else begin
      let crashed =
        List.exists (fun c -> c <> None) (Array.to_list (M.crashed_at ctx.m))
      in
      let failure = crashed || late_used ctx in
      let aborted =
        Array.exists
          (function Some (_, d) -> Vote.decision_equal d Vote.Abort | None -> false)
          decs
      in
      if aborted && (not ctx.someone_no) && not failure then
        Some
          ( Mc_replay.Validity,
            "abort-validity: abort decided in a failure-free execution \
             where every process voted 1" )
      else None
    end

  (* ---- state fingerprints ------------------------------------------ *)

  let feed_clock_and_budgets h ctx =
    Fingerprint.add_int h ctx.clock_t;
    Fingerprint.add_int h ctx.clock_k;
    Fingerprint.add_bool h ctx.proposed;
    Fingerprint.add_int h ctx.late_count;
    Fingerprint.add_bool h ctx.someone_no;
    Fingerprint.add_int h ctx.crashes_left

  let decision_code = function
    | None -> 0
    | Some (_, Vote.Commit) -> 1
    | Some (_, Vote.Abort) -> 2

  (* The pending multisets are fed as element digests: each message or
     timer is hashed alone into [fp_aux], its two lanes are stored as
     pair [k] of [fp_el], and [feed_els] sorts the pairs and feeds them
     to the sequential mixer. *)
  let store_el ctx k =
    if (2 * k) + 2 > Array.length ctx.fp_el then begin
      let grown = Array.make (max 32 (4 * (k + 1))) 0 in
      Array.blit ctx.fp_el 0 grown 0 (Array.length ctx.fp_el);
      ctx.fp_el <- grown
    end;
    ctx.fp_el.(2 * k) <- Fingerprint.digest_d1 ctx.fp_aux;
    ctx.fp_el.((2 * k) + 1) <- Fingerprint.digest_d2 ctx.fp_aux

  (* The count, then the [k] pairs in ascending order: an insertion sort,
     as the multisets hold tens of elements. Pairs tie only when their
     elements hash alike, so the fed words depend on the multiset alone,
     whatever order the pending lists hold it in. *)
  let feed_els h (el : int array) k =
    for i = 1 to k - 1 do
      let x1 = el.(2 * i) and x2 = el.((2 * i) + 1) in
      let j = ref (i - 1) in
      while
        !j >= 0
        && (el.(2 * !j) > x1 || (el.(2 * !j) = x1 && el.((2 * !j) + 1) > x2))
      do
        el.((2 * !j) + 2) <- el.(2 * !j);
        el.((2 * !j) + 3) <- el.((2 * !j) + 1);
        decr j
      done;
      el.((2 * !j) + 2) <- x1;
      el.((2 * !j) + 3) <- x2
    done;
    Fingerprint.add_int h k;
    for i = 0 to (2 * k) - 1 do
      Fingerprint.add_int h el.(i)
    done

  let rec msg_els ctx k = function
    | [] -> k
    | mg :: rest ->
        let e = ctx.fp_aux in
        Fingerprint.reset e;
        Fingerprint.add_int e mg.nominal;
        Fingerprint.add_int e (Pid.index mg.src);
        Fingerprint.add_int e (Pid.index mg.dst);
        Fingerprint.add_bool e (is_overtaken ctx mg);
        Fingerprint.add_int e mg.pl_id;
        store_el ctx k;
        msg_els ctx (k + 1) rest

  let rec timer_els ctx k = function
    | [] -> k
    | t :: rest ->
        let e = ctx.fp_aux in
        Fingerprint.reset e;
        Fingerprint.add_int e t.t_at;
        Fingerprint.add_int e (Pid.index t.t_pid);
        Fingerprint.add_int e (layer_code t.t_layer);
        Fingerprint.add_int e t.t_idh;
        store_el ctx k;
        timer_els ctx (k + 1) rest

  (* The state fingerprint: feed the canonical facts of a checker state —
     scheduler clock and budgets, every process's digest (its protocol
     and consensus state through [hash_state], and its handed flag, kept
     by the machine and re-hashed only after a mutation), its crash flag
     and decision, and the multisets of pending deliveries and timers —
     into the word hasher. In-flight payloads are covered by their
     intern id, so a message's digest costs five words however large its
     payload is. [test_mc] checks that these digests partition the states
     exactly as a marshal-everything digest does. *)
  let fingerprint_hashed ctx =
    let h = ctx.fp_acc in
    Fingerprint.reset h;
    feed_clock_and_budgets h ctx;
    let decs = M.decisions ctx.m in
    for i = 0 to ctx.cfg.n - 1 do
      M.feed_proc ctx.m h ~renaming:0 i;
      Fingerprint.add_bool h (M.is_crashed ctx.m (Pid.of_index i));
      Fingerprint.add_int h (decision_code decs.(i))
    done;
    feed_els h ctx.fp_el (msg_els ctx 0 ctx.pending_msgs);
    feed_els h ctx.fp_el (timer_els ctx 0 ctx.pending_timers);
    Fingerprint.digest h

  (* ---- symmetry canonicalization ---------------------------------- *)

  let no_digest = { Fingerprint.d1 = 0; d2 = 0 }

  (* Digest of one payload under renaming [sigma], memoized per
     (intern id, permutation). *)
  let payload_digest ctx pi sigma payload pl_id =
    let key = (pl_id * Array.length ctx.sym_perms) + pi in
    let cache = ctx.sym_pl_cache in
    if key < Array.length cache && cache.(key) != no_digest then cache.(key)
    else begin
      let hp = ctx.fp_aux in
      Fingerprint.reset hp;
      Fingerprint.set_perm hp sigma;
      M.hash_wire hp payload;
      let d = Fingerprint.digest hp in
      if key >= Array.length cache then begin
        let grown =
          Array.make (max (key + 1) (2 * Array.length cache)) no_digest
        in
        Array.blit cache 0 grown 0 (Array.length cache);
        ctx.sym_pl_cache <- grown
      end;
      ctx.sym_pl_cache.(key) <- d;
      d
    end

  (* An in-flight message under renaming [sigma]: its nominal slot (-1
     once overtaken: the slot is never read again), renamed endpoints
     and the payload's digest under the renaming — intern ids cannot
     serve here, because a payload and its renamed image intern
     separately. *)
  let rec sym_msg_els ctx pi sigma k = function
    | [] -> k
    | mg :: rest ->
        let d = payload_digest ctx pi sigma mg.payload mg.pl_id in
        let e = ctx.fp_aux in
        Fingerprint.reset e;
        Fingerprint.add_int e (if is_overtaken ctx mg then -1 else mg.nominal);
        Fingerprint.add_int e sigma.(Pid.index mg.src);
        Fingerprint.add_int e sigma.(Pid.index mg.dst);
        Fingerprint.add_int e d.Fingerprint.d1;
        Fingerprint.add_int e d.Fingerprint.d2;
        store_el ctx k;
        sym_msg_els ctx pi sigma (k + 1) rest

  (* Timers armed beyond the horizon never fire: their exact instant is
     unobservable, so it is clamped to [horizon + 1] (collapsing the
     consensus retry-cascade tails that differ only in dead deadlines). *)
  let rec sym_timer_els ctx ~horizon sigma k = function
    | [] -> k
    | t :: rest ->
        let e = ctx.fp_aux in
        Fingerprint.reset e;
        Fingerprint.add_int e
          (if t.t_at > horizon then horizon + 1 else t.t_at);
        Fingerprint.add_int e sigma.(Pid.index t.t_pid);
        Fingerprint.add_int e (layer_code t.t_layer);
        Fingerprint.add_int e t.t_idh;
        store_el ctx k;
        sym_timer_els ctx ~horizon sigma (k + 1) rest

  (* lexicographic order of the per-permutation digests [pi] and [pj] *)
  let digest_lt ctx pi pj =
    ctx.sym_d1.(pi) < ctx.sym_d1.(pj)
    || (ctx.sym_d1.(pi) = ctx.sym_d1.(pj) && ctx.sym_d2.(pi) < ctx.sym_d2.(pj))

  (* Orbit-minimization canonicalization: hash the state under every
     renaming of the vote-refined group and keep the least digest, so all
     states of one orbit collapse to a single visited-table entry. The
     invariant making the minimum an orbit invariant is faithfulness —
     [H_sigma(s) = H_id(sigma . s)] — which holds because canonical slot
     [j] is fed with concrete process [inv.(j)] (the process that would
     occupy rank [j] in the renamed state) through its digest under
     [sigma], every pid-valued datum of a message or timer is renamed,
     and the message/timer multisets are fed in an order that depends on
     their renamed elements alone.

     On top of the renaming, three abstractions sound for forward
     equivalence (symmetry mode only):
     a crashed process's internal state is skipped (nothing can read it
     again — deliveries to it are filtered, its timers are stale, it
     never executes; its decision and crash flag stay fed), an overtaken
     message's nominal slot is dropped (the slot was already missed and
     paid for; delivery eligibility depends only on the current clock),
     and beyond-horizon timer instants are clamped. *)
  let fingerprint_sym ctx =
    let h = ctx.fp_acc in
    let decs = M.decisions ctx.m in
    let horizon = ctx.cfg.budgets.Mc_limits.horizon in
    let np = Array.length ctx.sym_perms in
    let best = ref 0 in
    for pi = 0 to np - 1 do
      let sigma, inv = ctx.sym_perms.(pi) in
      Fingerprint.reset h;
      feed_clock_and_budgets h ctx;
      for j = 0 to ctx.cfg.n - 1 do
        let i = inv.(j) in
        let crashed = M.is_crashed ctx.m (Pid.of_index i) in
        Fingerprint.add_bool h crashed;
        if not crashed then M.feed_proc ctx.m h ~renaming:pi i;
        Fingerprint.add_int h (decision_code decs.(i))
      done;
      feed_els h ctx.fp_el (sym_msg_els ctx pi sigma 0 ctx.pending_msgs);
      feed_els h ctx.fp_el
        (sym_timer_els ctx ~horizon sigma 0 ctx.pending_timers);
      ctx.sym_d1.(pi) <- Fingerprint.digest_d1 h;
      ctx.sym_d2.(pi) <- Fingerprint.digest_d2 h;
      if pi > 0 && digest_lt ctx pi !best then best := pi
    done;
    ctx.sym_argmin <- !best;
    { Fingerprint.d1 = ctx.sym_d1.(!best); d2 = ctx.sym_d2.(!best) }

  let fingerprint ctx =
    if Array.length ctx.sym_perms = 0 then fingerprint_hashed ctx
    else fingerprint_sym ctx

  (* ---- sleep keys in canonical coordinates ------------------------- *)

  (* When a state is stored under a renamed representative, its sleep-set
     keys are translated by the same renaming, so orbit-mates reached by
     different paths compare their keys in one shared coordinate frame.
     The uid send-ordinals survive translation exactly as they survive
     commutation in the symmetry-off checker: a renaming maps "the k-th
     send of process s" to "the k-th send of sigma(s)" in the renamed
     run. When the argmin renaming is ambiguous (the state has a
     non-trivial stabilizer), representatives may differ by a stabilizer
     element — a permutation the 126-bit digest certifies as a state
     self-symmetry — which is the same hash-trust approximation the
     visited table already rests on. *)
  let xlate_key sigma = function
    | K_prop -> K_prop
    | K_crash p -> K_crash sigma.(p)
    | K_del ((s, k), d, at, c) -> K_del ((sigma.(s), k), sigma.(d), at, c)
    | K_to (p, l, id, at) -> K_to (sigma.(p), l, id, at)

  let xlate_keys ctx keys =
    if ctx.sym_argmin = 0 || keys = [] then keys
    else
      let sigma, _ = ctx.sym_perms.(ctx.sym_argmin) in
      List.map (xlate_key sigma) keys

  (* ---- permutation-twin pruning ------------------------------------ *)

  (* At a state that is invariant under a transposition [tau = (a b)] of
     the group (certified by equal per-permutation digests from the last
     [fingerprint_sym] call at this node), the subtree below a candidate
     aimed at [b] is the [tau]-image of the subtree below its
     [tau]-image candidate aimed at [a]: every schedule it contains, and
     every violation (the checked properties are permutation-invariant),
     has an image below the witness sibling. A [b]-candidate is dropped
     only when its image witness really is explored at this node —
     present among the candidates, not slept, not itself twin-dropped.
     Three candidate kinds are eligible:

     - [S_crash b] against witness [S_crash a]: the subtree image
       depends on no per-message correspondence at all.
     - [S_deliver] to [b] against the delivery to [a] of the image
       message: the witness must agree on uid ordinal ("the k-th send of
       [sigma src]"), execution slot, delivery class, lateness, nominal
       slot and overtaken status, and its payload must hash equal under
       the renaming — exactly the facts the canonical fingerprint reads
       from an in-flight message, so the pair is an image pair at the
       same hash-trust level the visited table rests on.
     - [S_timeout] of [b] against [a]'s armed timer with the same layer,
       id and instant — again the full fact set the fingerprint reads
       from a timer.

     Drops always cite a witness with a strictly smaller target index
     ([a < b] in every stored twin), so witness chains (the witness of a
     drop being itself dropped later, citing its own smaller-index
     witness) are acyclic and compose: the subtree image then factors
     through a composition of digest-certified invariances. Sleep sets
     stay sound because the dropped candidate's behaviours are the
     [tau]-image of the witness's, explored at this node; when the
     witness subtree prunes a schedule through a sleep key inherited
     from an earlier sibling, that sibling already covered the
     schedule's image — the standard compositional argument of
     sleep-set DPOR, composed with [tau]. *)
  let twin_prune ctx (counters : Mc_limits.counters) sleep cands =
    if Array.length ctx.sym_twins = 0 then cands
    else begin
      let live =
        List.filter
          (fun (_, _, pi) ->
            ctx.sym_d1.(pi) = ctx.sym_d1.(0) && ctx.sym_d2.(pi) = ctx.sym_d2.(0))
          (Array.to_list ctx.sym_twins)
      in
      if live = [] then cands
      else begin
        let dropped = ref [] in
        let is_dropped k = k_mem k !dropped in
        (* a kept witness: a candidate satisfying the image predicate
           whose own subtree is really explored at this node — not
           slept, not itself dropped *)
        let witness pred =
          List.exists
            (fun c ->
              pred c
              &&
              let kc = key_of c in
              (not (is_dropped kc)) && not (k_mem kc sleep))
            cands
        in
        (* The image predicate matches on every fact the canonical
           fingerprint reads from the event's object — and is blind to
           the uid send ordinal, which no fingerprint (symmetry on or
           off) ever hashes: "the 3rd send of p, to b" and "the 4th
           send of p, to a" are image messages when slot, class,
           lateness, nominal, overtaken status and renamed payload all
           agree; the ordinal only names sleep keys along a path, and
           sleep-set coverage is invariant under key renaming (the
           independence relation reads dst/slot/class, never the
           ordinal). *)
        let image_of cand (a, b, pi) =
          let sigma, _ = ctx.sym_perms.(pi) in
          match cand with
          | S_crash p when Pid.index p = b ->
              Some (function S_crash q -> Pid.index q = a | _ -> false)
          | S_deliver { msg = mb; at; klass; late } when Pid.index mb.dst = b
            ->
              let src_a = sigma.(fst mb.uid) in
              let d_b = payload_digest ctx pi sigma mb.payload mb.pl_id in
              let id_sigma, _ = ctx.sym_perms.(0) in
              Some
                (function
                  | S_deliver { msg = ma; at = at'; klass = klass'; late = la }
                    ->
                      Pid.index ma.dst = a
                      && fst ma.uid = src_a
                      && at' = at && klass' = klass && la = late
                      && ma.nominal = mb.nominal
                      && is_overtaken ctx ma = is_overtaken ctx mb
                      && Fingerprint.equal
                           (payload_digest ctx 0 id_sigma ma.payload
                              ma.pl_id)
                           d_b
                  | _ -> false)
          | S_timeout t when Pid.index t.t_pid = b ->
              Some
                (function
                  | S_timeout t' ->
                      Pid.index t'.t_pid = a
                      && t'.t_layer = t.t_layer
                      && t'.t_id = t.t_id && t'.t_at = t.t_at
                  | _ -> false)
          | _ -> None
        in
        let keep cand =
          let cut =
            List.exists
              (fun twin ->
                match image_of cand twin with
                | Some pred -> witness pred
                | None -> false)
              live
          in
          if cut then begin
            dropped := key_of cand :: !dropped;
            counters.Mc_limits.twin_skips <-
              counters.Mc_limits.twin_skips + 1;
            false
          end
          else true
        in
        List.filter keep cands
      end
    end

  (* ---- search ------------------------------------------------------ *)

  exception Found of Mc_replay.property * string * step list
  exception Out_of_states

  (* The DFS is generic over its visited table so the same search serves
     both dedup scopes: a plain per-item [Dtbl] (single-domain, the
     deterministic default) and a {!Mc_shards} table shared by every
     item of one vote-set group. [vt_add] is called only when [vt_find]
     saw no binding; its boolean reports whether this caller actually
     created the binding — under a shared table a racing domain may have
     inserted the state in between, and exactly one of the racers gets
     [true] and counts the state. *)
  type vtable = {
    vt_find : Fingerprint.digest -> key list option;
    vt_add : Fingerprint.digest -> key list -> bool;
    vt_store : Fingerprint.digest -> key list -> unit;
    vt_size : unit -> int;
  }

  let vtable_of_tbl (tbl : key list Dtbl.t) =
    {
      vt_find = Dtbl.find_opt tbl;
      (* single-owner table: a miss in [vt_find] guarantees freshness *)
      vt_add =
        (fun fp sleep ->
          Dtbl.replace tbl fp sleep;
          true);
      vt_store = Dtbl.replace tbl;
      vt_size = (fun () -> Dtbl.length tbl);
    }

  let vtable_of_shards (sh : key list Mc_shards.t) =
    {
      vt_find = Mc_shards.find_opt sh;
      (* single CAS-probe: no lock anywhere, and no second scan after
         the [vt_find] miss that guards this call. If a racing domain
         inserted in between, its stored sleep set stands (keeping
         either racer's set is sound — both were legitimate to store) *)
      vt_add = (fun fp sleep -> Mc_shards.find_or_insert sh fp sleep = None);
      (* losing a racing sleep-set narrowing is sound: a larger stored
         set only makes the subset cut less likely *)
      vt_store = Mc_shards.update sh;
      vt_size = (fun () -> Mc_shards.size sh);
    }

  (* [?order] permutes each node's candidate list before descent — the
     swarm mode's randomized walk order; sleep-set DPOR is sound under
     any exploration order of the candidate set, and the identity order
     (the default) keeps the deterministic modes byte-stable.

     [?open_depth] (default 0) disables the visited cut for the first
     [open_depth] tree levels: a swarm walker starting at the root would
     otherwise die instantly once another walker has claimed the root
     state (the claimer explores the children; a fresh walker has no
     parent loop to fall back to). Within the open region a walker
     descends through already-claimed states — without recounting or
     re-inserting them — until it finds an unclaimed subtree; the
     duplicated shallow transitions are bounded by the branching factor
     to the [open_depth]-th power and are what lets independent walks
     partition the deep space through the shared table alone. *)
  let dfs_dpor ?(order = Fun.id) ?(open_depth = 0) ctx
      (counters : Mc_limits.counters) vt =
    let budgets = ctx.cfg.budgets in
    let sym_on = Array.length ctx.sym_perms > 0 in
    let rec go ~sleep ~depth path_rev =
      let fp = fingerprint ctx in
      if sym_on then begin
        counters.canon_calls <- counters.canon_calls + 1;
        if ctx.sym_argmin <> 0 then
          counters.orbit_hits <- counters.orbit_hits + 1
      end;
      (* the table speaks canonical coordinates: stored keys were
         translated by their node's argmin renaming, so this node's keys
         are translated the same way for every table operation; the
         candidate loop below keeps using the concrete [sleep] *)
      let csleep = if sym_on then xlate_keys ctx sleep else sleep in
      let prior = vt.vt_find fp in
      match prior with
      | Some stored when depth >= open_depth && k_subset stored csleep ->
          counters.dedup_hits <- counters.dedup_hits + 1;
          counters.schedules <- counters.schedules + 1
      | _ -> (
          match
            order
              (if sym_on then twin_prune ctx counters sleep (enumerate ctx)
               else enumerate ctx)
          with
          | [] ->
              counters.schedules <- counters.schedules + 1;
              if ctx.pending_timers <> [] || ctx.pending_msgs <> [] then
                counters.horizon_cuts <- counters.horizon_cuts + 1
              else begin
                counters.terminals <- counters.terminals + 1;
                match terminal_violation ctx with
                | Some (prop, detail) ->
                    raise (Found (prop, detail, List.rev path_rev))
                | None -> ()
              end
          | cands ->
              if depth >= budgets.Mc_limits.max_depth then begin
                counters.depth_cuts <- counters.depth_cuts + 1;
                counters.schedules <- counters.schedules + 1
              end
              else begin
                (match prior with
                | None ->
                    if vt.vt_size () >= budgets.Mc_limits.max_states then
                      raise Out_of_states;
                    if vt.vt_add fp csleep then begin
                      counters.states <- counters.states + 1;
                      counters.peak_visited <-
                        max counters.peak_visited (vt.vt_size ())
                    end
                | Some stored -> vt.vt_store fp (k_inter stored csleep));
                let snap = save ctx in
                let sleep_now = ref sleep in
                List.iter
                  (fun cand ->
                    let k = key_of cand in
                    if k_mem k !sleep_now then
                      counters.sleep_skips <- counters.sleep_skips + 1
                    else begin
                      restore ctx snap;
                      counters.transitions <- counters.transitions + 1;
                      (match exec_step ctx cand with
                      | Some (prop, detail) ->
                          raise
                            (Found (prop, detail, List.rev (cand :: path_rev)))
                      | None -> ());
                      let child_sleep =
                        List.filter (fun k' -> independent k k') !sleep_now
                      in
                      go ~sleep:child_sleep ~depth:(depth + 1)
                        (cand :: path_rev);
                      sleep_now := k :: !sleep_now
                    end)
                  cands;
                (* backtracking past this node: its snapshot can never be
                   restored again, so its records go back to the pools *)
                release ctx snap
              end)
    in
    go ~sleep:[] ~depth:0 []

  (* The naive schedule count: number of maximal paths an enumerator with
     neither sleep sets nor deduplication would walk, computed exactly by
     memoized path-counting over the deduplicated state graph (identical
     states have identical subtree path counts). *)
  let dfs_count ctx (counters : Mc_limits.counters) visited =
    let budgets = ctx.cfg.budgets in
    let rec go () =
      let fp = fingerprint ctx in
      match Dtbl.find_opt visited fp with
      | Some x ->
          counters.dedup_hits <- counters.dedup_hits + 1;
          x
      | None -> (
          match enumerate ctx with
          | [] -> 1.0
          | cands ->
              if Dtbl.length visited >= budgets.Mc_limits.max_states then
                raise Out_of_states;
              counters.states <- counters.states + 1;
              let snap = save ctx in
              let total =
                List.fold_left
                  (fun acc cand ->
                    restore ctx snap;
                    counters.transitions <- counters.transitions + 1;
                    match exec_step ctx cand with
                    | Some _ -> acc +. 1.0
                    | None -> acc +. go ())
                  0.0 cands
              in
              release ctx snap;
              Dtbl.replace visited fp total;
              total)
    in
    go ()

  (* ---- frontier ---------------------------------------------------- *)

  (* A fixed, jobs-independent work split: expand breadth-first until the
     level is wide enough, then let [Batch] spread the items over domains.
     Items are schedule prefixes; each worker replays its prefix on a
     fresh context, so nothing mutable crosses domain boundaries. In the
     default per-item mode every item is explored with its own visited
     table, which keeps all counters bit-identical whatever [--jobs] is.

     Progress is detected structurally — did any prefix actually extend
     this round? — not by comparing level lengths: "one prefix split
     while another terminated" can leave the lengths equal, which the
     old length check mistook for a fixed point. Concretely, the single
     [[]] -> [[S_proposals]] root expansion is a 1 -> 1 round, so the
     length check froze every crash-free exploration at a one-item
     frontier (no parallelism at all). Widths are threaded through the
     loop so no round walks a list just to measure it. *)
  let frontier_target = 24

  let replay_prefix ctx prefix =
    List.fold_left
      (fun viol step ->
        match viol with
        | Some _ -> viol
        | None -> exec_step ctx step)
      None prefix

  let frontier cfg =
    let expand prefix =
      let ctx = create_ctx cfg in
      match replay_prefix ctx prefix with
      | Some _ -> `Leaf
      | None -> (
          match enumerate ctx with
          | [] -> `Leaf
          | cands -> `Children (List.map (fun c -> prefix @ [ c ]) cands))
    in
    let rec grow level depth width =
      if depth >= 3 || width >= frontier_target then level
      else begin
        let progressed = ref false in
        let width' = ref 0 in
        let next =
          List.concat_map
            (fun prefix ->
              match expand prefix with
              | `Leaf ->
                  incr width';
                  [ prefix ]
              | `Children cs ->
                  progressed := true;
                  width' := !width' + List.length cs;
                  cs)
            level
        in
        if !progressed then grow next (depth + 1) !width' else level
      end
    in
    grow [ [] ] 0 1

  (* Frontier-item orbit dedup (symmetry mode): two prefixes landing on
     orbit-equivalent states explore permutation-isomorphic subtrees, and
     in the per-item visited discipline each would pay for its subtree in
     full. Keeping one representative per canonical root keeps coverage —
     any violation below a dropped item has a permutation-image below the
     kept one — while cutting that duplication. Prefixes that already
     violate are always kept (they carry their witness). *)
  let dedup_frontier cfg prefixes =
    match prefixes with
    | [] | [ _ ] -> prefixes
    | _ when Option.is_none (sym_group cfg) -> prefixes
    | _ ->
        let seen = Dtbl.create 64 in
        List.filter
          (fun prefix ->
            let ctx = create_ctx cfg in
            match replay_prefix ctx prefix with
            | Some _ -> true
            | None ->
                let fp = fingerprint ctx in
                if Dtbl.mem seen fp then false
                else begin
                  Dtbl.add seen fp ();
                  true
                end)
          prefixes

  (* ---- shrinking and concretization -------------------------------- *)

  (* Transition identity for shrink-replay: dropping events shifts the
     point (and hence the key) at which a surviving event executes, so
     candidates are matched on what the event IS — the message, the timer,
     the crashed process — not on where it lands. *)
  let same_ident k1 k2 =
    match (k1, k2) with
    | K_prop, K_prop -> true
    | K_crash p, K_crash q -> p = q
    | K_del (u1, _, _, _), K_del (u2, _, _, _) -> u1 = u2
    | K_to (p1, l1, i1, _), K_to (p2, l2, i2, _) ->
        p1 = p2 && l1 = l2 && i1 = i2
    | _ -> false

  let find_cand ctx key =
    List.find_opt (fun c -> same_ident (key_of c) key) (enumerate ctx)

  (* Replay a candidate schedule by transition identity, skipping steps
     that dropped out of existence, and record what actually ran. *)
  let run_keys ctx trail keys =
    List.fold_left
      (fun viol key ->
        match viol with
        | Some _ -> viol
        | None -> (
            match find_cand ctx key with
            | None -> None
            | Some cand ->
                trail := cand :: !trail;
                exec_step ctx cand))
      None keys

  (* Deterministic completion in engine order (used for termination
     violations: blocking is a property of the completed run). *)
  let complete ctx trail =
    let rank = function
      | S_proposals -> (Sim_time.zero, 1, 0)
      | S_crash _ -> (Sim_time.zero, -1, 0)
      | S_deliver { msg; at; klass; _ } -> (at, klass, msg.seq)
      | S_timeout t -> (t.t_at, 3, t.t_seq)
    in
    let rec go viol =
      match viol with
      | Some _ -> viol
      | None -> (
          match
            enumerate ctx
            |> List.filter (function S_crash _ -> false | _ -> true)
            |> List.sort (fun a b -> compare (rank a) (rank b))
          with
          | [] -> None
          | cand :: _ ->
              trail := cand :: !trail;
              go (exec_step ctx cand))
    in
    go None

  let violation_holds cfg property keys ~completion =
    let ctx = create_ctx cfg in
    let trail = ref [] in
    let viol = run_keys ctx trail keys in
    let viol =
      match (viol, completion) with
      | None, true -> (
          match complete ctx trail with
          | Some v -> Some v
          | None ->
              if
                enumerate ctx = []
                && ctx.pending_timers = []
                && ctx.pending_msgs = []
              then terminal_violation ctx
              else None)
      | v, _ -> v
    in
    (* a candidate that blows the class's lateness budget (e.g. a dropped
       delivery stranding a synchronous message) left the execution class:
       the shrunk witness must stay a legal schedule of the exploration *)
    match viol with
    | Some (p, _) when p = property && ctx.late_count <= max_late_of cfg ->
        Some (List.rev !trail)
    | _ -> None

  (* Greedy event-drop: try to remove each crash and delivery, keeping the
     drop whenever the violation still reproduces. *)
  let shrink cfg property steps =
    let completion = property = Mc_replay.Termination in
    let droppable = function
      | S_crash _ | S_deliver _ -> true
      | S_proposals | S_timeout _ -> false
    in
    let rec pass best i =
      if i < 0 then best
      else if not (droppable (List.nth best i)) then pass best (i - 1)
      else begin
        let cand = List.filteri (fun j _ -> j <> i) best in
        match
          violation_holds cfg property (List.map key_of cand) ~completion
        with
        | Some trail -> pass trail (min (i - 1) (List.length trail - 1))
        | None -> pass best (i - 1)
      end
    in
    let best = pass steps (List.length steps - 1) in
    match
      violation_holds cfg property (List.map key_of best) ~completion
    with
    | Some trail -> trail
    | None -> best (* should not happen; keep the unshrunk schedule *)

  let describe_step = function
    | S_proposals -> "t=0: every process proposes its vote"
    | S_crash p -> Format.asprintf "%a crashes" Pid.pp p
    | S_deliver { msg; at; late; _ } ->
        Format.asprintf "t=%d: deliver %s %a->%a%s" at
          (M.tag_of_wire msg.payload) Pid.pp msg.src Pid.pp msg.dst
          (if late then " (late)" else "")
    | S_timeout t ->
        Format.asprintf "t=%d: %a %s timer '%s' fires" t.t_at Pid.pp t.t_pid
          (match t.t_layer with
          | Trace.Commit_layer -> "commit"
          | Trace.Consensus_layer -> "consensus")
          t.t_id

  (* Turn the shrunk schedule into engine terms: a strictly increasing
     tick per step (timer fires pinned at their re-anchored instants), a
     per-message delay assignment, and [Before]-crash instants. *)
  let concretize cfg property detail steps =
    let ctx = create_ctx cfg in
    (* -1 until the proposals step: a crash scheduled before it must map
       to [Before 0] (the engine pops crashes ahead of the t=0 proposals),
       not to tick 1, where the victim would get its sends out first *)
    let prev = ref (-1) in
    let faithful = ref true in
    let delays = ref [] in
    let crashes = ref [] in
    let send_tick = Hashtbl.create 64 in
    let set_tick = Hashtbl.create 64 in
    let seen_msgs = Hashtbl.create 64 in
    let seen_timers = Hashtbl.create 64 in
    let note_new tick =
      List.iter
        (fun mg ->
          if not (Hashtbl.mem seen_msgs mg.uid) then begin
            Hashtbl.replace seen_msgs mg.uid ();
            Hashtbl.replace send_tick mg.uid tick
          end)
        ctx.pending_msgs;
      List.iter
        (fun t ->
          if not (Hashtbl.mem seen_timers t.t_seq) then begin
            Hashtbl.replace seen_timers t.t_seq ();
            Hashtbl.replace set_tick t.t_seq tick
          end)
        ctx.pending_timers
    in
    let fire_tick t =
      match t.t_fire with
      | Proto.At_delay k -> k * cfg.u
      | Proto.After d ->
          let base =
            Option.value (Hashtbl.find_opt set_tick t.t_seq) ~default:t.t_set_mc
          in
          Sim_time.( + ) base d
    in
    let exec step =
      (match step with
      | S_proposals ->
          ignore (exec_step ctx step);
          prev := 0;
          note_new 0
      | S_crash p ->
          ignore (exec_step ctx step);
          crashes := (p, !prev + 1) :: !crashes
      | S_deliver { msg; _ } ->
          let tick = !prev + 1 in
          ignore (exec_step ctx step);
          prev := tick;
          let sent =
            Option.value (Hashtbl.find_opt send_tick msg.uid) ~default:0
          in
          delays := (msg.uid, tick - sent) :: !delays;
          note_new tick
      | S_timeout t ->
          let ft = fire_tick t in
          (* equal is fine: the engine pops same-instant timers in one
             batch, and same-instant fires at distinct processes are
             independent (one representative order explored) *)
          if ft < !prev then faithful := false;
          ignore (exec_step ctx step);
          prev := max !prev ft;
          note_new !prev)
    in
    List.iter exec steps;
    (* leftover in-flight messages arrive after the schedule has played
       out, so the engine run quiesces instead of truncating at max_time *)
    let rec flush () =
      match ctx.pending_msgs with
      | [] -> ()
      | first :: rest ->
          (* oldest first: the pending list is newest-first, and witness
             bytes must not depend on that internal order *)
          let mg =
            List.fold_left
              (fun acc m -> if m.seq < acc.seq then m else acc)
              first rest
          in
          let tick = !prev + 1 in
          prev := tick;
          let sent =
            Option.value (Hashtbl.find_opt send_tick mg.uid) ~default:0
          in
          delays := (mg.uid, tick - sent) :: !delays;
          ignore
            (exec_step ctx
               (S_deliver { msg = mg; at = tick; klass = 2; late = true }));
          note_new tick;
          flush ()
    in
    flush ();
    if not ctx.cfg.klass.allow_late then
      if List.exists (fun (_, d) -> d > cfg.u) !delays then faithful := false;
    {
      Mc_replay.property;
      detail;
      witness =
        {
          Mc_replay.protocol = P.name;
          n = cfg.n;
          f = cfg.f;
          u = cfg.u;
          votes = Array.copy cfg.votes;
          crashes = List.rev !crashes;
          delays = List.rev !delays;
          max_time = !prev + (20 * cfg.u);
          schedule = List.map describe_step steps;
          faithful = !faithful;
        };
    }

  (* ---- the public entry points ------------------------------------- *)

  type params = {
    n : int;
    f : int;
    u : Sim_time.t;
    vote_sets : Vote.t array list;
    klass : exec_class;
    budgets : Mc_limits.budgets;
    symmetry : bool;
        (** canonicalize fingerprints under the protocol's declared
            process-permutation group, prune permutation-twin crash
            candidates and orbit-duplicate frontier items. Verdicts are
            unaffected; the states/transitions/schedules counters shrink
            by the orbit collapse. *)
    jobs : int option;
    naive : bool;  (** also compute the naive schedule count (2nd pass) *)
    visited : Mc_limits.visited_mode;
    swarm : bool option;
        (** [Some true]: explore with independent randomized-order DFS
            walks, one per domain, coupled only through a shared visited
            table (no frontier handoff); implies the
            shared table whatever [visited] says. [Some false]: never.
            [None] (auto): swarm iff [visited = Shared] and the
            effective job count is at least {!swarm_auto_jobs} — at that
            scale the walks beat frontier handoff (see DESIGN.md).
            Walk orders are seeded deterministically from {!Rng}, but
            counters are jobs- and timing-dependent like any
            shared-table mode; verdicts are unaffected. *)
  }

  type result = {
    counters : Mc_limits.counters;
    naive : float option;
    naive_partial : bool;
    violation : Mc_replay.violation option;
    shard_load : (int * int) option;
        (* (occupied, buckets) of the fullest shared visited table, when
           a shared-table mode ran — the occupancy [mc --stats] reports;
           [None] in per-item mode *)
  }

  type item_result = {
    ir_counters : Mc_limits.counters;
    ir_violation : (Mc_replay.property * string * step list) option;
  }

  (* A unit of frontier work: a schedule prefix to explore under some
     vote assignment. [wi_shared] is the vote-set group's shared visited
     table in [Shared] mode ([None] in the deterministic per-item mode):
     pre-proposal fingerprints do not cover the votes array, so sharing
     one table {e across} vote sets would conflate distinct states — the
     table's scope is exactly one group. *)
  type work_item = {
    wi_cfg : config;
    wi_prefix : step list;
    wi_shared : key list Mc_shards.t option;
    wi_seed : int option;
        (* [Some seed]: a swarm walker — explore from the (empty-prefix)
           root in the randomized order drawn from [Rng.create seed],
           with the visited cut held open for the first
           [swarm_open_depth] levels. [None]: a plain frontier item. *)
  }

  (* A frontier item's table starts small and grows as it fills: the
     frontier splits each vote set into ~[frontier_target] items, so an
     item stores hundreds to tens of thousands of states, far below the
     state budget, and a table sized to the budget would spend more
     allocating empty buckets than the rehashes it saves. *)
  let fresh_visited () : 'a Dtbl.t = Dtbl.create 1024

  (* How many tree levels a swarm walker keeps exploring through states
     another walker already claimed (see [dfs_dpor]'s [?open_depth]).
     Deep enough that walkers wade past the narrow shallow region (the
     root has a single [S_proposals] child in the crash-free classes)
     and diverge into disjoint deep subtrees; shallow enough that the
     duplicated transitions stay a small fraction of the space. *)
  let swarm_open_depth = 6

  let explore_item wi =
    let counters = Mc_limits.fresh_counters () in
    let violation = ref None in
    (try
       let ctx = create_ctx wi.wi_cfg in
       match replay_prefix ctx wi.wi_prefix with
       | Some (prop, detail) ->
           counters.Mc_limits.schedules <- 1;
           violation := Some (prop, detail, wi.wi_prefix)
       | None ->
           let vt =
             match wi.wi_shared with
             | Some sh -> vtable_of_shards sh
             | None -> vtable_of_tbl (fresh_visited ())
           in
           (match wi.wi_seed with
           | None -> dfs_dpor ctx counters vt
           | Some seed ->
               let rng = Rng.create seed in
               dfs_dpor
                 ~order:(fun cands -> Rng.shuffle rng cands)
                 ~open_depth:swarm_open_depth ctx counters vt)
     with
    | Found (prop, detail, sub) ->
        violation := Some (prop, detail, wi.wi_prefix @ sub)
    | Out_of_states -> counters.Mc_limits.budget_hit <- true);
    { ir_counters = counters; ir_violation = !violation }

  let count_item wi =
    try
      let ctx = create_ctx wi.wi_cfg in
      match replay_prefix ctx wi.wi_prefix with
      | Some _ -> (1.0, false)
      | None ->
          ( dfs_count ctx (Mc_limits.fresh_counters ()) (fresh_visited ()),
            false )
    with Out_of_states -> (0.0, true)

  (* Effective job count at or above which [swarm = None] resolves to
     swarm exploration (shared-visited mode only): below it the frontier
     machinery wins or ties; from four domains up the handoff-free walks
     beat it (see DESIGN.md "Swarm exploration"). *)
  let swarm_auto_jobs = 4

  (* Walker-seed derivation: one deterministic base stream, one draw per
     walker in construction order. Runs with the same jobs count get the
     same walk orders (the *counters* still depend on timing — races on
     the shared table — but the orders each walker attempts do not). *)
  let swarm_seed_base = 0x51ee7

  let run (p : params) =
    let jobs_eff =
      match p.jobs with Some j -> max 1 j | None -> Batch.default_jobs ()
    in
    let swarm_on =
      match p.swarm with
      | Some b -> b
      | None -> p.visited = Mc_limits.Shared && jobs_eff >= swarm_auto_jobs
    in
    let mk_cfg votes =
      {
        n = p.n;
        f = p.f;
        u = p.u;
        votes;
        klass = p.klass;
        budgets = p.budgets;
        symmetry = p.symmetry;
      }
    in
    let tables = ref [] in
    let shared_table () =
      (* sized from the full budget: the index space is fixed for the
         table's lifetime (segments commit lazily), so the capacity hint
         is what keeps chains short near the budget ceiling *)
      let t = Mc_shards.create ~capacity:p.budgets.Mc_limits.max_states () in
      tables := t :: !tables;
      t
    in
    let items =
      if swarm_on then
        (* One walker per domain per vote set, all exploring the full
           space from the root: work partitions dynamically through the
           shared table (a state's inserter owns its subtree; later
           walkers cut there), and the randomized orders make the
           walkers diverge instead of racing down the same path. *)
        let seeds = Rng.create swarm_seed_base in
        List.concat_map
          (fun votes ->
            let cfg = mk_cfg votes in
            let sh = Some (shared_table ()) in
            List.init (max 1 jobs_eff) (fun _ ->
                {
                  wi_cfg = cfg;
                  wi_prefix = [];
                  wi_shared = sh;
                  wi_seed = Some (Int64.to_int (Rng.next64 seeds) land max_int);
                }))
          p.vote_sets
      else
        List.concat_map
          (fun votes ->
            let cfg = mk_cfg votes in
            let shared =
              match p.visited with
              | Mc_limits.Per_item -> None
              | Mc_limits.Shared -> Some (shared_table ())
            in
            List.map
              (fun prefix ->
                {
                  wi_cfg = cfg;
                  wi_prefix = prefix;
                  wi_shared = shared;
                  wi_seed = None;
                })
              (dedup_frontier cfg (frontier cfg)))
          p.vote_sets
    in
    (* one shared cursor for every mode: swarm walkers are equally
       "fat" and map one to a domain; a frontier item is one
       [explore_item] call against its own table in per-item mode, so
       which domain claims it cannot move a counter *)
    let results = Batch.run ?jobs:p.jobs explore_item items in
    let counters = Mc_limits.fresh_counters () in
    List.iter (fun r -> Mc_limits.add_counters counters r.ir_counters) results;
    let violation =
      List.find_map
        (fun (wi, r) ->
          Option.map
            (fun (prop, detail, steps) ->
              let shrunk = shrink wi.wi_cfg prop steps in
              concretize wi.wi_cfg prop detail shrunk)
            r.ir_violation)
        (List.combine items results)
    in
    (* the naive count only rates the pruning of a completed exploration;
       a witness search that stops at a violation skips the second pass *)
    let naive, naive_partial =
      if p.naive && violation = None then begin
        (* the naive count enumerates each vote set's space exactly once,
           so it always runs over the static, undeduplicated frontier
           decomposition: swarm items (one per walker) would multi-count
           it, and symmetry-deduplicated items would undercount it — the
           naive number rates the space, not the reduction *)
        let count_items =
          if swarm_on || p.symmetry then
            List.concat_map
              (fun votes ->
                let cfg = mk_cfg votes in
                List.map
                  (fun prefix ->
                    {
                      wi_cfg = cfg;
                      wi_prefix = prefix;
                      wi_shared = None;
                      wi_seed = None;
                    })
                  (frontier cfg))
              p.vote_sets
          else items
        in
        let counts = Batch.run ?jobs:p.jobs count_item count_items in
        ( Some (List.fold_left (fun acc (c, _) -> acc +. c) 0.0 counts),
          List.exists snd counts )
      end
      else (None, false)
    in
    let shard_load =
      List.fold_left
        (fun acc t ->
          let occ = Mc_shards.size t in
          match acc with
          | Some (o, _) when o >= occ -> acc
          | _ -> Some (occ, Mc_shards.buckets t))
        None !tables
    in
    { counters; naive; naive_partial; violation; shard_load }

  (* ---- the canonical synchronous schedule --------------------------- *)

  type canonical = {
    can_decisions : (Pid.t * Vote.decision) list;
    can_commit_msgs : int;
    can_cons_msgs : int;
  }

  (* One deterministic schedule: always execute the engine-first enabled
     event ((time, class, creation seq) order, like the event queue). On a
     nice configuration this must coincide with [Engine.run] on
     [Scenario.nice] — the cross-validation tests pin that. *)
  let canonical_run ~n ~f ~u () =
    let cfg =
      {
        n;
        f;
        u;
        votes = Array.make n Vote.yes;
        klass = { allow_crashes = false; allow_late = false };
        budgets = Mc_limits.default_budgets ~u;
        symmetry = false;
      }
    in
    (* the message counts are read from the trace *)
    let ctx = create_ctx ~record_trace:true cfg in
    let trail = ref [] in
    ignore (exec_step ctx S_proposals);
    ignore (complete ctx trail);
    let decs = M.decisions ctx.m in
    {
      can_decisions =
        List.filter_map
          (fun i ->
            Option.map (fun (_, d) -> (Pid.of_index i, d)) decs.(i))
          (List.init n Fun.id);
      can_commit_msgs =
        List.length
          (Trace.network_sends ~layer:Trace.Commit_layer (M.trace ctx.m));
      can_cons_msgs =
        List.length
          (Trace.network_sends ~layer:Trace.Consensus_layer (M.trace ctx.m));
    }
end
