type waiter = {
  w_id : int;
  w_client : int;
  w_submitted : Sim_time.t;
  w_keys : int array;
  mutable w_sorted : bool;
  w_reads : int array;
  w_read_vers : int array;
  w_writes : int array;
  w_owners : owner_set;
  mutable w_waits : int;
}

and owner_set = {
  shards : int array;  (* ascending shard indices *)
  mutable open_batches : batch list;  (* unlaunched, newest first *)
}

and batch = {
  b_hid : int;  (* the holder id its members lock their writes under *)
  b_owners : owner_set;
  mutable b_members : waiter list;  (* newest first *)
  mutable b_count : int;
  mutable b_launched : bool;
}

(* owner sets, keyed by their ascending shard array *)
module Shard_sets = Hashtbl.Make (struct
  type t = int array

  let equal a b =
    Array.length a = Array.length b && Array.for_all2 Int.equal a b

  let hash a = Array.fold_left (fun h s -> (h * 31) + s) 0 a land max_int
end)

(* An open batch, then the instance it launched: one id from the batch's
   opening to the instance's retirement (or to a launch that empties the
   batch). *)
type holder = {
  queue : waiter Queue.t;  (* FIFO; released when the holder resolves *)
  mutable started : bool;  (* its instance launched *)
  mutable decided : bool;
}

type t = {
  ks : Keyspace.t;
  hist : Svc_history.t;
  max_batch : int;
  batch_window : Sim_time.t;
  wait_budget : int;
  pipeline_depth : int;
  lock : int array;  (* per key: its holder's id, or -1 *)
  mutable holders : holder array;  (* by holder id *)
  mutable next_hid : int;  (* ids handed out so far *)
  mutable free_hids : int list;  (* ids handed back *)
  owner_sets : owner_set Shard_sets.t;
  ready : batch Queue.t;  (* launched batches behind the pipeline cap *)
  launch : Sim_time.t -> int -> waiter list -> unit;
  resubmit : Sim_time.t -> int -> unit;
  arm : Sim_time.t -> batch -> unit;
}

let create ~ks ~hist ~keys ~max_batch ~batch_window ~wait_budget
    ~pipeline_depth ~launch ~resubmit ~arm =
  { ks; hist; max_batch; batch_window; wait_budget; pipeline_depth;
    lock = Array.make keys (-1); holders = [||]; next_hid = 0;
    free_hids = []; owner_sets = Shard_sets.create 64;
    ready = Queue.create (); launch; resubmit; arm }

let owners t shards =
  match Shard_sets.find_opt t.owner_sets shards with
  | Some os -> os
  | None ->
      let os = { shards; open_batches = [] } in
      Shard_sets.add t.owner_sets shards os;
      os

let shards os = os.shards

(* an id no open batch or unretired instance holds *)
let take_hid t =
  match t.free_hids with
  | h :: rest ->
      t.free_hids <- rest;
      let holder = t.holders.(h) in
      holder.started <- false;
      holder.decided <- false;
      h
  | [] ->
      let h = t.next_hid in
      t.next_hid <- h + 1;
      if h = Array.length t.holders then
        t.holders <- Array.append t.holders (Array.init (Int.max 16 h) (fun _ ->
          { queue = Queue.create (); started = false; decided = false }));
      h

let retire t h =
  assert (Queue.is_empty t.holders.(h).queue);
  t.free_hids <- h :: t.free_hids

(* typed: left polymorphic, [=] here is [caml_equal] per key *)
let rec has_key (keys : int array) k j =
  j < Array.length keys && (keys.(j) = k || has_key keys k (j + 1))

(* The holder [w] waits on: that of its first key in name order that a
   launched instance write-locks or, with [open_too], that [w] writes and
   an open batch locks; -1 when there is none. Most transactions meet no
   held key, so the keys are sorted only when the scan first finds one,
   and then scanned again. *)
let rec blocker t w ~open_too j =
  if j = Array.length w.w_keys then -1
  else
    let k = w.w_keys.(j) in
    let h = t.lock.(k) in
    if h >= 0 && (t.holders.(h).started || (open_too && has_key w.w_writes k 0))
    then
      if w.w_sorted then h
      else begin
        Keyspace.sort_names w.w_keys;
        w.w_sorted <- true;
        blocker t w ~open_too 0
      end
    else blocker t w ~open_too (j + 1)

(* [w] must wait on [h]; [at_launch] when its batch was launching *)
let wait_or_abort t now ~at_launch w h =
  let holder = t.holders.(h) in
  if holder.decided || w.w_waits >= t.wait_budget then begin
    Svc_history.aborted_locally t.hist ~stale:false;
    t.resubmit now w.w_client
  end
  else begin
    Svc_history.waited t.hist ~first:(w.w_waits = 0) ~at_launch;
    Queue.push w holder.queue
  end

let rec reads_fresh ks w j =
  j = Array.length w.w_reads
  || Keyspace.version ks w.w_reads.(j) = w.w_read_vers.(j)
     && reads_fresh ks w (j + 1)

(* drop [b] from its owner set's open list (it is there exactly once),
   sharing the tail behind it *)
let rec unlink b = function
  | [] -> []
  | ob :: rest -> if ob == b then rest else ob :: unlink b rest

let rec shares_key a b j =
  j < Array.length a && (has_key b a.(j) 0 || shares_key a b (j + 1))

(* [blocker] let [w] in, so no one holds its writes *)
let lock_writes t w h =
  for j = 0 to Array.length w.w_writes - 1 do
    let k = w.w_writes.(j) in
    assert (t.lock.(k) < 0);
    t.lock.(k) <- h
  done

(* a member leaving its batch [h] at launch frees what it locked *)
let unlock_writes t w h =
  for j = 0 to Array.length w.w_writes - 1 do
    let k = w.w_writes.(j) in
    if t.lock.(k) = h then t.lock.(k) <- -1
  done

(* a fresh queue holding [queue]'s waiters, so that re-admitting them
   cannot land one back in the queue it left *)
let moved queue =
  let waiters = Queue.create () in
  Queue.transfer queue waiters;
  waiters

(* At launch a member waits only on launched instances: on one that
   locked a key it reads since it joined, or, if it locked nothing, on
   one that holds any of its keys. Such a member, then each stale one,
   unlocks and leaves; the rest launch under the batch's holder, whose
   queue becomes the instance's. A batch left empty hands its id back and
   re-admits its waiters at once. *)
let rec start_instance t now b =
  let hid = b.b_hid in
  let members =
    List.filter
      (fun w ->
        let h = blocker t w ~open_too:false 0 in
        if h >= 0 then begin
          unlock_writes t w hid;
          wait_or_abort t now ~at_launch:true w h;
          false
        end
        else if reads_fresh t.ks w 0 then true
        else begin
          unlock_writes t w hid;
          Svc_history.aborted_locally t.hist ~stale:true;
          t.resubmit now w.w_client;
          false
        end)
      (List.rev b.b_members)
  in
  match members with
  | [] ->
      let queue = t.holders.(hid).queue in
      let waiters = if Queue.is_empty queue then queue else moved queue in
      retire t hid;
      readmit t now waiters
  | _ ->
      t.holders.(hid).started <- true;
      t.launch now hid members

and launch_ready t now =
  while
    Svc_history.in_flight t.hist < t.pipeline_depth
    && not (Queue.is_empty t.ready)
  do
    start_instance t now (Queue.pop t.ready)
  done

and launch_batch t now b =
  if not b.b_launched then begin
    b.b_launched <- true;
    b.b_owners.open_batches <- unlink b b.b_owners.open_batches;
    Queue.push b t.ready;
    launch_ready t now
  end

(* [w] joins [b], and write-locks its keys under [b]'s holder if its
   reads are still fresh: a stale member can only abort at launch *)
and join t w b =
  b.b_members <- w :: b.b_members;
  b.b_count <- b.b_count + 1;
  if reads_fresh t.ks w 0 then lock_writes t w b.b_hid

(* [w] joins the newest open batch of its owner set that has room and
   shares none of its keys, or opens a new one *)
and admit t now w =
  let os = w.w_owners in
  let fits b =
    b.b_count < t.max_batch
    && not (List.exists (fun o -> shares_key w.w_keys o.w_keys 0) b.b_members)
  in
  match List.find_opt fits os.open_batches with
  | Some b ->
      join t w b;
      if b.b_count >= t.max_batch then launch_batch t now b
  | None ->
      let b =
        { b_hid = take_hid t; b_owners = os; b_members = []; b_count = 0;
          b_launched = false }
      in
      os.open_batches <- b :: os.open_batches;
      join t w b;
      if t.batch_window = 0 || t.max_batch <= 1 then launch_batch t now b
      else t.arm (Sim_time.( + ) now t.batch_window) b

and submit t now w =
  let h = blocker t w ~open_too:true 0 in
  if h < 0 then admit t now w else wait_or_abort t now ~at_launch:false w h

(* oldest first; a batch that one of them fills may empty at launch and
   re-admit its own waiters inside this loop *)
and readmit t now waiters =
  while not (Queue.is_empty waiters) do
    let w = Queue.pop waiters in
    Svc_history.woken t.hist;
    w.w_waits <- w.w_waits + 1;
    submit t now w
  done

let release t ~shard members =
  List.iter
    (fun w ->
      Array.iter
        (fun k -> if Keyspace.owner t.ks k = shard then t.lock.(k) <- -1)
        w.w_writes)
    members

let drain t now h =
  let holder = t.holders.(h) in
  holder.decided <- true;
  if not (Queue.is_empty holder.queue) then readmit t now (moved holder.queue)
