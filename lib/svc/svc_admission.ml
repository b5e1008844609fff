type waiter = {
  w_id : int;
  w_client : int;
  w_submitted : Sim_time.t;
  w_keys : int array;
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

type holder = {
  queue : waiter Queue.t;  (* FIFO; released when the holder resolves *)
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
  owner_sets : owner_set Shard_sets.t;
  ready : batch Queue.t;  (* launched batches behind the pipeline cap *)
  drain_scratch : waiter Queue.t;
  launch : Sim_time.t -> waiter list -> int;
  resubmit : Sim_time.t -> int -> unit;
  arm : Sim_time.t -> batch -> unit;
}

let create ~ks ~hist ~keys ~max_batch ~batch_window ~wait_budget
    ~pipeline_depth ~launch ~resubmit ~arm =
  { ks; hist; max_batch; batch_window; wait_budget; pipeline_depth;
    lock = Array.make keys (-1); holders = [||];
    owner_sets = Shard_sets.create 64; ready = Queue.create ();
    drain_scratch = Queue.create (); launch; resubmit; arm }

let owners t shards =
  match Shard_sets.find_opt t.owner_sets shards with
  | Some os -> os
  | None ->
      let os = { shards; open_batches = [] } in
      Shard_sets.add t.owner_sets shards os;
      os

let shards os = os.shards

let rec holder_from t keys j =
  if j = Array.length keys then -1
  else
    let h = t.lock.(keys.(j)) in
    if h >= 0 then h else holder_from t keys (j + 1)

(* [w] hit a write lock held by [h] *)
let wait_or_abort t now w h =
  let holder = t.holders.(h) in
  if holder.decided || w.w_waits >= t.wait_budget then begin
    Svc_history.aborted_locally t.hist ~stale:false;
    t.resubmit now w.w_client
  end
  else begin
    Svc_history.waited t.hist ~first:(w.w_waits = 0);
    Queue.push w holder.queue
  end

let rec reads_fresh ks w j =
  j = Array.length w.w_reads
  || Keyspace.version ks w.w_reads.(j) = w.w_read_vers.(j)
     && reads_fresh ks w (j + 1)

let lock_members t now members =
  let h = t.launch now members in
  (* ids are dense: a new one is the next past the end *)
  if h >= Array.length t.holders then
    t.holders <- Array.append t.holders (Array.init (max 16 h) (fun _ ->
      { queue = Queue.create (); decided = false }));
  let holder = t.holders.(h) in
  assert (Queue.is_empty holder.queue);
  holder.decided <- false;
  List.iter
    (fun w ->
      Array.iter
        (fun k ->
          assert (t.lock.(k) < 0);
          t.lock.(k) <- h)
        w.w_writes)
    members

(* Conflicts that developed after admission (inside the batch window, or
   while the batch sat behind the pipeline cap) send members back to a
   holder's queue; then stale members abort, and the rest launch. *)
let start_instance t now waiters_in =
  let members =
    List.filter
      (fun w ->
        let h = holder_from t w.w_keys 0 in
        if h >= 0 then begin
          wait_or_abort t now w h;
          false
        end
        else if reads_fresh t.ks w 0 then true
        else begin
          Svc_history.aborted_locally t.hist ~stale:true;
          t.resubmit now w.w_client;
          false
        end)
      waiters_in
  in
  match members with [] -> () | _ -> lock_members t now members

let launch_ready t now =
  while
    Svc_history.in_flight t.hist < t.pipeline_depth
    && not (Queue.is_empty t.ready)
  do
    let b = Queue.pop t.ready in
    start_instance t now (List.rev b.b_members)
  done

(* drop [b] from its owner set's open list (it is there exactly once),
   sharing the tail behind it *)
let rec unlink b = function
  | [] -> []
  | ob :: rest -> if ob == b then rest else ob :: unlink b rest

let launch_batch t now b =
  if not b.b_launched then begin
    b.b_launched <- true;
    b.b_owners.open_batches <- unlink b b.b_owners.open_batches;
    Queue.push b t.ready;
    launch_ready t now
  end

(* typed: left polymorphic, [=] here is [caml_equal] per key *)
let rec has_key (keys : int array) k j =
  j < Array.length keys && (keys.(j) = k || has_key keys k (j + 1))

let rec shares_key a b j =
  j < Array.length a && (has_key b a.(j) 0 || shares_key a b (j + 1))

(* [w] joins the newest open batch of its owner set that has room and
   shares none of its keys, or opens a new one *)
let admit t now w =
  let os = w.w_owners in
  let fits b =
    b.b_count < t.max_batch
    && not (List.exists (fun o -> shares_key w.w_keys o.w_keys 0) b.b_members)
  in
  match List.find_opt fits os.open_batches with
  | Some b ->
      b.b_members <- w :: b.b_members;
      b.b_count <- b.b_count + 1;
      if b.b_count >= t.max_batch then launch_batch t now b
  | None ->
      let b =
        { b_owners = os; b_members = [ w ]; b_count = 1; b_launched = false }
      in
      os.open_batches <- b :: os.open_batches;
      if t.batch_window = 0 || t.max_batch <= 1 then launch_batch t now b
      else t.arm (Sim_time.( + ) now t.batch_window) b

let submit t now w =
  let h = holder_from t w.w_keys 0 in
  if h < 0 then admit t now w else wait_or_abort t now w h

let release t ~shard members =
  List.iter
    (fun w ->
      Array.iter
        (fun k -> if Keyspace.owner t.ks k = shard then t.lock.(k) <- -1)
        w.w_writes)
    members

(* Transfer the queue out first, so a waiter that re-conflicts elsewhere
   cannot land back in the queue being drained. *)
let drain t now h =
  let holder = t.holders.(h) in
  holder.decided <- true;
  let queue = holder.queue in
  if not (Queue.is_empty queue) then begin
    Queue.transfer queue t.drain_scratch;
    while not (Queue.is_empty t.drain_scratch) do
      let w = Queue.pop t.drain_scratch in
      Svc_history.woken t.hist;
      w.w_waits <- w.w_waits + 1;
      submit t now w
    done
  end
