type waiter = {
  w_id : int;
  w_client : int;
  w_submitted : Sim_time.t;
  w_keys : int array;
  w_writes : int;
  w_reads : int;
  w_owners : owner_set;
  mutable w_waits : int;
  mutable w_by_name : int array;
}

and owner_set = {
  shards : int array;  (* ascending shard indices *)
  mutable first_open : int;  (* its newest unlaunched batch's holder, or -1 *)
}

(* An open batch, then the instance it launched: one id from the batch's
   opening to the instance's retirement (or to a launch that empties the
   batch). The batch lives in its holder, so opening, arming and
   launching one allocates nothing. *)
type holder = {
  queue : waiter Queue.t;  (* FIFO; released when the holder resolves *)
  mutable started : bool;  (* its instance launched *)
  mutable decided : bool;
  mutable serial : int;  (* its batch's number, as armed *)
  mutable owners : owner_set;  (* its batch's owner set *)
  mutable members : waiter array;  (* oldest first; the first [count] *)
  mutable count : int;
  mutable launched : bool;  (* its batch left its owner set's open chain *)
  mutable next : int;
      (* the next holder of the one chain that holds this one, or -1: its
         owner set's open batches (newest first), the ready queue (oldest
         first) or the free ids *)
}

let rec same_from (a : int array) (b : int array) i =
  i = Array.length a || (a.(i) = b.(i) && same_from a b (i + 1))

(* owner sets, keyed by their ascending shard array; top-level loops
   compare them, since [Array.for_all2] builds a closure per call *)
module Shard_sets = Hashtbl.Make (struct
  type t = int array

  let equal a b = Array.length a = Array.length b && same_from a b 0
  let hash a = Array.fold_left (fun h s -> (h * 31) + s) 0 a land max_int
end)

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
  mutable free_hid : int;  (* the newest id handed back, or -1 *)
  mutable batches : int;  (* batches opened so far: the next serial *)
  owner_sets : owner_set Shard_sets.t;
  mutable set_keys : int array array;
      (* by length, the buffer a lookup copies its shards into *)
  mutable ready_head : int;
      (* launched batches behind the pipeline cap, oldest first *)
  mutable ready_tail : int;
  launch : Sim_time.t -> int -> waiter array -> int -> unit;
  resubmit : Sim_time.t -> int -> unit;
  arm : Sim_time.t -> int -> int -> unit;
}

let vacant_set = { shards = [||]; first_open = -1 }

(* fills the free entries of a holder's member array *)
let vacant_waiter =
  { w_id = -1; w_client = -1; w_submitted = 0; w_keys = [||]; w_writes = 0;
    w_reads = 0; w_owners = vacant_set; w_waits = 0; w_by_name = [||] }

let create ~ks ~hist ~keys ~max_batch ~batch_window ~wait_budget
    ~pipeline_depth ~launch ~resubmit ~arm =
  { ks; hist; max_batch; batch_window; wait_budget; pipeline_depth;
    lock = Array.make keys (-1); holders = [||]; next_hid = 0;
    free_hid = -1; batches = 0; owner_sets = Shard_sets.create 64;
    set_keys = [||]; ready_head = -1; ready_tail = -1; launch; resubmit; arm }

let[@inline] nkeys w = w.w_writes + w.w_reads
let[@inline] read_key w j = w.w_keys.(w.w_writes + j)
let[@inline] read_version w j = w.w_keys.(w.w_writes + w.w_reads + j)

(* ---- owner sets ---- *)

(* A set met before is found through a buffer of its length, so only a
   new set copies its shards. *)
let owners t shards n =
  if n >= Array.length t.set_keys then
    t.set_keys <- Array.init (n + 1) (fun len -> Array.make len 0);
  let key = t.set_keys.(n) in
  Array.blit shards 0 key 0 n;
  match Shard_sets.find t.owner_sets key with
  | os -> os
  | exception Not_found ->
      let os = { shards = Array.copy key; first_open = -1 } in
      Shard_sets.add t.owner_sets os.shards os;
      os

let shards os = os.shards

(* ---- holders ---- *)

let new_holder t =
  { queue = Queue.create (); started = false; decided = false; serial = -1;
    owners = vacant_set;
    members = Array.make (Int.min t.max_batch 8) vacant_waiter; count = 0;
    launched = false; next = -1 }

(* an id no open batch or unretired instance holds *)
let take_hid t =
  let h = t.free_hid in
  if h >= 0 then begin
    let holder = t.holders.(h) in
    t.free_hid <- holder.next;
    holder.started <- false;
    holder.decided <- false;
    h
  end
  else begin
    let h = t.next_hid in
    t.next_hid <- h + 1;
    if h = Array.length t.holders then
      t.holders <-
        Array.append t.holders
          (Array.init (Int.max 16 h) (fun _ -> new_holder t));
    h
  end

let retire t h =
  let holder = t.holders.(h) in
  assert (Queue.is_empty holder.queue);
  Array.fill holder.members 0 holder.count vacant_waiter;
  holder.count <- 0;
  holder.next <- t.free_hid;
  t.free_hid <- h

(* ---- admission ---- *)

let rec is_write (keys : int array) writes k j =
  j < writes && (keys.(j) = k || is_write keys writes k (j + 1))

let rec blocker_by_name t w ~open_too j =
  let keys = w.w_by_name in
  if j = Array.length keys then -1
  else
    let k = keys.(j) in
    let h = t.lock.(k) in
    if
      h >= 0
      && (t.holders.(h).started
         || (open_too && is_write w.w_keys w.w_writes k 0))
    then h
    else blocker_by_name t w ~open_too (j + 1)

let rec blocker_in_draw_order t w ~open_too j =
  if j = nkeys w then -1
  else
    let h = t.lock.(w.w_keys.(j)) in
    if h >= 0 && (t.holders.(h).started || (open_too && j < w.w_writes))
    then begin
      let by_name = Array.sub w.w_keys 0 (nkeys w) in
      Keyspace.sort_names by_name;
      w.w_by_name <- by_name;
      blocker_by_name t w ~open_too 0
    end
    else blocker_in_draw_order t w ~open_too (j + 1)

(* The holder [w] waits on: that of its first key in name order that a
   launched instance write-locks or, with [open_too], that [w] writes and
   an open batch locks; -1 when there is none. Most transactions meet no
   held key, so the keys are copied into name order only when a scan in
   draw order first finds one, and then scanned again. *)
let blocker t w ~open_too =
  if Array.length w.w_by_name > 0 then blocker_by_name t w ~open_too 0
  else blocker_in_draw_order t w ~open_too 0

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

let rec reads_fresh_from ks w j =
  j = w.w_reads
  || Keyspace.version ks (read_key w j) = read_version w j
     && reads_fresh_from ks w (j + 1)

let reads_fresh ks w = reads_fresh_from ks w 0

(* drop [h] from its owner set's open chain, where it follows [p] *)
let rec unlink_after holders h p =
  let q = holders.(p).next in
  if q = h then holders.(p).next <- holders.(h).next
  else unlink_after holders h q

let unlink t h =
  let os = t.holders.(h).owners in
  if os.first_open = h then os.first_open <- t.holders.(h).next
  else unlink_after t.holders h os.first_open

(* typed: left polymorphic, [=] here is [caml_equal] per key *)
let rec has_key (keys : int array) n k j =
  j < n && (keys.(j) = k || has_key keys n k (j + 1))

let rec shares_key a b j =
  j < nkeys a
  && (has_key b.w_keys (nkeys b) a.w_keys.(j) 0 || shares_key a b (j + 1))

let rec shares_member w (members : waiter array) count m =
  m < count
  && (shares_key w members.(m) 0 || shares_member w members count (m + 1))

(* [blocker] let [w] in, so no one holds its writes *)
let lock_writes t w h =
  for j = 0 to w.w_writes - 1 do
    let k = w.w_keys.(j) in
    assert (t.lock.(k) < 0);
    t.lock.(k) <- h
  done

(* a member leaving its batch [h] at launch frees what it locked *)
let unlock_writes t w h =
  for j = 0 to w.w_writes - 1 do
    let k = w.w_keys.(j) in
    if t.lock.(k) = h then t.lock.(k) <- -1
  done

(* a fresh queue holding [queue]'s waiters, so that re-admitting them
   cannot land one back in the queue it left *)
let moved queue =
  let waiters = Queue.create () in
  Queue.transfer queue waiters;
  waiters

(* the newest open batch from [h] on with room and no key of [w] *)
let rec fitting t w h =
  if h < 0 then -1
  else
    let b = t.holders.(h) in
    if b.count < t.max_batch && not (shares_member w b.members b.count 0) then h
    else fitting t w b.next

(* At launch a member waits only on launched instances: on one that
   locked a key it reads since it joined, or, if it locked nothing, on
   one that holds any of its keys. Such a member, then each stale one,
   unlocks and leaves; the rest launch under the batch's holder, whose
   queue becomes the instance's. A batch left empty hands its id back and
   re-admits its waiters at once. *)
let rec start_instance t now hid =
  let b = t.holders.(hid) in
  let members = b.members in
  let kept = ref 0 in
  for j = 0 to b.count - 1 do
    let w = members.(j) in
    let h = blocker t w ~open_too:false in
    if h >= 0 then begin
      unlock_writes t w hid;
      wait_or_abort t now ~at_launch:true w h
    end
    else if reads_fresh t.ks w then begin
      members.(!kept) <- w;
      incr kept
    end
    else begin
      unlock_writes t w hid;
      Svc_history.aborted_locally t.hist ~stale:true;
      t.resubmit now w.w_client
    end
  done;
  Array.fill members !kept (b.count - !kept) vacant_waiter;
  b.count <- !kept;
  if !kept = 0 then begin
    let queue = b.queue in
    let waiters = if Queue.is_empty queue then queue else moved queue in
    retire t hid;
    readmit t now waiters
  end
  else begin
    b.started <- true;
    t.launch now hid members !kept
  end

and launch_ready t now =
  while
    Svc_history.in_flight t.hist < t.pipeline_depth && t.ready_head >= 0
  do
    let h = t.ready_head in
    t.ready_head <- t.holders.(h).next;
    if t.ready_head < 0 then t.ready_tail <- -1;
    start_instance t now h
  done

and launch_batch t now h serial =
  let b = t.holders.(h) in
  if b.serial = serial && not b.launched then begin
    b.launched <- true;
    unlink t h;
    b.next <- -1;
    if t.ready_tail < 0 then t.ready_head <- h
    else t.holders.(t.ready_tail).next <- h;
    t.ready_tail <- h;
    launch_ready t now
  end

(* [w] joins [h]'s batch, and write-locks its keys under [h] if its
   reads are still fresh: a stale member can only abort at launch *)
and join t w h =
  let b = t.holders.(h) in
  if b.count = Array.length b.members then begin
    let grown = Array.make (2 * b.count) vacant_waiter in
    Array.blit b.members 0 grown 0 b.count;
    b.members <- grown
  end;
  b.members.(b.count) <- w;
  b.count <- b.count + 1;
  if reads_fresh t.ks w then lock_writes t w h

(* [w] joins the newest open batch of its owner set that has room and
   shares none of its keys, or opens a new one *)
and admit t now w =
  let os = w.w_owners in
  let h = fitting t w os.first_open in
  if h >= 0 then begin
    join t w h;
    let b = t.holders.(h) in
    if b.count >= t.max_batch then launch_batch t now h b.serial
  end
  else begin
    let h = take_hid t in
    let b = t.holders.(h) in
    b.serial <- t.batches;
    t.batches <- t.batches + 1;
    b.owners <- os;
    b.launched <- false;
    b.next <- os.first_open;
    os.first_open <- h;
    join t w h;
    if t.batch_window = 0 || t.max_batch <= 1 then
      launch_batch t now h b.serial
    else t.arm (Sim_time.( + ) now t.batch_window) h b.serial
  end

and submit t now w =
  let h = blocker t w ~open_too:true in
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

let release t ~shard h =
  let b = t.holders.(h) in
  for m = 0 to b.count - 1 do
    let w = b.members.(m) in
    for j = 0 to w.w_writes - 1 do
      let k = w.w_keys.(j) in
      if Keyspace.owner t.ks k = shard then t.lock.(k) <- -1
    done
  done

let drain t now h =
  let holder = t.holders.(h) in
  holder.decided <- true;
  if not (Queue.is_empty holder.queue) then readmit t now (moved holder.queue)
