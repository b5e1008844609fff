(* Tags encode (generation, slot): the slot indexes the fixed-size
   per-instance bookkeeping (pending counts), the generation makes every
   tag unique across the queue's lifetime even though slots are recycled.
   A tag from a superseded generation fails the generation check at every
   site, so events queued under it dangle harmlessly — the same soundness
   argument as the original monotone tags, but with O(live instances)
   memory instead of O(all tags ever). *)

let slot_bits = 20
let slot_mask = (1 lsl slot_bits) - 1

type 'a t = {
  queue : 'a Event_queue.t;  (* each event's tag is its instance *)
  mutable gens : int array;  (* per slot: current generation *)
  mutable pending : int array;  (* per slot: pending of the current gen *)
  mutable free : int list;  (* retired slots awaiting re-allocation *)
  mutable slots_used : int;  (* high-water slot count *)
}

let create () =
  {
    queue = Event_queue.create ();
    gens = Array.make 64 0;
    pending = Array.make 64 0;
    free = [];
    slots_used = 0;
  }

let slot tag = tag land slot_mask
let gen tag = tag asr slot_bits

let ensure t s =
  let len = Array.length t.pending in
  if s >= len then begin
    let cap = ref (2 * len) in
    while s >= !cap do
      cap := 2 * !cap
    done;
    let grown = Array.make !cap 0 in
    Array.blit t.pending 0 grown 0 len;
    t.pending <- grown;
    let ggrown = Array.make !cap 0 in
    Array.blit t.gens 0 ggrown 0 len;
    t.gens <- ggrown
  end

let alloc t =
  let s =
    match t.free with
    | s :: rest ->
        t.free <- rest;
        s
    | [] ->
        let s = t.slots_used in
        if s > slot_mask then failwith "Mux.alloc: live instance slots exhausted";
        t.slots_used <- s + 1;
        ensure t s;
        s
  in
  t.pending.(s) <- 0;
  (t.gens.(s) lsl slot_bits) lor s

let retire t tag =
  let s = slot tag in
  if s < Array.length t.gens && t.gens.(s) = gen tag then begin
    t.gens.(s) <- t.gens.(s) + 1;
    t.pending.(s) <- 0;
    t.free <- s :: t.free
  end

let add t ~instance ~time ~klass payload =
  if instance >= 0 then begin
    let s = slot instance in
    ensure t s;
    if s >= t.slots_used then t.slots_used <- s + 1;
    if t.gens.(s) = gen instance then t.pending.(s) <- t.pending.(s) + 1
  end;
  Event_queue.add_tagged t.queue ~time ~klass ~tag:instance payload

let min_time t = Event_queue.min_time t.queue
let min_instance t = Event_queue.min_tag t.queue

let take t =
  let instance = Event_queue.min_tag t.queue in
  (if instance >= 0 then
     let s = slot instance in
     if s < Array.length t.gens && t.gens.(s) = gen instance then
       t.pending.(s) <- t.pending.(s) - 1);
  Event_queue.take t.queue

let pending t instance =
  if instance < 0 then 0
  else
    let s = slot instance in
    if s < Array.length t.pending && t.gens.(s) = gen instance then
      t.pending.(s)
    else 0

let size t = Event_queue.size t.queue
let is_empty t = Event_queue.is_empty t.queue
