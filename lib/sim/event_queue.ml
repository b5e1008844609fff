(* A binary min-heap over parallel int arrays. Heap position [i] holds the
   event's (time, klass, seq) key and the index of its payload slot; the
   payload itself and the event's tag live in slot-indexed tables, written
   once by [add] and read once by [take]. Sifting therefore moves ints into
   a hole — no record dereference per compare and no [caml_modify] per
   swap.

   Slot bookkeeping needs no free list: [slots.(len..cap-1)] always holds
   exactly the free slot indices. [add] takes the free slot parked at
   position [len], and [take] parks the popped event's slot at the
   position the heap vacates. *)

type 'a t = {
  mutable times : int array;
  mutable klasses : int array;
  mutable seqs : int array;
  mutable slots : int array;  (* heap position -> payload slot *)
  mutable payloads : 'a option array;
      (* slot -> payload; [None] once taken, so a free slot never pins a
         popped payload however long the queue lives *)
  mutable tags : int array;  (* slot -> tag *)
  mutable len : int;
  mutable next_seq : int;
}

(* An engine queue drains between instants and refills at the next one;
   the backing arrays are kept across drains so steady-state refills
   re-use capacity instead of re-growing from 16 every instant. The
   retained capacity is bounded: a drain after an unusually large burst
   shrinks the arrays back to this many slots. *)
let max_retained = 256

let create () =
  {
    times = [||];
    klasses = [||];
    seqs = [||];
    slots = [||];
    payloads = [||];
    tags = [||];
    len = 0;
    next_seq = 0;
  }

(* Double a full heap's capacity. Every slot is live when the heap is
   full, so the new slots are exactly the free ones, parked at the new
   positions. *)
let grow t =
  let old = Array.length t.slots in
  let cap = if old = 0 then 16 else 2 * old in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 old;
    b
  in
  t.times <- extend t.times 0;
  t.klasses <- extend t.klasses 0;
  t.seqs <- extend t.seqs 0;
  let slots = extend t.slots 0 in
  for i = old to cap - 1 do
    slots.(i) <- i
  done;
  t.slots <- slots;
  t.payloads <- extend t.payloads None;
  t.tags <- extend t.tags 0

(* Cut an empty heap back to the retention bound; every slot is free. *)
let shrink t =
  let ints () = Array.make max_retained 0 in
  t.times <- ints ();
  t.klasses <- ints ();
  t.seqs <- ints ();
  t.slots <- Array.init max_retained Fun.id;
  t.payloads <- Array.make max_retained None;
  t.tags <- ints ()

(* The sift helpers are inlined: each level of a sift then compiles to
   straight-line int loads and stores. *)

(* (time, klass, seq) < the key at heap position [j] *)
let[@inline] key_lt t time klass seq j =
  let tj = t.times.(j) in
  time < tj
  || time = tj
     &&
     let kj = t.klasses.(j) in
     klass < kj || (klass = kj && seq < t.seqs.(j))

(* the key at heap position [i] < the key at position [j] *)
let[@inline] pos_lt t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  ti < tj
  || ti = tj
     &&
     let ki = t.klasses.(i) and kj = t.klasses.(j) in
     ki < kj || (ki = kj && t.seqs.(i) < t.seqs.(j))

let[@inline] move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.klasses.(dst) <- t.klasses.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.slots.(dst) <- t.slots.(src)

let[@inline] place t i time klass seq slot =
  t.times.(i) <- time;
  t.klasses.(i) <- klass;
  t.seqs.(i) <- seq;
  t.slots.(i) <- slot

(* Move the hole at [i] up past every parent greater than the key, then
   fill it. *)
let rec sift_up t i time klass seq slot =
  let parent = (i - 1) / 2 in
  if i > 0 && key_lt t time klass seq parent then begin
    move t ~src:parent ~dst:i;
    sift_up t parent time klass seq slot
  end
  else place t i time klass seq slot

(* Move the hole at [i] down past every child smaller than the key. *)
let rec sift_down t i time klass seq slot =
  let l = (2 * i) + 1 in
  if l >= t.len then place t i time klass seq slot
  else begin
    let r = l + 1 in
    let c = if r < t.len && pos_lt t r l then r else l in
    if key_lt t time klass seq c then place t i time klass seq slot
    else begin
      move t ~src:c ~dst:i;
      sift_down t c time klass seq slot
    end
  end

let add_tagged t ~time ~klass ~tag payload =
  if time < 0 then invalid_arg "Event_queue.add: negative time";
  if klass < 0 then invalid_arg "Event_queue.add: negative class";
  if t.len = Array.length t.slots then grow t;
  let i = t.len in
  let slot = t.slots.(i) in
  t.payloads.(slot) <- Some payload;
  t.tags.(slot) <- tag;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.len <- i + 1;
  sift_up t i time klass seq slot

let add t ~time ~klass payload = add_tagged t ~time ~klass ~tag:0 payload
let is_empty t = t.len = 0
let size t = t.len
let capacity t = Array.length t.slots

let check_nonempty t what =
  if t.len = 0 then invalid_arg ("Event_queue." ^ what ^ ": empty queue")

let min_time t =
  check_nonempty t "min_time";
  t.times.(0)

let min_klass t =
  check_nonempty t "min_klass";
  t.klasses.(0)

let min_tag t =
  check_nonempty t "min_tag";
  t.tags.(t.slots.(0))

let take t =
  check_nonempty t "take";
  let slot = t.slots.(0) in
  let payload =
    match t.payloads.(slot) with
    | Some p -> p
    | None -> assert false (* live slots always carry their payload *)
  in
  t.payloads.(slot) <- None;
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then
    sift_down t 0 t.times.(last) t.klasses.(last) t.seqs.(last)
      t.slots.(last);
  (* the vacated position parks the freed slot *)
  t.slots.(last) <- slot;
  if last = 0 && Array.length t.slots > max_retained then shrink t;
  payload

let pop t =
  if t.len = 0 then None
  else
    let time = t.times.(0) and klass = t.klasses.(0) in
    Some (time, klass, take t)

let peek_time t = if t.len = 0 then None else Some t.times.(0)
