(* A binary min-heap over parallel int arrays. Heap position [i] holds the
   event's time, its packed (klass, seq) key and the index of its payload
   slot; the payload itself and the event's tag live in slot-indexed
   tables, written once by [add] and read once by [take]. Sifting
   therefore moves ints into a hole — no record dereference per compare
   and no [caml_modify] per swap.

   The key packs the class above a 56-bit insertion sequence (2^56 adds
   outlast any run), so one int compare orders (klass, seq) and a level
   of a sift compares at most two ints. Sequence numbers make keys
   unique: any valid heap pops the same order.

   Slot bookkeeping needs no free list: [slots.(len..cap-1)] always holds
   exactly the free slot indices. [add] takes the free slot parked at
   position [len], and [take] parks the popped event's slot at the
   position the heap vacates. *)

let seq_bits = 56
let max_klass = 63

type 'a t = {
  mutable times : int array;
  mutable keys : int array;  (* klass lsl seq_bits lor seq *)
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
    keys = [||];
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
  t.keys <- extend t.keys 0;
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
  t.keys <- ints ();
  t.slots <- Array.init max_retained Fun.id;
  t.payloads <- Array.make max_retained None;
  t.tags <- ints ()

(* The sift helpers are inlined: each level of a sift then compiles to
   straight-line int loads and stores. *)

(* the key at heap position [i] < the key at position [j] *)
let[@inline] pos_lt t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  ti < tj || (ti = tj && t.keys.(i) < t.keys.(j))

let[@inline] move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.keys.(dst) <- t.keys.(src);
  t.slots.(dst) <- t.slots.(src)

let[@inline] place t i time key slot =
  t.times.(i) <- time;
  t.keys.(i) <- key;
  t.slots.(i) <- slot

(* Move the hole at [i] up past every parent greater than (time, key),
   then fill it. *)
let rec sift_up t i time key slot =
  if i = 0 then place t i time key slot
  else
    let parent = (i - 1) / 2 in
    let tp = t.times.(parent) in
    if time < tp || (time = tp && key < t.keys.(parent)) then begin
      move t ~src:parent ~dst:i;
      sift_up t parent time key slot
    end
    else place t i time key slot

(* Walk the hole at [i] down to a leaf of the first [len] positions,
   pulling the smaller child up at each level: one compare per level.
   Returns the leaf. *)
let rec hole_to_leaf t i len =
  let l = (2 * i) + 1 in
  if l >= len then i
  else
    let r = l + 1 in
    let c = if r < len && pos_lt t r l then r else l in
    move t ~src:c ~dst:i;
    hole_to_leaf t c len

let add_tagged t ~time ~klass ~tag payload =
  if time < 0 then invalid_arg "Event_queue.add: negative time";
  if klass < 0 then invalid_arg "Event_queue.add: negative class";
  if klass > max_klass then invalid_arg "Event_queue.add: class above 63";
  let seq = t.next_seq in
  if t.len = Array.length t.slots then grow t;
  let i = t.len in
  let slot = t.slots.(i) in
  t.payloads.(slot) <- Some payload;
  t.tags.(slot) <- tag;
  t.next_seq <- seq + 1;
  t.len <- i + 1;
  sift_up t i time ((klass lsl seq_bits) lor seq) slot

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
  t.keys.(0) lsr seq_bits

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
  (* bottom-up: the hole left at the root walks down to a leaf, then the
     last event re-enters there and sifts up, usually a level or two *)
  if last > 0 then begin
    let leaf = hole_to_leaf t 0 last in
    sift_up t leaf t.times.(last) t.keys.(last) t.slots.(last)
  end;
  (* the vacated position parks the freed slot *)
  t.slots.(last) <- slot;
  if last = 0 && Array.length t.slots > max_retained then shrink t;
  payload

let pop t =
  if t.len = 0 then None
  else
    let time = t.times.(0) and klass = t.keys.(0) lsr seq_bits in
    Some (time, klass, take t)

let peek_time t = if t.len = 0 then None else Some t.times.(0)
