(* Two tiers over one set of payload slots.

   The ring: [heads]/[tails] hold one bucket per tick of a sliding window
   of [window] ticks that starts at [base], the latest popped time. An
   event whose time falls inside the window sits in bucket [time land
   bucket_mask], and since the window is exactly [window] ticks wide a
   bucket holds the events of one instant only. Its events form a
   slot-linked list ([next]) in ascending packed (klass, seq) key order,
   so the bucket's head is that instant's minimum. [cursor] is the
   minimum time held by the ring: its bucket is never empty while the
   ring holds events, and it moves back only when an insert lands
   behind it.

   The overflow heap: a binary min-heap over parallel int arrays, each
   position holding an event's time, its packed key and its slot. It
   takes every event the ring cannot: those past the window's end (long
   think gaps, election timers, outages), those before [base], and all
   events until the queue first holds [ring_threshold] of them. As
   [base] advances, heap events that the window now covers move into
   the ring. The minimum of the queue is the lesser of the heap's top
   and the ring's [cursor] bucket head.

   The key packs the class above a 56-bit insertion sequence (2^56 adds
   outlast any run), so one int compare orders (klass, seq). Sequence
   numbers make keys unique: the pop order is a pure function of the
   push order, whichever tier an event passes through.

   A payload is written once into its slot by [add] and read once by
   [take]. Free slots are chained through [next] from [free]. *)

let seq_bits = 56
let max_klass = 63

(* Every message delay is at most U (1000 ticks by default) and the
   protocols' timers sit a few U ahead, so a 4096-tick window covers
   nearly every event the service schedules. *)
let window = 4096
let bucket_mask = window - 1

(* The ring costs two [window]-sized arrays; a queue starts using it once
   it holds this many events, so the engine's short-lived per-run queues
   never allocate it. *)
let ring_threshold = 128

type 'a t = {
  mutable payloads : 'a option array;
      (* slot -> payload; [None] once taken, so a free slot never pins a
         popped payload however long the queue lives *)
  mutable tags : int array;  (* slot -> tag *)
  mutable keys : int array;  (* slot -> klass lsl seq_bits lor seq *)
  mutable next : int array;
      (* slot -> next slot of its bucket, or of the free list; -1 ends *)
  mutable free : int;  (* first free slot, -1 when every slot is live *)
  mutable len : int;
  mutable next_seq : int;
  (* overflow heap, by heap position *)
  mutable times : int array;
  mutable hkeys : int array;
  mutable hslots : int array;
  mutable hlen : int;
  (* ring, by bucket; [||] until the queue first holds [ring_threshold]
     events *)
  mutable heads : int array;  (* -1 when the bucket is empty *)
  mutable tails : int array;
  mutable cursor : int;
  mutable in_ring : int;
  mutable base : int;
}

(* An engine queue drains between instants and refills at the next one;
   the backing arrays are kept across drains so steady-state refills
   re-use capacity instead of re-growing from 16 every instant. The
   retained capacity is bounded: a drain after an unusually large burst
   shrinks the arrays back to this many slots. *)
let max_retained = 256

let create () =
  {
    payloads = [||];
    tags = [||];
    keys = [||];
    next = [||];
    free = -1;
    len = 0;
    next_seq = 0;
    times = [||];
    hkeys = [||];
    hslots = [||];
    hlen = 0;
    heads = [||];
    tails = [||];
    cursor = 0;
    in_ring = 0;
    base = 0;
  }

(* Chain slots [lo..hi-1] into the free list. *)
let chain_free t lo hi =
  for i = lo to hi - 2 do
    t.next.(i) <- i + 1
  done;
  t.next.(hi - 1) <- t.free;
  t.free <- lo

(* Double the capacity of a queue whose slots are all live. *)
let grow t =
  let old = Array.length t.payloads in
  let cap = if old = 0 then 16 else 2 * old in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 old;
    b
  in
  t.payloads <- extend t.payloads None;
  t.tags <- extend t.tags 0;
  t.keys <- extend t.keys 0;
  t.next <- extend t.next 0;
  t.times <- extend t.times 0;
  t.hkeys <- extend t.hkeys 0;
  t.hslots <- extend t.hslots 0;
  chain_free t old cap

(* Cut an empty queue back to the retention bound, ring included. *)
let shrink t =
  let ints () = Array.make max_retained 0 in
  t.payloads <- Array.make max_retained None;
  t.tags <- ints ();
  t.keys <- ints ();
  t.next <- ints ();
  t.times <- ints ();
  t.hkeys <- ints ();
  t.hslots <- ints ();
  t.free <- -1;
  chain_free t 0 max_retained;
  t.heads <- [||];
  t.tails <- [||]

(* ---- overflow heap ---- *)

(* The sift helpers are inlined: each level of a sift then compiles to
   straight-line int loads and stores. *)

(* the key at heap position [i] < the key at position [j] *)
let[@inline] pos_lt t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  ti < tj || (ti = tj && t.hkeys.(i) < t.hkeys.(j))

let[@inline] move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.hkeys.(dst) <- t.hkeys.(src);
  t.hslots.(dst) <- t.hslots.(src)

let[@inline] place t i time key slot =
  t.times.(i) <- time;
  t.hkeys.(i) <- key;
  t.hslots.(i) <- slot

(* Move the hole at [i] up past every parent greater than (time, key),
   then fill it. *)
let rec sift_up t i time key slot =
  if i = 0 then place t i time key slot
  else
    let parent = (i - 1) / 2 in
    let tp = t.times.(parent) in
    if time < tp || (time = tp && key < t.hkeys.(parent)) then begin
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

let heap_add t time key slot =
  let i = t.hlen in
  t.hlen <- i + 1;
  sift_up t i time key slot

(* Remove the heap's top and return its slot. Bottom-up: the hole left at
   the root walks down to a leaf, then the last event re-enters there and
   sifts up, usually a level or two. *)
let heap_take t =
  let slot = t.hslots.(0) in
  let last = t.hlen - 1 in
  t.hlen <- last;
  if last > 0 then begin
    let leaf = hole_to_leaf t 0 last in
    sift_up t leaf t.times.(last) t.hkeys.(last) t.hslots.(last)
  end;
  slot

(* ---- ring ---- *)

let[@inline] ring_on t = Array.length t.heads > 0
let[@inline] in_window t time = time >= t.base && time - t.base < window

(* The last slot of a bucket list, from [p] on, whose key is below [key];
   some later slot's key must be above it. Top-level rather than local,
   so a walk allocates no closure. *)
let rec last_below next (keys : int array) key p =
  let q = next.(p) in
  if keys.(q) < key then last_below next keys key q else p

(* The first non-empty bucket at or after time [c]. *)
let rec scan heads c =
  if heads.(c land bucket_mask) < 0 then scan heads (c + 1) else c

(* Link [slot] into its instant's bucket in key order. Keys grow with
   every add, so the new event nearly always goes last; only a lower
   class arriving after a higher one at the same instant, or an event
   migrating from the heap, walks from the head. *)
let ring_add t time key slot =
  let b = time land bucket_mask in
  let next = t.next and keys = t.keys in
  let head = t.heads.(b) in
  if head < 0 then begin
    t.heads.(b) <- slot;
    t.tails.(b) <- slot;
    next.(slot) <- -1
  end
  else begin
    let tail = t.tails.(b) in
    if keys.(tail) < key then begin
      next.(tail) <- slot;
      t.tails.(b) <- slot;
      next.(slot) <- -1
    end
    else if key < keys.(head) then begin
      next.(slot) <- head;
      t.heads.(b) <- slot
    end
    else begin
      (* keys.(head) < key < keys.(tail): the walk stops before the tail *)
      let p = last_below next keys key head in
      next.(slot) <- next.(p);
      next.(p) <- slot
    end
  end;
  if t.in_ring = 0 || time < t.cursor then t.cursor <- time;
  t.in_ring <- t.in_ring + 1

(* Unlink the head of the cursor's bucket and return its slot; if that
   empties the bucket, move the cursor to the next non-empty one. Every
   ring event lies inside the window, so the scan ends within it. *)
let ring_take t =
  let b = t.cursor land bucket_mask in
  let slot = t.heads.(b) in
  let rest = t.next.(slot) in
  t.heads.(b) <- rest;
  t.in_ring <- t.in_ring - 1;
  if rest < 0 && t.in_ring > 0 then t.cursor <- scan t.heads (t.cursor + 1);
  slot

(* Move every heap event the window now covers into the ring. The heap
   pops in (time, key) order, so this stops at the first event past the
   window, or at one before [base] (an add behind the last pop, which
   stays in the heap until it is taken). *)
let migrate t =
  while t.hlen > 0 && in_window t t.times.(0) do
    let time = t.times.(0) and key = t.hkeys.(0) in
    ring_add t time key (heap_take t)
  done

let start_ring t =
  t.heads <- Array.make window (-1);
  t.tails <- Array.make window (-1);
  migrate t

(* the ring holds the queue's minimum *)
let[@inline] ring_min t =
  t.in_ring > 0
  && (t.hlen = 0
     ||
     let c = t.cursor and h = t.times.(0) in
     c < h
     || (c = h && t.keys.(t.heads.(c land bucket_mask)) < t.hkeys.(0)))

(* ---- queue ---- *)

let add_tagged t ~time ~klass ~tag payload =
  if time < 0 then invalid_arg "Event_queue.add: negative time";
  if klass < 0 then invalid_arg "Event_queue.add: negative class";
  if klass > max_klass then invalid_arg "Event_queue.add: class above 63";
  if t.free < 0 then grow t;
  let slot = t.free in
  t.free <- t.next.(slot);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let key = (klass lsl seq_bits) lor seq in
  t.payloads.(slot) <- Some payload;
  t.tags.(slot) <- tag;
  t.keys.(slot) <- key;
  t.len <- t.len + 1;
  if ring_on t then
    if in_window t time then ring_add t time key slot
    else heap_add t time key slot
  else begin
    heap_add t time key slot;
    if t.len >= ring_threshold then start_ring t
  end

let add t ~time ~klass payload = add_tagged t ~time ~klass ~tag:0 payload
let is_empty t = t.len = 0
let size t = t.len
let capacity t = Array.length t.payloads

let check_nonempty t what =
  if t.len = 0 then invalid_arg ("Event_queue." ^ what ^ ": empty queue")

let[@inline] min_slot t =
  if ring_min t then t.heads.(t.cursor land bucket_mask) else t.hslots.(0)

let min_time t =
  check_nonempty t "min_time";
  if ring_min t then t.cursor else t.times.(0)

let min_klass t =
  check_nonempty t "min_klass";
  t.keys.(min_slot t) lsr seq_bits

let min_tag t =
  check_nonempty t "min_tag";
  t.tags.(min_slot t)

let take t =
  check_nonempty t "take";
  let from_ring = ring_min t in
  let time = if from_ring then t.cursor else t.times.(0) in
  let slot = if from_ring then ring_take t else heap_take t in
  let payload =
    match t.payloads.(slot) with
    | Some p -> p
    | None -> assert false (* live slots always carry their payload *)
  in
  t.payloads.(slot) <- None;
  t.next.(slot) <- t.free;
  t.free <- slot;
  t.len <- t.len - 1;
  if time > t.base then begin
    (* the window slides to start at the popped time *)
    t.base <- time;
    if ring_on t then migrate t
  end;
  if t.len = 0 && Array.length t.payloads > max_retained then shrink t;
  payload

let pop t =
  if t.len = 0 then None
  else
    let time = min_time t and klass = min_klass t in
    Some (time, klass, take t)

let peek_time t = if t.len = 0 then None else Some (min_time t)
