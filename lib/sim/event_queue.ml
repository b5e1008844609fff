type 'a cell = {
  mutable time : Sim_time.t;
  mutable klass : int;
  mutable seq : int;
  mutable payload : 'a option;
      (* cleared to [None] when the cell pops, so dead heap slots (the
         region beyond [len], plus grow-seed duplicates) never pin a
         popped payload however long the queue lives *)
}

type 'a t = {
  mutable heap : 'a cell array;
  (* [heap.(0..len-1)] is a binary min-heap on (time, klass, seq). *)
  mutable len : int;
  mutable next_seq : int;
  mutable free : 'a cell list;
      (* popped cells awaiting reuse by [add]. A cell enters the list at
         most once per live period (pop handles each live cell exactly
         once), so mutating a reused cell can never corrupt another live
         slot — the only other references to it are dead heap slots,
         which are never read. *)
  mutable free_len : int;
}

(* An engine queue drains between instants and refills at the next one;
   the backing array is kept across drains (popped cells are cleared, not
   freed) so steady-state refills re-use capacity instead of re-growing
   from 16 every instant. The retained capacity is bounded: a drain after
   an unusually large burst shrinks the array back to this many slots. *)
let max_retained = 256

let create () = { heap = [||]; len = 0; next_seq = 0; free = []; free_len = 0 }

(* (time, klass, seq) order on int fields, compared inline: this runs on
   every sift step, and [compare] functions are out-of-line calls *)
let cell_lt a b =
  a.time < b.time
  || a.time = b.time
     && (a.klass < b.klass || (a.klass = b.klass && a.seq < b.seq))

(* [seed] fills the fresh slots, which also covers growing from an empty
   heap (no live cell to borrow as filler); the duplicates it leaves in
   the dead region un-pin themselves when the seed cell pops. *)
let grow t seed =
  let cap = Array.length t.heap in
  if t.len = cap then begin
    let new_cap = if cap = 0 then 16 else cap * 2 in
    let heap = Array.make new_cap seed in
    Array.blit t.heap 0 heap 0 t.len;
    t.heap <- heap
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if cell_lt t.heap.(i) t.heap.(parent) then begin
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(parent);
      t.heap.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && cell_lt t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.len && cell_lt t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = t.heap.(i) in
    t.heap.(i) <- t.heap.(!smallest);
    t.heap.(!smallest) <- tmp;
    sift_down t !smallest
  end

let add t ~time ~klass payload =
  if time < 0 then invalid_arg "Event_queue.add: negative time";
  if klass < 0 then invalid_arg "Event_queue.add: negative class";
  let cell =
    match t.free with
    | c :: rest ->
        t.free <- rest;
        t.free_len <- t.free_len - 1;
        c.time <- time;
        c.klass <- klass;
        c.seq <- t.next_seq;
        c.payload <- Some payload;
        c
    | [] -> { time; klass; seq = t.next_seq; payload = Some payload }
  in
  t.next_seq <- t.next_seq + 1;
  grow t cell;
  t.heap.(t.len) <- cell;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let pop t =
  if t.len = 0 then None
  else begin
    let top = t.heap.(0) in
    let payload =
      match top.payload with
      | Some p -> p
      | None -> assert false (* live cells always carry their payload *)
    in
    (* clearing the popped cell itself un-pins the payload through every
       alias of the record (dead slots, grow-seed duplicates) *)
    top.payload <- None;
    if t.free_len < max_retained then begin
      t.free <- top :: t.free;
      t.free_len <- t.free_len + 1
    end;
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.heap.(0) <- t.heap.(t.len);
      (* the cleared cell parks in the vacated slot: capacity survives
         drain/refill cycles without the slot pinning anything *)
      t.heap.(t.len) <- top;
      sift_down t 0
    end
    else if Array.length t.heap > max_retained then
      (* drained after a burst: keep a bounded number of (cleared) slots *)
      t.heap <- Array.sub t.heap 0 max_retained;
    Some (top.time, top.klass, payload)
  end

let peek_time t = if t.len = 0 then None else Some t.heap.(0).time
let is_empty t = t.len = 0
let size t = t.len
let capacity t = Array.length t.heap
