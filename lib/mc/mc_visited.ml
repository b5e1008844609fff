(* Open addressing with linear probing. Slot [i]'s key is
   [lanes.(2i), lanes.(2i + 1)], so a probe reads one cache line for
   several slots; [full] marks the slots that hold a key, since every
   pair of ints is a possible digest. Unused value slots hold [dummy].

   A table is made per frontier item, which holds hundreds to tens of
   thousands of states. At 1024 slots the lane and value arrays are
   past the minor heap's size limit and go straight to the major heap,
   so making a table costs the minor heap only the occupancy bytes. *)

type 'a t = {
  dummy : 'a;
  mutable mask : int;  (* slots - 1 *)
  mutable count : int;
  mutable lanes : int array;
  mutable full : Bytes.t;
  mutable vals : 'a array;
}

let initial_slots = 1024

let create ~dummy () =
  {
    dummy;
    mask = initial_slots - 1;
    count = 0;
    lanes = Array.make (2 * initial_slots) 0;
    full = Bytes.make initial_slots '\000';
    vals = Array.make initial_slots dummy;
  }

let length t = t.count
let slots t = t.mask + 1

(* The slot holding [(d1, d2)], or the complement of the free slot that
   ends its probe sequence *)
let rec probe t (d1 : int) (d2 : int) i =
  if Bytes.unsafe_get t.full i = '\000' then lnot i
  else if t.lanes.(2 * i) = d1 && t.lanes.((2 * i) + 1) = d2 then i
  else probe t d1 d2 ((i + 1) land t.mask)

let find t d1 d2 =
  let i = probe t d1 d2 (d1 land t.mask) in
  if i >= 0 then i else -1

let value t i = t.vals.(i)

(* [i]: a free slot *)
let fill t i d1 d2 v =
  Bytes.unsafe_set t.full i '\001';
  t.lanes.(2 * i) <- d1;
  t.lanes.((2 * i) + 1) <- d2;
  t.vals.(i) <- v;
  t.count <- t.count + 1

(* Double the slots and re-probe every key *)
let grow t =
  let lanes = t.lanes and full = t.full and vals = t.vals in
  let slots = 2 * (t.mask + 1) in
  t.mask <- slots - 1;
  t.count <- 0;
  t.lanes <- Array.make (2 * slots) 0;
  t.full <- Bytes.make slots '\000';
  t.vals <- Array.make slots t.dummy;
  for j = 0 to Bytes.length full - 1 do
    if Bytes.unsafe_get full j <> '\000' then begin
      let d1 = lanes.(2 * j) and d2 = lanes.((2 * j) + 1) in
      fill t (lnot (probe t d1 d2 (d1 land t.mask))) d1 d2 vals.(j)
    end
  done

let replace t d1 d2 v =
  let i = probe t d1 d2 (d1 land t.mask) in
  if i >= 0 then t.vals.(i) <- v
  else if 2 * (t.count + 1) > t.mask + 1 then begin
    grow t;
    fill t (lnot (probe t d1 d2 (d1 land t.mask))) d1 d2 v
  end
  else fill t (lnot i) d1 d2 v
