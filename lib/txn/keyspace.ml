let max_keys = 1 lsl 24

(* One shard's write-ahead table: open addressing with linear probing
   over transaction numbers. Numbers are issued in sequence, so the
   identity hash spreads the live ones evenly. A slot holds a number (-1
   when empty), the array the transaction's write keys lead and how many
   they are, so staging, applying and discarding allocate nothing. *)
type wal = {
  mutable txns : int array;
  mutable keys : int array array;
  mutable writes : int array;
  mutable size : int;
}

type t = {
  n : int;
  owner : int array;  (* -1 until first asked *)
  version : int array;
  wal : wal array;  (* per shard *)
}

let wal_create cap =
  { txns = Array.make cap (-1); keys = Array.make cap [||];
    writes = Array.make cap 0; size = 0 }

let create ~n ~keys =
  if keys < 1 || keys > max_keys then
    invalid_arg "Keyspace.create: keys outside 1..max_keys";
  {
    n;
    owner = Array.make keys (-1);
    version = Array.make keys 0;
    wal = Array.init n (fun _ -> wal_create 64);
  }

let place t k =
  let o = Pid.index (Txn_system.placement_index ~n:t.n k) in
  t.owner.(k) <- o;
  o

(* inlined: the service asks for owners several times per transaction *)
let[@inline] owner t k =
  let o = t.owner.(k) in
  if o >= 0 then o else place t k

(* insertion into [into], ascending and without repeats *)
let owners t keys n into =
  let m = ref 0 in
  for j = 0 to n - 1 do
    let shard = owner t keys.(j) in
    let i = ref !m in
    while !i > 0 && into.(!i - 1) > shard do
      decr i
    done;
    if !i = 0 || into.(!i - 1) <> shard then begin
      Array.blit into !i into (!i + 1) (!m - !i);
      into.(!i) <- shard;
      incr m
    end
  done;
  !m

let version t k = t.version.(k)

(* the slot holding [txn], or the empty slot that ends its probe *)
let rec find (txns : int array) mask txn i =
  let x = txns.(i) in
  if x = txn || x < 0 then i else find txns mask txn ((i + 1) land mask)

let wal_grow w =
  let txns = w.txns and keys = w.keys and writes = w.writes in
  let cap = 2 * Array.length txns in
  w.txns <- Array.make cap (-1);
  w.keys <- Array.make cap [||];
  w.writes <- Array.make cap 0;
  for i = 0 to Array.length txns - 1 do
    let x = txns.(i) in
    if x >= 0 then begin
      let j = find w.txns (cap - 1) x (x land (cap - 1)) in
      w.txns.(j) <- x;
      w.keys.(j) <- keys.(i);
      w.writes.(j) <- writes.(i)
    end
  done

(* Empty slot [hole], pulling back each later entry of the probe run
   whose home lies at or before the hole (backward-shift deletion), so no
   probe ever crosses a stale gap. *)
let rec close_hole w mask hole j =
  let x = w.txns.(j) in
  if x < 0 then begin
    w.txns.(hole) <- -1;
    w.keys.(hole) <- [||]
  end
  else if (j - (x land mask)) land mask < (j - hole) land mask then
    close_hole w mask hole ((j + 1) land mask)
  else begin
    w.txns.(hole) <- x;
    w.keys.(hole) <- w.keys.(j);
    w.writes.(hole) <- w.writes.(j);
    close_hole w mask j ((j + 1) land mask)
  end

let stage t ~shard ~txn keys ~writes =
  let w = t.wal.(shard) in
  let mask = Array.length w.txns - 1 in
  let i = find w.txns mask txn (txn land mask) in
  if w.txns.(i) < 0 then begin
    w.txns.(i) <- txn;
    w.size <- w.size + 1
  end;
  w.keys.(i) <- keys;
  w.writes.(i) <- writes;
  if 2 * w.size > mask + 1 then wal_grow w

let staged t ~shard ~txn =
  let w = t.wal.(shard) in
  let mask = Array.length w.txns - 1 in
  w.txns.(find w.txns mask txn (txn land mask)) >= 0

(* Drop [txn]'s entry at [shard], first bumping the versions of the write
   keys the shard owns when [install]. *)
let resolve t ~shard ~txn ~install =
  let w = t.wal.(shard) in
  let mask = Array.length w.txns - 1 in
  let i = find w.txns mask txn (txn land mask) in
  if w.txns.(i) >= 0 then begin
    if install then begin
      let keys = w.keys.(i) in
      for j = 0 to w.writes.(i) - 1 do
        let k = keys.(j) in
        if owner t k = shard then t.version.(k) <- t.version.(k) + 1
      done
    end;
    w.size <- w.size - 1;
    close_hole w mask i ((i + 1) land mask)
  end

let apply t ~shard ~txn = resolve t ~shard ~txn ~install:true
let discard t ~shard ~txn = resolve t ~shard ~txn ~install:false
let staged_count t ~shard = t.wal.(shard).size

let pow10 =
  let p = Array.make 19 1 in
  for d = 1 to 18 do
    p.(d) <- 10 * p.(d - 1)
  done;
  p

let digits x =
  let d = ref 1 in
  while !d < 19 && x >= pow10.(!d) do
    incr d
  done;
  !d

(* Names share the "k" prefix, so they order as the decimal strings of
   the indices. With equal digit counts that is numeric order. Otherwise
   the shorter name [a] sorts first iff its digits are at most the
   longer's leading digits: a <= b / 10^(db - da), a tie meaning [a] is a
   prefix of [b]. *)
let compare_names a b =
  let da = digits a and db = digits b in
  if da = db then Int.compare a b
  else if da < db then if a <= b / pow10.(db - da) then -1 else 1
  else if b <= a / pow10.(da - db) then 1
  else -1

let sort_names keys =
  for i = 1 to Array.length keys - 1 do
    let k = keys.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && compare_names keys.(!j) k > 0 do
      keys.(!j + 1) <- keys.(!j);
      decr j
    done;
    keys.(!j + 1) <- k
  done
