let max_keys = 1 lsl 24

(* transaction numbers are issued in sequence, so the identity hash
   spreads them evenly over the buckets *)
module Wal = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

type t = {
  n : int;
  owner : int array;  (* -1 until first asked *)
  version : int array;
  wal : int array Wal.t array;  (* per shard: txn -> its write keys *)
}

let create ~n ~keys =
  if keys < 1 || keys > max_keys then
    invalid_arg "Keyspace.create: keys outside 1..max_keys";
  {
    n;
    owner = Array.make keys (-1);
    version = Array.make keys 0;
    wal = Array.init n (fun _ -> Wal.create 64);
  }

let place t k =
  let o = Pid.index (Txn_system.placement_index ~n:t.n k) in
  t.owner.(k) <- o;
  o

(* inlined: the service asks for owners several times per transaction *)
let[@inline] owner t k =
  let o = t.owner.(k) in
  if o >= 0 then o else place t k

(* insertion into the result array, which is cut to size when keys share
   an owner *)
let owners t keys =
  let shards = Array.make (Array.length keys) 0 in
  let m = ref 0 in
  for j = 0 to Array.length keys - 1 do
    let shard = owner t keys.(j) in
    let i = ref !m in
    while !i > 0 && shards.(!i - 1) > shard do
      decr i
    done;
    if !i = 0 || shards.(!i - 1) <> shard then begin
      Array.blit shards !i shards (!i + 1) (!m - !i);
      shards.(!i) <- shard;
      incr m
    end
  done;
  if !m = Array.length shards then shards else Array.sub shards 0 !m

let version t k = t.version.(k)
let stage t ~shard ~txn ~writes = Wal.replace t.wal.(shard) txn writes
let staged t ~shard ~txn = Wal.mem t.wal.(shard) txn

let apply t ~shard ~txn =
  match Wal.find_opt t.wal.(shard) txn with
  | None -> ()
  | Some writes ->
      for j = 0 to Array.length writes - 1 do
        let k = writes.(j) in
        if owner t k = shard then t.version.(k) <- t.version.(k) + 1
      done;
      Wal.remove t.wal.(shard) txn

let discard t ~shard ~txn = Wal.remove t.wal.(shard) txn
let staged_count t ~shard = Wal.length t.wal.(shard)

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
