(* A visited table shared across domains, for the [--shared-visited] and
   [--swarm] exploration modes: all workers of one vote-set group dedup
   against the same table, so a state reachable from several schedule
   prefixes (or several swarm walks) is explored once globally.

   The table is a fixed index space of lock-free buckets, physically
   laid out as lazily allocated segments. Each bucket is an [Atomic.t]
   holding an immutable cons-list of nodes; insertion CAS-publishes a
   new head, so a reader either sees the fully initialised node or the
   previous head — never a partially built one (Atomic operations are
   sequentially consistent publication points in the OCaml 5 memory
   model). There are no mutexes anywhere: the dedup hot path costs one
   atomic load plus a short scan, and racing inserts of different keys
   that collide in a bucket only retry the CAS.

   Bucket indices key on the top bits of the digest's first lane. The
   lane is an FNV-1a product (see {!Fingerprint}), so its high bits are
   as mixed as its low bits; with the bucket count sized from the
   caller's capacity hint the expected chain length stays near one.

   Earlier revisions allocated the whole bucket array eagerly and capped
   it at [2^16] — cheap to create, but at the n=5 state budgets (millions
   of states per vote-set group) every bucket carried a 15+-node chain
   and the dedup probe degraded to a linked-list walk. Here the index
   space is sized from [capacity / 8] up to [2^21] buckets, but memory
   is committed one segment (up to [2^8] buckets) at a time, on first
   touch: creation allocates only the segment-pointer spine (at most
   [2^13] slots), an exploration that stays far below its budget
   ceiling only materialises the segments its digests actually hit, and
   a run that does approach the ceiling gets chains of ~8 instead of
   hundreds.
   Segments are published with a CAS on the spine slot, so a losing
   allocator simply adopts the winner's segment — the index space itself
   never moves, which is what keeps the buckets lock-free (no resize
   epoch, no migration).

   [find_or_insert] is a single probe, and the size counter is bumped
   between the winning CAS and the insert's return: by the time any
   caller learns its insert was fresh, the insert is counted, and the
   counter is never decremented, so observed sizes are monotone. *)

type 'a node = {
  nk : Fingerprint.digest;
  mutable nv : 'a;
      (* value overwrites are plain racy writes: the DPOR caller narrows
         the stored sleep set on revisit, and losing a racing narrowing
         is sound, merely conservative (see [update]) *)
  next : 'a node option;  (* immutable: bucket lists are copy-on-cons *)
}

type 'a t = {
  segments : 'a node option Atomic.t array option Atomic.t array;
      (* the spine: slot [s] holds segment [s] once some domain touched
         a bucket inside it *)
  seg_bits : int;  (* buckets per segment = [2^seg_bits] *)
  seg_mask : int;
  mask : int;  (* total index space - 1 *)
  shift : int;
  total : int Atomic.t;
}

let default_bits = 6

(* Index space: at least [2^bits], grown toward an eighth of the
   capacity hint (chains of ~8 at a full budget are still a short scan
   over immutable cons cells), capped at [2^21] — two million buckets
   cover the n=5 vote-set-group budgets with short chains, and the lazy
   segments mean the cap costs nothing until the digests arrive. *)
let max_bucket_bits = 21

(* Buckets per segment: 2^8, so a segment (256 fresh atomics in a
   256-slot array) is a minor-heap allocation. A longer array goes
   straight to the major heap, and filling it with young atomics forces
   a minor collection first (the runtime promotes a young initial value
   of a major array) plus one remembered-set entry per bucket — about
   two forced collections per 2^12-bucket segment — and every minor
   collection stops all domains at once. *)
let segment_bits = 8

let create ?(bits = default_bits) ~capacity () =
  if bits < 0 || bits > max_bucket_bits then
    invalid_arg "Mc_shards.create: bits";
  let want =
    max (1 lsl bits) (min ((capacity + 7) / 8) (1 lsl max_bucket_bits))
  in
  let b = ref bits in
  while 1 lsl !b < want do
    incr b
  done;
  let n = 1 lsl !b in
  let sb = min segment_bits !b in
  {
    segments = Array.init (n lsr sb) (fun _ -> Atomic.make None);
    seg_bits = sb;
    seg_mask = (1 lsl sb) - 1;
    mask = n - 1;
    (* digest lanes carry 63 significant bits (see Fingerprint) *)
    shift = 63 - !b;
    total = Atomic.make 0;
  }

let buckets t = t.mask + 1

let segments_allocated t =
  Array.fold_left
    (fun acc s -> if Atomic.get s = None then acc else acc + 1)
    0 t.segments

(* The bucket cell behind a global index, materialising its segment on
   first touch. The fresh segment is fully initialised before the CAS
   publishes it, and the CAS is an SC publication point, so any domain
   that reads [Some seg] sees initialised atomics. A losing allocator
   drops its array and adopts the winner's — the transient garbage is
   one short-lived 2^8 array per race, and races happen at most once
   per segment lifetime. *)
let cell t idx =
  let slot = t.segments.(idx lsr t.seg_bits) in
  match Atomic.get slot with
  | Some seg -> seg.(idx land t.seg_mask)
  | None -> (
      let fresh = Array.init (t.seg_mask + 1) (fun _ -> Atomic.make None) in
      if Atomic.compare_and_set slot None (Some fresh) then
        fresh.(idx land t.seg_mask)
      else
        match Atomic.get slot with
        | Some seg -> seg.(idx land t.seg_mask)
        | None -> assert false (* spine slots are never cleared *))

let bucket_of t (d : Fingerprint.digest) = (d.d1 lsr t.shift) land t.mask

let rec scan key = function
  | None -> None
  | Some n -> if Fingerprint.equal n.nk key then Some n else scan key n.next

let find_opt t key =
  match scan key (Atomic.get (cell t (bucket_of t key))) with
  | Some n -> Some n.nv
  | None -> None

let rec find_or_insert t key v =
  let cell = cell t (bucket_of t key) in
  let head = Atomic.get cell in
  match scan key head with
  | Some n -> Some n.nv
  | None ->
      if
        Atomic.compare_and_set cell head
          (Some { nk = key; nv = v; next = head })
      then begin
        (* counted before the caller learns the insert was fresh: a
           [size] read ordered after this call includes the key *)
        Atomic.incr t.total;
        None
      end
      else
        (* another domain republished this bucket (its CAS succeeded, so
           the retry is lock-free); rescan — our key may be in now *)
        find_or_insert t key v

let insert t key v =
  match find_or_insert t key v with
  | None -> true
  | Some _ ->
      (* existing binding: overwrite in place, as documented *)
      (match scan key (Atomic.get (cell t (bucket_of t key))) with
      | Some n -> n.nv <- v
      | None -> assert false (* nodes are never removed *));
      false

let update t key v =
  match scan key (Atomic.get (cell t (bucket_of t key))) with
  | Some n -> n.nv <- v
  | None -> ignore (find_or_insert t key v)

let size t = Atomic.get t.total
