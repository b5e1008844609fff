(* Allocation-lean 126-bit state fingerprints.

   The model checker hashes every visited state; doing that by marshalling
   the state and digesting the bytes dominates exploration time. This
   module is the replacement: an incremental two-lane FNV-1a-style mixer
   over machine words, fed by per-protocol [hash_state] canonicalizers,
   with a murmur-style finalizer. Two independent 63-bit lanes give a
   126-bit digest, so the collision probability over the checker's state
   budgets (<= a few million states) is negligible (~2^-80 per pair).

   The accumulator is a mutable two-word record reused across states
   ([reset]); adding a word is two xors and two multiplications, no
   allocation. *)

type t = {
  mutable a : int;
  mutable b : int;
  mutable saved_a : int;
  mutable saved_b : int;  (* the lanes at the last [save] *)
  mutable perm : int array;
  mutable counts : int array;
  mutable ctop : int;
      (* a scratch stack of per-index counts for the pid-keyed feeders
         below. A feeder reserves its segment above the top, so an
         element feeder may itself feed a nested collection. *)
}

(* The physical-equality sentinel for "no renaming": [add_pid] costs one
   pointer compare when no permutation is active, so the symmetry-off
   hashing path is word-for-word the historical one. *)
let no_perm : int array = [||]

(* FNV-1a 64-bit offset basis / prime, truncated to OCaml's 63-bit ints,
   with a distinct basis and prime per lane so the lanes stay
   independent. *)
let basis_a = 0x0bf29ce484222325
let basis_b = 0x2545f4914f6cdd1d
let prime_a = 0x00000100000001b3
let prime_b = 0x0000010000000193

let create () =
  {
    a = basis_a;
    b = basis_b;
    saved_a = basis_a;
    saved_b = basis_b;
    perm = no_perm;
    counts = [||];
    ctop = 0;
  }

(* Accumulators are long-lived, so storing a pointer into one runs the
   write barrier: [reset] and [set_perm] store the renaming only when it
   changes. *)
let reset h =
  h.a <- basis_a;
  h.b <- basis_b;
  if h.perm != no_perm then h.perm <- no_perm;
  h.ctop <- 0

let save h =
  h.saved_a <- h.a;
  h.saved_b <- h.b

let restore h =
  h.a <- h.saved_a;
  h.b <- h.saved_b;
  h.ctop <- 0

(* inlined at every call site: the hashers feed one word at a time, so a
   call per word would cost as much as the mixing itself *)
let[@inline] add_int h x =
  h.a <- (h.a lxor x) * prime_a;
  h.b <- (h.b lxor (x + 0x165667b19e3779f9)) * prime_b

let[@inline] add_bool h x = add_int h (Bool.to_int x)

(* ---- pid renaming (symmetry canonicalization) ---------------------- *)

(* The model checker's canonicalization pass hashes a state under a
   candidate process permutation: it installs the renaming here and the
   per-protocol canonicalizers route every pid-valued datum through
   [add_pid] and the pid-keyed feeders, so the fed word sequence is
   exactly what the permuted state would feed with no renaming active.
   Everything else ([add_int] on non-pid data) is unaffected. *)

let set_perm h p = if h.perm != p then h.perm <- p
let perm_active h = h.perm != no_perm

let[@inline] add_pid h i =
  add_int h (if h.perm == no_perm then i else h.perm.(i))
let perm_size h = Array.length h.perm

(* ---- pid-keyed collections ------------------------------------------

   A pid list that is semantically a set, or an association list keyed by
   pid, is stored in an order that depends on the path that built it.
   Under a renaming both feeders emit the length, then the elements in
   renamed-index order: for j = 0..n-1, the elements whose pid renames to
   j, in stored order. That is the word sequence a stable sort by renamed
   key feeds. When the renamed keys already ascend, as they do for most
   calls on the checker's spaces (DESIGN §5), that order is the stored
   one and one walk feeds it. Otherwise a counting pass finds the
   non-empty renamed keys: a set feeds each key its count of times, and
   an association list is rescanned once per non-empty key, so at most n
   times. Neither path allocates once the count stack has grown. With no
   renaming the stored order is fed, word for word. *)

(* [k] zeroed count slots above the count stack's top; returns their base *)
let reserve_counts h k =
  let base = h.ctop in
  let top = base + k in
  if top > Array.length h.counts then begin
    let a = Array.make (Int.max top (2 * Array.length h.counts)) 0 in
    Array.blit h.counts 0 a 0 base;
    h.counts <- a
  end;
  for c = base to top - 1 do
    h.counts.(c) <- 0
  done;
  h.ctop <- top;
  base

(* [perm] and [prev] are annotated: an untyped [>=] here is polymorphic
   compare, a C call per element under every renaming *)
let rec pids_ascend (perm : int array) (prev : int) = function
  | [] -> true
  | p :: rest ->
      let r = perm.(Pid.index p) in
      r >= prev && pids_ascend perm r rest

let rec keys_ascend (perm : int array) (prev : int) = function
  | [] -> true
  | (p, _) :: rest ->
      let r = perm.(Pid.index p) in
      r >= prev && keys_ascend perm r rest

let rec count_pids h base = function
  | [] -> ()
  | p :: rest ->
      let c = base + h.perm.(Pid.index p) in
      h.counts.(c) <- h.counts.(c) + 1;
      count_pids h base rest

let rec count_keys h base = function
  | [] -> ()
  | (p, _) :: rest ->
      let c = base + h.perm.(Pid.index p) in
      h.counts.(c) <- h.counts.(c) + 1;
      count_keys h base rest

let rec feed_pids h = function
  | [] -> ()
  | p :: rest ->
      add_pid h (Pid.index p);
      feed_pids h rest

let add_pid_set h l =
  add_int h (List.length l);
  if h.perm == no_perm || pids_ascend h.perm 0 l then feed_pids h l
  else begin
    let n = Array.length h.perm in
    let base = reserve_counts h n in
    count_pids h base l;
    for j = 0 to n - 1 do
      for _ = 1 to h.counts.(base + j) do
        add_int h j
      done
    done;
    h.ctop <- base
  end

let rec feed_assoc h f = function
  | [] -> ()
  | (p, x) :: rest ->
      add_pid h (Pid.index p);
      f h x;
      feed_assoc h f rest

let rec feed_key h f j = function
  | [] -> ()
  | (p, x) :: rest ->
      if h.perm.(Pid.index p) = j then begin
        add_int h j;
        f h x
      end;
      feed_key h f j rest

let add_pid_assoc h f l =
  add_int h (List.length l);
  if h.perm == no_perm || keys_ascend h.perm 0 l then feed_assoc h f l
  else begin
    let n = Array.length h.perm in
    let base = reserve_counts h n in
    count_keys h base l;
    (* [f] may feed a nested collection, which reserves (and may grow)
       counts above this segment: re-read [h.counts] every time *)
    for j = 0 to n - 1 do
      if h.counts.(base + j) > 0 then feed_key h f j l
    done;
    h.ctop <- base
  end

(* Strings are folded eight bytes at a word (the top byte loses one bit to
   the int63 truncation; the length word disambiguates) plus a bytewise
   tail. *)
let add_string h s =
  let len = String.length s in
  add_int h len;
  let words = len / 8 in
  for i = 0 to words - 1 do
    add_int h (Int64.to_int (String.get_int64_le s (i * 8)))
  done;
  for i = words * 8 to len - 1 do
    add_int h (Char.code (String.unsafe_get s i))
  done

type digest = { d1 : int; d2 : int }

(* murmur3's 64-bit finalizer (constants truncated to int63): FNV-1a
   alone mixes weakly into the high bits, and [Hashtbl] buckets by the
   low bits of [Hashtbl.hash], so avalanche the lanes before exposing
   them. *)
let avalanche x =
  let x = x lxor (x lsr 33) in
  let x = x * 0x3f51afd7ed558ccd in
  let x = x lxor (x lsr 29) in
  let x = x * 0x04ceb9fe1a85ec53 in
  x lxor (x lsr 32)

let digest_d1 h = avalanche h.a
let digest_d2 h = avalanche (h.b lxor h.a)
let digest h = { d1 = digest_d1 h; d2 = digest_d2 h }

let equal x y = x.d1 = y.d1 && x.d2 = y.d2
let pp ppf d = Format.fprintf ppf "%015x:%015x" (d.d1 land max_int) (d.d2 land max_int)
