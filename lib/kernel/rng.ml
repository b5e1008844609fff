(* The splitmix64 state lives unboxed in 8 bytes: a [mutable int64] field
   would box a fresh int64 on every draw. [next] is inlined into each
   drawing function, so the state's load, the mix and the derived value
   stay unboxed end to end and a draw allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))
let copy = Bytes.copy

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let next64 t = next t
let split t = of_state (mix64 (next t))

let int t ~bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.logand (next t) (Int64.of_int max_int)) mod bound

let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t ~bound:(hi - lo + 1)

let bool t = Int64.logand (next t) 1L = 1L

let[@inline] float t =
  let v = Int64.shift_right_logical (next t) 11 in
  Int64.to_float v /. 9007199254740992.0 (* 2^53 *)

let shuffle t xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs -> List.nth xs (int t ~bound:(List.length xs))
