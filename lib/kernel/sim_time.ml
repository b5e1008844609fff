type t = int

let zero = 0
let compare = Int.compare
let equal = Int.equal
let ( + ) = Stdlib.( + )
let ( - ) = Stdlib.( - )
let max = Int.max
let min = Int.min
let default_u = 1000
let of_delays ~u k = k * u
let delays ~u t = float_of_int t /. float_of_int u
let pp ppf t = Format.fprintf ppf "%d" t
