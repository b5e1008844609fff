(** The absent consensus service.

    Protocols with [uses_consensus = false] (avNBAC, (n-1+f)NBAC,
    (2n-2)NBAC, 2PC, 3PC) are composed with this module; proposing to it
    is a protocol bug and fails loudly. *)

type state = unit
type msg = |

let name = "null"
let pp_msg _ppf (m : msg) = (match m with _ -> .)
let init _env = ()

let on_propose _env () _v =
  failwith "Consensus_null: protocol proposed to the null consensus"

let on_deliver _env () ~src:_ (m : msg) = (match m with _ -> .)
let on_timeout _env () ~id:_ = ((), [])

let hash_state (_ : Fingerprint.t) () = ()

let hash_msg (_ : Fingerprint.t) (m : msg) = (match m with _ -> .)
let symmetry ~n ~f:_ = Symmetry.full ~n
