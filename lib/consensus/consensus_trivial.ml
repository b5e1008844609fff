(** A deliberately naive consensus: each process instantly decides its own
    proposal.

    It satisfies consensus validity and termination but {e not} agreement
    when proposals differ — it exists only to unit-test the commit-layer /
    consensus-layer plumbing deterministically (e.g. "1NBAC proposes 0 to
    [uc] when a vote is missing"), never to run experiments. *)

type state = { decided : bool }
type msg = |

let name = "trivial(unsafe)"
let pp_msg _ppf (m : msg) = (match m with _ -> .)
let init _env = { decided = false }

let on_propose _env state v =
  if state.decided then (state, [])
  else ({ decided = true }, [ Proto.Decide (Vote.decision_of_vote v) ])

let on_deliver _env _state ~src:_ (m : msg) = (match m with _ -> .)
let on_timeout _env state ~id:_ = (state, [])

let hash_state h s = Fingerprint.add_bool h s.decided

let hash_msg (_ : Fingerprint.t) (m : msg) = (match m with _ -> .)
let symmetry ~n ~f:_ = Symmetry.full ~n
