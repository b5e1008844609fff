(* Test fixture probing decision accounting, shared by the engine and
   checker suites: a process decides its own vote at propose (commit on
   yes, abort on no), then decides commit when a timer fires one delay
   later. A yes voter's second decision repeats its first; a no voter's
   contradicts it, which breaks decision stability (AC2). *)

type msg = |
type state = { vote : Vote.t }

let name = "re-decider"
let uses_consensus = false
let pp_msg _ppf (m : msg) = (match m with _ -> .)
let init _env = { vote = Vote.yes }

let on_propose _env _state v =
  ( { vote = v },
    [
      Proto.Decide (if Vote.equal v Vote.yes then Vote.commit else Vote.abort);
      Proto.Set_timer { id = "again"; fire = Proto.At_delay 1 };
    ] )

let on_deliver _env _state ~src:_ (m : msg) = (match m with _ -> .)
let on_timeout _env state ~id:_ = (state, [ Proto.Decide Vote.commit ])
let guards = []
let on_guard _env _state ~id = failwith ("re-decider: unknown guard " ^ id)
let on_consensus_decide _env state _d = (state, [])
let hash_state h s = Fingerprint.add_int h (Vote.to_int s.vote)
let hash_msg _h (m : msg) = (match m with _ -> .)
let symmetry ~n ~f:_ = Symmetry.trivial ~n
