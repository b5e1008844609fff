type msg = V of Vote.t

type state = { yes_votes : int; heard : int; decided : bool }

let name = "majority-commit"
let uses_consensus = false
let pp_msg ppf (V v) = Format.fprintf ppf "[V,%d]" (Vote.to_int v)
let init _env = { yes_votes = 0; heard = 0; decided = false }

let count state v =
  {
    state with
    heard = state.heard + 1;
    yes_votes = (state.yes_votes + match v with Vote.Yes -> 1 | Vote.No -> 0);
  }

let on_propose env state v =
  ( count state v,
    Proto_util.broadcast_others env (V v) @ [ Proto_util.timer_at "decide" 1 ] )

let on_deliver _env state ~src:_ (V v) = (count state v, [])

let on_timeout env state ~id =
  match id with
  | "decide" ->
      if state.decided then (state, [])
      else begin
        let d =
          if state.yes_votes > env.Proto.n / 2 then Vote.commit else Vote.abort
        in
        ({ state with decided = true }, [ Proto_util.decide d ])
      end
  | other -> failwith ("Majority_commit: unknown timer " ^ other)

let guards = []
let on_guard _env _state ~id = failwith ("Majority_commit: unknown guard " ^ id)
let on_consensus_decide _env state _d = (state, [])

let hash_state h s =
  let open Proto_util in
  fp_int h s.yes_votes;
  fp_int h s.heard;
  fp_bool h s.decided

let hash_msg h (V v) = Proto_util.fp_vote h v

(* Rank-oblivious: votes are counted, never attributed. *)
let symmetry ~n ~f:_ = Symmetry.full ~n
