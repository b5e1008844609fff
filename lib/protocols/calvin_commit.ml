type msg = Zero

type state = { vote : Vote.t; saw_zero : bool; decided : bool }

let name = "calvin-commit"
let uses_consensus = false
let pp_msg ppf Zero = Format.pp_print_string ppf "[V,0]"
let init _env = { vote = Vote.yes; saw_zero = false; decided = false }

let on_propose env state v =
  let state = { state with vote = v } in
  let sends =
    match v with
    | Vote.No -> Proto_util.broadcast_others env Zero
    | Vote.Yes -> []
  in
  (state, sends @ [ Proto_util.timer_at "decide" 1 ])

let on_deliver _env state ~src:_ Zero = ({ state with saw_zero = true }, [])

let on_timeout _env state ~id =
  match id with
  | "decide" ->
      if state.decided then (state, [])
      else begin
        let d =
          if state.saw_zero || Vote.equal state.vote Vote.no then Vote.abort
          else Vote.commit
        in
        ({ state with decided = true }, [ Proto_util.decide d ])
      end
  | other -> failwith ("Calvin_commit: unknown timer " ^ other)

let guards = []
let on_guard _env _state ~id = failwith ("Calvin_commit: unknown guard " ^ id)
let on_consensus_decide _env state _d = (state, [])

let hash_state h s =
  let open Proto_util in
  fp_vote h s.vote;
  fp_bool h s.saw_zero;
  fp_bool h s.decided

let hash_msg (_ : Fingerprint.t) Zero = ()

(* Rank-oblivious: zeroes are broadcast, never attributed. *)
let symmetry ~n ~f:_ = Symmetry.full ~n
