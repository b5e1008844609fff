type msg = V of Vote.t

type state = { decided : bool; decision : Vote.t; heard_from : Pid.t list }

let name = "avnbac-delay"
let uses_consensus = false
let pp_msg ppf (V v) = Format.fprintf ppf "[V,%d]" (Vote.to_int v)
let init _env = { decided = false; decision = Vote.yes; heard_from = [] }

let on_propose env state v =
  ( { state with decision = v },
    Proto_util.send_each (Pid.all ~n:env.Proto.n) (V v)
    @ [ Proto_util.timer_at "round1" 1 ] )

let on_deliver _env state ~src (V v) =
  let heard_from =
    if List.exists (Pid.equal src) state.heard_from then state.heard_from
    else src :: state.heard_from
  in
  ({ state with heard_from; decision = Vote.logand state.decision v }, [])

let on_timeout env state ~id =
  match id with
  | "round1" ->
      if (not state.decided) && List.length state.heard_from = env.Proto.n
      then
        ( { state with decided = true },
          [ Proto_util.decide_vote state.decision ] )
      else (state, [])
  | other -> failwith ("Av_nbac_delay: unknown timer " ^ other)

let guards = []
let on_guard _env _state ~id = failwith ("Av_nbac_delay: unknown guard " ^ id)
let on_consensus_decide _env state _d = (state, [])

let hash_state =
  let open Proto_util in
  Some
    (fun h s ->
      fp_bool h s.decided;
      fp_vote h s.decision;
      Fingerprint.add_pid_set h s.heard_from)

let hash_msg =
  let open Proto_util in
  Some (fun h (V v) -> fp_vote h v)

(* Rank-oblivious: every process broadcasts and collects identically. *)
let symmetry ~n ~f:_ = Symmetry.full ~n
