type msg = V of Vote.t | Decision of Vote.t

type state = {
  conjunction : Vote.t;
  heard_from : Pid.t list;
  decided : bool;
  announced : bool;  (** coordinator already broadcast the decision *)
}

let name = "2pc"
let uses_consensus = false

let pp_msg ppf = function
  | V v -> Format.fprintf ppf "[V,%d]" (Vote.to_int v)
  | Decision d -> Format.fprintf ppf "[D,%d]" (Vote.to_int d)

let init _env =
  { conjunction = Vote.yes; heard_from = []; decided = false; announced = false }

let coordinator = Pid.of_rank 1
let is_coordinator env = Pid.equal env.Proto.self coordinator
let add_once p pids = if List.exists (Pid.equal p) pids then pids else p :: pids

let announce env state =
  if state.announced then (state, [])
  else begin
    let state = { state with announced = true; decided = true } in
    ( state,
      Proto_util.broadcast_others env (Decision state.conjunction)
      @ [ Proto_util.decide_vote state.conjunction ] )
  end

let on_propose env state v =
  let state =
    {
      state with
      conjunction = Vote.logand state.conjunction v;
      heard_from = [ env.Proto.self ];
    }
  in
  if is_coordinator env then
    (* wait for the participants' votes; abort at time 2 if one is
       missing (only a failure can cause that in a synchronous system) *)
    (state, [ Proto_util.timer_at "collect" 2 ])
  else begin
    (* a participant that votes 0 may abort unilaterally *)
    let unilateral =
      match v with
      | Vote.No -> [ Proto_util.decide Vote.abort ]
      | Vote.Yes -> []
    in
    let state =
      match v with Vote.No -> { state with decided = true } | Vote.Yes -> state
    in
    (state, Proto_util.send coordinator (V v) :: unilateral)
  end

let on_deliver env state ~src msg =
  match msg with
  | V v ->
      if is_coordinator env then begin
        let state =
          {
            state with
            conjunction = Vote.logand state.conjunction v;
            heard_from = add_once src state.heard_from;
          }
        in
        if List.length state.heard_from = env.Proto.n then announce env state
        else (state, [])
      end
      else (state, [])
  | Decision d ->
      if state.decided then (state, [])
      else ({ state with decided = true }, [ Proto_util.decide_vote d ])

let on_timeout env state ~id =
  match id with
  | "collect" ->
      if is_coordinator env && not state.announced then begin
        (* a vote is missing after a full round trip: abort *)
        let state = { state with conjunction = Vote.no } in
        announce env state
      end
      else (state, [])
  | other -> failwith ("Two_pc: unknown timer " ^ other)

let guards = []
let on_guard _env _state ~id = failwith ("Two_pc: unknown guard " ^ id)
let on_consensus_decide _env state _d = (state, [])

let hash_state h s =
  let open Proto_util in
  fp_vote h s.conjunction;
  Fingerprint.add_pid_set h s.heard_from;
  fp_bool h s.decided;
  fp_bool h s.announced

let hash_msg h m =
  let open Proto_util in
  match m with
  | V v ->
      fp_int h 0;
      fp_vote h v
  | Decision d ->
      fp_int h 1;
      fp_vote h d

(* Only the coordinator's rank matters; participants run identical code. *)
let symmetry ~n ~f:_ = Symmetry.interchangeable_after_coordinator ~n
