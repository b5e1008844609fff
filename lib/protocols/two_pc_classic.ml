type msg = Prepare | V of Vote.t | Decision of Vote.t

type state = {
  vote : Vote.t;
  conjunction : Vote.t;
  heard_from : Pid.t list;
  decided : bool;
  announced : bool;
}

let name = "2pc-classic"
let uses_consensus = false

let pp_msg ppf = function
  | Prepare -> Format.pp_print_string ppf "[PREPARE]"
  | V v -> Format.fprintf ppf "[V,%d]" (Vote.to_int v)
  | Decision d -> Format.fprintf ppf "[D,%d]" (Vote.to_int d)

let init _env =
  {
    vote = Vote.yes;
    conjunction = Vote.yes;
    heard_from = [];
    decided = false;
    announced = false;
  }

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
      vote = v;
      conjunction = Vote.logand state.conjunction v;
      heard_from = [ env.Proto.self ];
    }
  in
  if is_coordinator env then
    (* solicit the votes; abort if one is missing after a full round trip *)
    ( state,
      Proto_util.broadcast_others env Prepare @ [ Proto_util.timer_at "collect" 3 ] )
  else (state, [])

let on_deliver env state ~src msg =
  match msg with
  | Prepare ->
      (* a participant votes only when asked *)
      let unilateral =
        match state.vote with
        | Vote.No when not state.decided -> [ Proto_util.decide Vote.abort ]
        | Vote.No | Vote.Yes -> []
      in
      let state =
        match state.vote with
        | Vote.No -> { state with decided = true }
        | Vote.Yes -> state
      in
      (state, Proto_util.send coordinator (V state.vote) :: unilateral)
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
      if is_coordinator env && not state.announced then
        announce env { state with conjunction = Vote.no }
      else (state, [])
  | other -> failwith ("Two_pc_classic: unknown timer " ^ other)

let guards = []
let on_guard _env _state ~id = failwith ("Two_pc_classic: unknown guard " ^ id)
let on_consensus_decide _env state _d = (state, [])

let hash_state =
  let open Proto_util in
  Some
    (fun h s ->
      fp_vote h s.vote;
      fp_vote h s.conjunction;
      Fingerprint.add_pid_set h s.heard_from;
      fp_bool h s.decided;
      fp_bool h s.announced)

let hash_msg =
  let open Proto_util in
  Some
    (fun h m ->
      match m with
      | Prepare -> fp_int h 0
      | V v ->
          fp_int h 1;
          fp_vote h v
      | Decision d ->
          fp_int h 2;
          fp_vote h d)

(* Only the coordinator's rank matters; participants run identical code. *)
let symmetry ~n ~f:_ = Symmetry.interchangeable_after_coordinator ~n
