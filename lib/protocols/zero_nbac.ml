type msg = V | B | Ack
(* [V] and [B] always carry vote 0 in this protocol, so the payload is
   implicit. *)

type state = {
  myvote : Vote.t;
  zero : bool;  (** saw a [V,0] before the first timeout *)
  phase : int;
  decided : bool;
  proposed : bool;
  myack : Pid.t list;
}

let name = "0nbac"
let uses_consensus = true

let pp_msg ppf = function
  | V -> Format.pp_print_string ppf "[V,0]"
  | B -> Format.pp_print_string ppf "[B,0]"
  | Ack -> Format.pp_print_string ppf "[ACK]"

let init _env =
  {
    myvote = Vote.yes;
    zero = false;
    phase = 0;
    decided = false;
    proposed = false;
    myack = [];
  }

let on_propose env state v =
  let state = { state with myvote = v; phase = 1 } in
  let sends =
    match v with
    | Vote.No -> Proto_util.broadcast_others env V
    | Vote.Yes -> []
  in
  (state, sends @ [ Proto_util.timer_at "t" 1 ])

let add_once p pids = if List.exists (Pid.equal p) pids then pids else p :: pids

let on_deliver _env state ~src msg =
  match msg with
  | V ->
      if state.phase = 1 then
        ({ state with zero = true }, [ Proto_util.send src Ack ])
      else (state, [])
  | B ->
      if state.phase = 2 && not (Vote.equal state.myvote Vote.yes && state.decided)
      then (state, [ Proto_util.send src Ack ])
      else (state, [])
  | Ack -> ({ state with myack = add_once src state.myack }, [])

let on_timeout env state ~id =
  match id with
  | "t" when state.phase = 1 ->
      let state = { state with phase = 2 } in
      if (not state.zero) && Vote.equal state.myvote Vote.yes then
        (* category 3: no zero in sight, decide 1 after one delay *)
        ({ state with decided = true }, [ Proto_util.decide Vote.commit ])
      else if state.zero && Vote.equal state.myvote Vote.yes then
        (* category 2: relay the zero and wait for acknowledgements *)
        ( state,
          Proto_util.broadcast_others env B @ [ Proto_util.timer_at "t" 3 ] )
      else
        (* category 1: own vote is 0; acknowledgements due by 2U *)
        (state, [ Proto_util.timer_at "t" 2 ])
  | "t" when state.phase = 2 && not state.proposed ->
      let proposal =
        if List.length state.myack = env.Proto.n - 1 then Vote.no else Vote.yes
      in
      ({ state with proposed = true }, [ Proto.Propose_consensus proposal ])
  | "t" -> (state, [])
  | other -> failwith ("Zero_nbac: unknown timer " ^ other)

let guards = []
let on_guard _env _state ~id = failwith ("Zero_nbac: unknown guard " ^ id)

let on_consensus_decide _env state d =
  if state.decided then (state, [])
  else ({ state with decided = true }, [ Proto_util.decide_vote d ])

let hash_state =
  let open Proto_util in
  Some
    (fun h s ->
      fp_vote h s.myvote;
      fp_bool h s.zero;
      fp_int h s.phase;
      fp_bool h s.decided;
      fp_bool h s.proposed;
      Fingerprint.add_pid_set h s.myack)

let hash_msg =
  let open Proto_util in
  Some
    (fun h m -> fp_int h (match m with V -> 0 | B -> 1 | Ack -> 2))

(* Rank-oblivious: relays and acknowledgements follow votes, not ranks. *)
let symmetry ~n ~f:_ = Symmetry.full ~n
