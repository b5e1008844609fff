type msg = Chain of Vote.t | V0 | B0 | Ack_v | Ack_b

type state = {
  (* chain part, as in (n-1+f)NBAC *)
  decision : Vote.t;
  decided : bool;
  delivered : bool;
  relayed : bool;
  phase : int;
  (* acknowledgement overlay *)
  vote : Vote.t;
  delivered_v : bool;  (** some [V,0] arrived *)
  collection_v : Pid.t list;  (** acks of our [V,0] *)
  collection_b : Pid.t list;  (** acks of our [B,0] *)
  noop : bool;  (** blocked: not allowed to decide 1 at the deadline *)
  phase0 : int;
}

let name = "anbac"
let uses_consensus = false

let pp_msg ppf = function
  | Chain v -> Format.fprintf ppf "[%d]" (Vote.to_int v)
  | V0 -> Format.pp_print_string ppf "[V,0]"
  | B0 -> Format.pp_print_string ppf "[B,0]"
  | Ack_v -> Format.pp_print_string ppf "[ACK,V]"
  | Ack_b -> Format.pp_print_string ppf "[ACK,B]"

let init _env =
  {
    decision = Vote.yes;
    decided = false;
    delivered = false;
    relayed = false;
    phase = 0;
    vote = Vote.yes;
    delivered_v = false;
    collection_v = [];
    collection_b = [];
    noop = false;
    phase0 = 0;
  }

(* Same timer convention as (n-1+f)NBAC: pseudo-code instant [k] is
   absolute delay [k - 1]. *)
let timer_at id k = Proto_util.timer_at id (k - 1)
let noop_deadline env = env.Proto.n + (2 * env.Proto.f) + 1
let add_once p pids = if List.exists (Pid.equal p) pids then pids else p :: pids

let on_propose env state v =
  let i = Proto_util.rank env in
  let state = { state with decision = v; vote = v } in
  let chain_part, state =
    if i = 1 then
      ( (match v with
        | Vote.Yes -> [ Proto_util.send (Pid.of_rank 2) (Chain v) ]
        | Vote.No -> [])
        @ [ timer_at "chain" (env.Proto.n + 1) ],
        { state with phase = 2 } )
    else ([ timer_at "chain" i ], { state with phase = 1 })
  in
  let overlay =
    match v with
    | Vote.No -> Proto_util.broadcast_others env V0 @ [ timer_at "t0" 3 ]
    | Vote.Yes -> [ timer_at "t0" 2 ]
  in
  (state, chain_part @ overlay)

let broadcast_decision env state =
  Proto_util.broadcast_others env (Chain state.decision)

let on_deliver env state ~src msg =
  match msg with
  | V0 ->
      ( { state with decision = Vote.no; delivered_v = true },
        [ Proto_util.send src Ack_v ] )
  | B0 -> ({ state with decision = Vote.no }, [ Proto_util.send src Ack_b ])
  | Ack_v -> ({ state with collection_v = add_once src state.collection_v }, [])
  | Ack_b -> ({ state with collection_b = add_once src state.collection_b }, [])
  | Chain v ->
      let state = { state with decision = Vote.logand state.decision v } in
      if state.phase <= 2 then begin
        let pred = Pid.predecessor ~n:env.Proto.n env.Proto.self in
        if Pid.equal src pred then ({ state with delivered = true }, [])
        else (state, [])
      end
      else if
        (not state.decided) && (not state.relayed)
        && Vote.equal state.decision Vote.no
      then ({ state with relayed = true }, broadcast_decision env state)
      else (state, [])

let decide_zero state =
  if state.decided then (state, [])
  else ({ state with decided = true }, [ Proto_util.decide Vote.abort ])

let on_timeout env state ~id =
  match id with
  | "t0" -> begin
      match state.vote with
      | Vote.No ->
          if List.length state.collection_v = env.Proto.n - 1 then
            decide_zero state
          else ({ state with noop = true }, [])
      | Vote.Yes ->
          if state.phase0 = 0 && state.delivered_v then
            ( { state with phase0 = 1 },
              Proto_util.broadcast_others env B0 @ [ timer_at "t0" 4 ] )
          else if state.phase0 = 1 then
            if List.length state.collection_b = env.Proto.n - 1 then
              decide_zero state
            else ({ state with noop = true }, [])
          else (state, [])
    end
  | "chain" when state.phase = 1 ->
      let i = Proto_util.rank env in
      let f = env.Proto.f in
      let n = env.Proto.n in
      let state =
        if state.delivered then state else { state with decision = Vote.no }
      in
      let sends =
        if Vote.equal state.decision Vote.yes then
          [ Proto_util.send (Pid.successor ~n env.Proto.self) (Chain Vote.yes) ]
        else if i = n then broadcast_decision env state
        else []
      in
      let state = { state with delivered = false } in
      if i >= f + 1 then
        ( { state with phase = 3 },
          sends @ [ timer_at "chain" (noop_deadline env) ] )
      else ({ state with phase = 2 }, sends @ [ timer_at "chain" (n + i) ])
  | "chain" when state.phase = 2 ->
      let i = Proto_util.rank env in
      let f = env.Proto.f in
      let state =
        if state.delivered then state else { state with decision = Vote.no }
      in
      let sends =
        if Vote.equal state.decision Vote.yes then
          if i <> f then
            [
              Proto_util.send
                (Pid.successor ~n:env.Proto.n env.Proto.self)
                (Chain Vote.yes);
            ]
          else []
        else broadcast_decision env state
      in
      ( { state with delivered = false; phase = 3 },
        sends @ [ timer_at "chain" (noop_deadline env) ] )
  | "chain" when state.phase = 3 ->
      if
        (not state.decided)
        && Vote.equal state.decision Vote.yes
        && not state.noop
      then
        ({ state with decided = true }, [ Proto_util.decide Vote.commit ])
      else (state, [])
  | "chain" -> (state, [])
  | other -> failwith ("A_nbac: unknown timer " ^ other)

let guards = []
let on_guard _env _state ~id = failwith ("A_nbac: unknown guard " ^ id)
let on_consensus_decide _env state _d = (state, [])

let hash_state h s =
  let open Proto_util in
  fp_vote h s.decision;
  fp_bool h s.decided;
  fp_bool h s.delivered;
  fp_bool h s.relayed;
  fp_int h s.phase;
  fp_vote h s.vote;
  fp_bool h s.delivered_v;
  fp_pids h s.collection_v;
  fp_pids h s.collection_b;
  fp_bool h s.noop;
  fp_int h s.phase0

let hash_msg h m =
  let open Proto_util in
  match m with
  | Chain v ->
      fp_int h 0;
      fp_vote h v
  | V0 -> fp_int h 1
  | B0 -> fp_int h 2
  | Ack_v -> fp_int h 3
  | Ack_b -> fp_int h 4

(* The chain overlay is rank-determined: no two processes are
   interchangeable. *)
let symmetry ~n ~f:_ = Symmetry.trivial ~n
