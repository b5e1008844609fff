type msg = Chain of Vote.t

type state = {
  decision : Vote.t;
  decided : bool;
  delivered : bool;  (** predecessor's message arrived in this phase *)
  relayed : bool;  (** already relayed a 0 while nooping *)
  phase : int;
}

let name = "(n-1+f)nbac"
let uses_consensus = false
let pp_msg ppf (Chain v) = Format.fprintf ppf "[%d]" (Vote.to_int v)

let init _env =
  {
    decision = Vote.yes;
    decided = false;
    delivered = false;
    relayed = false;
    phase = 0;
  }

(* Appendix convention: this protocol's timer "starts at time 1 when the
   first sending event happens" — pseudo-code instant [k] is absolute
   delay [k - 1]. *)
let timer_at id k = Proto_util.timer_at id (k - 1)

let noop_deadline env = env.Proto.n + (2 * env.Proto.f) + 1

let on_propose env state v =
  let i = Proto_util.rank env in
  let state = { state with decision = v } in
  if i = 1 then
    let sends =
      match v with
      | Vote.Yes -> [ Proto_util.send (Pid.of_rank 2) (Chain v) ]
      | Vote.No -> [] (* a 0-voter stays silent in the chain *)
    in
    ( { state with phase = 2 },
      sends @ [ timer_at "t" (env.Proto.n + 1) ] )
  else ({ state with phase = 1 }, [ timer_at "t" i ])

let broadcast_decision env state =
  Proto_util.broadcast_others env (Chain state.decision)

let on_deliver env state ~src (Chain v) =
  let state = { state with decision = Vote.logand state.decision v } in
  if state.phase <= 2 then begin
    let pred = Pid.predecessor ~n:env.Proto.n env.Proto.self in
    if Pid.equal src pred then ({ state with delivered = true }, [])
    else (state, [])
  end
  else if
    (not state.decided) && (not state.relayed)
    && Vote.equal state.decision Vote.no
  then
    (* nooping and a 0 arrived: relay it once to everyone *)
    ({ state with relayed = true }, broadcast_decision env state)
  else (state, [])

let on_timeout env state ~id =
  match id with
  | "t" when state.phase = 1 ->
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
          (* [Pn] heads the suffix: silence upstream becomes an explicit 0 *)
        else []
      in
      let state = { state with delivered = false } in
      if i >= f + 1 then
        ( { state with phase = 3 },
          sends @ [ timer_at "t" (noop_deadline env) ] )
      else
        ({ state with phase = 2 }, sends @ [ timer_at "t" (n + i) ])
  | "t" when state.phase = 2 ->
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
        sends @ [ timer_at "t" (noop_deadline env) ] )
  | "t" when state.phase = 3 ->
      if state.decided then (state, [])
      else
        ( { state with decided = true },
          [ Proto_util.decide_vote state.decision ] )
  | "t" -> (state, [])
  | other -> failwith ("Chain_nbac: unknown timer " ^ other)

let guards = []
let on_guard _env _state ~id = failwith ("Chain_nbac: unknown guard " ^ id)
let on_consensus_decide _env state _d = (state, [])

let hash_state h s =
  let open Proto_util in
  fp_vote h s.decision;
  fp_bool h s.decided;
  fp_bool h s.delivered;
  fp_bool h s.relayed;
  fp_int h s.phase

let hash_msg h (Chain v) = Proto_util.fp_vote h v

(* The relay order is rank-determined: no two processes are interchangeable. *)
let symmetry ~n ~f:_ = Symmetry.trivial ~n
