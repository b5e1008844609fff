type msg = V of Vote.t | D of Vote.t

type state = {
  phase : int;
  proposed : bool;
  decided : bool;
  decision : Vote.t;  (** running conjunction, as in the pseudo-code *)
  collection0 : Pid.t list;  (** processes whose vote arrived *)
  collection1 : Pid.t list;  (** processes whose [D] arrived *)
}

let name = "1nbac"
let uses_consensus = true

let pp_msg ppf = function
  | V v -> Format.fprintf ppf "[V,%d]" (Vote.to_int v)
  | D d -> Format.fprintf ppf "[D,%d]" (Vote.to_int d)

let init _env =
  {
    phase = 0;
    proposed = false;
    decided = false;
    decision = Vote.yes;
    collection0 = [];
    collection1 = [];
  }

let add_once p pids = if List.exists (Pid.equal p) pids then pids else p :: pids

let on_propose _env state v =
  let state = { state with decision = v } in
  (* [forall q in Omega]: the self-addressed vote arrives immediately and
     is not a network message *)
  (state, Proto_util.send_each (Pid.all ~n:_env.Proto.n) (V v)
          @ [ Proto_util.timer_at "round1" 1 ])

let on_deliver _env state ~src msg =
  match msg with
  | V v ->
      ( {
          state with
          collection0 = add_once src state.collection0;
          decision = Vote.logand state.decision v;
        },
        [] )
  | D d -> ({ state with collection1 = add_once src state.collection1; decision = d }, [])

let on_timeout env state ~id =
  match id with
  | "round1" when state.phase = 0 ->
      if List.length state.collection0 = env.Proto.n then begin
        let state = { state with decided = true } in
        ( state,
          Proto_util.send_each (Pid.all ~n:env.Proto.n) (D state.decision)
          @ [ Proto_util.decide_vote state.decision ] )
      end
      else ({ state with phase = 1 }, [ Proto_util.timer_at "round2" 2 ])
  | "round2" when state.phase = 1 ->
      if state.decided || state.proposed then (state, [])
      else begin
        let decision =
          if state.collection1 = [] then Vote.no else state.decision
        in
        ( { state with decision; proposed = true },
          [ Proto.Propose_consensus decision ] )
      end
  | "round1" | "round2" -> (state, [])
  | other -> failwith ("One_nbac: unknown timer " ^ other)

let guards = []
let on_guard _env _state ~id = failwith ("One_nbac: unknown guard " ^ id)

let on_consensus_decide _env state d =
  if state.decided then (state, [])
  else ({ state with decided = true }, [ Proto_util.decide_vote d ])

let hash_state =
  let open Proto_util in
  Some
    (fun h s ->
      fp_int h s.phase;
      fp_bool h s.proposed;
      fp_bool h s.decided;
      fp_vote h s.decision;
      Fingerprint.add_pid_set h s.collection0;
      Fingerprint.add_pid_set h s.collection1)

let hash_msg =
  let open Proto_util in
  Some
    (fun h m ->
      match m with
      | V v ->
          fp_int h 0;
          fp_vote h v
      | D d ->
          fp_int h 1;
          fp_vote h d)

(* Rank-oblivious: every process broadcasts and collects identically. *)
let symmetry ~n ~f:_ = Symmetry.full ~n
