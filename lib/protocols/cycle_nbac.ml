type msg =
  | V of Vote.t  (** conjunction so far, travelling the chain *)
  | B of Vote.t  (** full conjunction, travelling the ring *)
  | Z of Vote.t  (** final confirmation for the backups [P1..P_{f-1}] *)
  | Help
  | Helped of Vote.t

type state = {
  votes : Vote.t;
  received_v : bool;
  received_b : bool;
  received_z : bool;
  phase : int;
  decided : bool;
  proposed : bool;
  pending_help : Pid.t list;
      (** [HELP] requests queued until this process can answer them
          (appendix remark (c)) *)
}

let name = "(2n-2+f)nbac"
let uses_consensus = true

let pp_msg ppf = function
  | V v -> Format.fprintf ppf "[V,%d]" (Vote.to_int v)
  | B b -> Format.fprintf ppf "[B,%d]" (Vote.to_int b)
  | Z z -> Format.fprintf ppf "[Z,%d]" (Vote.to_int z)
  | Help -> Format.pp_print_string ppf "[HELP]"
  | Helped v -> Format.fprintf ppf "[HELPED,%d]" (Vote.to_int v)

let init _env =
  {
    votes = Vote.yes;
    received_v = false;
    received_b = false;
    received_z = false;
    phase = 0;
    decided = false;
    proposed = false;
    pending_help = [];
  }

(* Appendix convention: pseudo-code instant [k] is absolute delay [k-1]. *)
let timer_at id k = Proto_util.timer_at id (k - 1)

let propose_zero state =
  if state.proposed then (state, [])
  else
    ( { state with votes = Vote.no; proposed = true },
      [ Proto.Propose_consensus Vote.no ] )

let propose_votes state =
  if state.proposed then (state, [])
  else ({ state with proposed = true }, [ Proto.Propose_consensus state.votes ])

let decide_votes state =
  if state.decided then (state, [])
  else ({ state with decided = true }, [ Proto_util.decide_vote state.votes ])

let on_propose env state v =
  let i = Proto_util.rank env in
  let state = { state with votes = Vote.logand state.votes v } in
  if i = 1 then
    ( { state with phase = 1 },
      [
        Proto_util.send (Pid.of_rank 2) (V state.votes);
        timer_at "t" (env.Proto.n + 1);
      ] )
  else (state, [ timer_at "t" i ])

let on_deliver env state ~src msg =
  let i = Proto_util.rank env in
  let f = env.Proto.f in
  match msg with
  | V v ->
      if state.phase = 0 then
        ( {
            state with
            votes = Vote.logand state.votes v;
            received_v = true;
          },
          [] )
      else (state, [])
  | B b ->
      if state.phase = 1 then
        ( {
            state with
            votes = Vote.logand state.votes b;
            received_b = true;
          },
          [] )
      else (state, [])
  | Z z ->
      if state.phase = 2 then
        ( {
            state with
            votes = Vote.logand state.votes z;
            received_z = true;
          },
          [] )
      else (state, [])
  | Help ->
      (* [Pn] answers once it holds the ring token knowledge (phase >= 1);
         [P1..Pf] answer once they reached phase 2. Earlier requests are
         queued (remark (c)) and flushed by the "answer-pending-help"
         guard so that termination survives arbitrary delays. *)
      if (i = env.Proto.n && state.phase >= 1)
         || (i <= f && state.phase = 2)
      then (state, [ Proto_util.send src (Helped state.votes) ])
      else if i = env.Proto.n || i <= f then
        ({ state with pending_help = src :: state.pending_help }, [])
      else (state, [])
  | Helped v ->
      if state.proposed then (state, [])
      else ({ state with proposed = true }, [ Proto.Propose_consensus v ])

let on_timeout env state ~id =
  let i = Proto_util.rank env in
  let f = env.Proto.f in
  let n = env.Proto.n in
  match id with
  | "t" when state.phase = 0 ->
      (* time [i]: the V chain should have arrived from P_{i-1} *)
      let state = { state with phase = 1 } in
      if state.received_v then begin
        let send =
          if i = n then Proto_util.send (Pid.of_rank 1) (B state.votes)
          else Proto_util.send (Pid.of_rank (i + 1)) (V state.votes)
        in
        (state, [ send; timer_at "t" (n + i) ])
      end
      else begin
        let state, proposals = propose_zero state in
        (state, proposals @ [ timer_at "t" (n + i) ])
      end
  | "t" when state.phase = 1 && i = n ->
      (* time [2n]: the B token should have returned *)
      let state = { state with phase = 2 } in
      if state.received_b then begin
        let state, decisions = decide_votes state in
        let z =
          if f >= 2 then [ Proto_util.send (Pid.of_rank 1) (Z state.votes) ]
          else []
        in
        (state, decisions @ z)
      end
      else propose_votes state
  | "t" when state.phase = 1 ->
      (* time [n+i], i <= n-1: the B token should be here *)
      if state.received_b then begin
        let forward = [ Proto_util.send (Pid.of_rank (i + 1)) (B state.votes) ] in
        if i <= f - 1 then
          ( { state with phase = 2 },
            forward @ [ timer_at "t" ((2 * n) + i) ] )
        else begin
          let state, decisions = decide_votes { state with phase = 2 } in
          (state, forward @ decisions)
        end
      end
      else if i <= f then begin
        let state, proposals = propose_zero { state with phase = 2 } in
        if i <= f - 1 then
          (state, proposals @ [ timer_at "t" ((2 * n) + i) ])
        else (state, proposals)
      end
      else begin
        (* mid-ring: ask the backups before resorting to consensus *)
        let targets = Proto_util.first_ranked f @ [ Pid.of_rank n ] in
        ({ state with phase = 2 }, Proto_util.send_each targets Help)
      end
  | "t" when state.phase = 2 && i <= f - 1 ->
      (* time [2n+i]: the Z confirmation should be here *)
      if state.received_z then begin
        let state, decisions = decide_votes state in
        let forward =
          if i + 1 <= f - 1 then
            [ Proto_util.send (Pid.of_rank (i + 1)) (Z state.votes) ]
          else []
        in
        (state, decisions @ forward)
      end
      else propose_votes state
  | "t" -> (state, [])
  | other -> failwith ("Cycle_nbac: unknown timer " ^ other)

let guards =
  [
    ( "answer-pending-help",
      fun env state ->
        state.pending_help <> []
        &&
        let i = Proto_util.rank env in
        (i = env.Proto.n && state.phase >= 1)
        || (i <= env.Proto.f && state.phase = 2) );
  ]

let on_guard _env state ~id =
  match id with
  | "answer-pending-help" ->
      let replies =
        List.rev_map
          (fun src -> Proto_util.send src (Helped state.votes))
          state.pending_help
      in
      ({ state with pending_help = [] }, replies)
  | other -> failwith ("Cycle_nbac: unknown guard " ^ other)

let on_consensus_decide _env state d =
  if state.decided then (state, [])
  else ({ state with decided = true }, [ Proto_util.decide_vote d ])

let hash_state h s =
  let open Proto_util in
  fp_vote h s.votes;
  fp_bool h s.received_v;
  fp_bool h s.received_b;
  fp_bool h s.received_z;
  fp_int h s.phase;
  fp_bool h s.decided;
  fp_bool h s.proposed;
  fp_pids h s.pending_help

let hash_msg h m =
  let open Proto_util in
  match m with
  | V v ->
      fp_int h 0;
      fp_vote h v
  | B b ->
      fp_int h 1;
      fp_vote h b
  | Z z ->
      fp_int h 2;
      fp_vote h z
  | Help -> fp_int h 3
  | Helped v ->
      fp_int h 4;
      fp_vote h v

(* Chain + ring + backup roles are all rank-determined. *)
let symmetry ~n ~f:_ = Symmetry.trivial ~n
