type status = Uncertain | Precommitted | Committed | Aborted

type msg =
  | V of Vote.t
  | Precommit
  | Ack
  | Outcome of Vote.decision  (** coordinator's commit / abort broadcast *)
  | Blocked of int  (** "I am undecided", sent to the round-[k] backup *)
  | State_req of int
  | State_rep of int * status
  | Precommit2 of int
  | Ack2 of int
  | Resolved of Vote.decision  (** a backup's decision broadcast *)

type state = {
  vote : Vote.t;
  conjunction : Vote.t;
  heard_from : Pid.t list;  (** votes collected by the coordinator *)
  acks : Pid.t list;
  status : status;
  decided : bool;
  (* backup-coordinator bookkeeping *)
  blocked_seen : bool;
  states : (Pid.t * status) list;
  acks2 : Pid.t list;
}

let name = "3pc"
let uses_consensus = false

let pp_status = function
  | Uncertain -> "uncertain"
  | Precommitted -> "precommitted"
  | Committed -> "committed"
  | Aborted -> "aborted"

let pp_msg ppf = function
  | V v -> Format.fprintf ppf "[V,%d]" (Vote.to_int v)
  | Precommit -> Format.pp_print_string ppf "[PRECOMMIT]"
  | Ack -> Format.pp_print_string ppf "[ACK]"
  | Outcome d -> Format.fprintf ppf "[OUTCOME,%d]" (Vote.decision_to_int d)
  | Blocked k -> Format.fprintf ppf "[BLOCKED,%d]" k
  | State_req k -> Format.fprintf ppf "[STATE-REQ,%d]" k
  | State_rep (k, s) -> Format.fprintf ppf "[STATE,%d,%s]" k (pp_status s)
  | Precommit2 k -> Format.fprintf ppf "[PRECOMMIT2,%d]" k
  | Ack2 k -> Format.fprintf ppf "[ACK2,%d]" k
  | Resolved d -> Format.fprintf ppf "[RESOLVED,%d]" (Vote.decision_to_int d)

let init _env =
  {
    vote = Vote.yes;
    conjunction = Vote.yes;
    heard_from = [];
    acks = [];
    status = Uncertain;
    decided = false;
    blocked_seen = false;
    states = [];
    acks2 = [];
  }

let coordinator = Pid.of_rank 1
let is_coordinator env = Pid.equal env.Proto.self coordinator
let add_once p pids = if List.exists (Pid.equal p) pids then pids else p :: pids

(* Termination rounds: backup P_k wakes at [round_start k], one round
   spans 7 slots (blocked, state-req, state, resolution, ack2, commit,
   receipt). *)
let round_start k = 5 + (7 * (k - 2))

let status_of_decision = function
  | Vote.Commit -> Committed
  | Vote.Abort -> Aborted

(* Once decided, every pending timer is stale: the blocked pings, the
   state-collection rounds and the coordinator phases would only fire
   no-op handlers and stretch quiescence. A decided backup answers
   [Blocked] directly (see [on_deliver]), so even its own round timer can
   go. *)
let cancel_stale_timers env =
  List.map
    (fun id -> Proto.Cancel_timer id)
    ([ "precommit"; "commit"; "final" ]
    @ List.concat_map
        (fun k ->
          List.map
            (fun prefix -> Printf.sprintf "%s:%d" prefix k)
            [ "blocked"; "round"; "resolve"; "commit2" ])
        (List.init env.Proto.f (fun i -> i + 2)))

let settle env state d =
  if state.decided then (state, [])
  else
    ( { state with decided = true; status = status_of_decision d },
      cancel_stale_timers env @ [ Proto_util.decide d ] )

let on_propose env state v =
  let state =
    {
      state with
      vote = v;
      conjunction = v;
      heard_from = [ env.Proto.self ];
    }
  in
  (* every undecided process pings each round's backup so that backups act
     (and send messages) only when someone is actually blocked *)
  let round_timers =
    List.concat_map
      (fun k ->
        [ Proto_util.timer_at (Printf.sprintf "blocked:%d" k) (round_start k) ]
        @
        if Proto_util.rank env = k then
          [
            Proto_util.timer_at
              (Printf.sprintf "round:%d" k)
              (round_start k + 1);
          ]
        else [])
      (List.init env.Proto.f (fun i -> i + 2))
  in
  let state, unilateral =
    match v with
    | Vote.No when not (is_coordinator env) -> settle env state Vote.abort
    | Vote.No | Vote.Yes -> (state, [])
  in
  let sends =
    if is_coordinator env then
      [ Proto_util.timer_at "precommit" 1; Proto_util.timer_at "commit" 3 ]
    else [ Proto_util.send coordinator (V v); Proto_util.timer_at "final" 4 ]
  in
  (state, sends @ round_timers @ unilateral)

let backup_resolution env state k =
  (* the classic 3PC termination rule over the collected states *)
  let statuses = (env.Proto.self, state.status) :: state.states in
  let has s = List.exists (fun (_, s') -> s' = s) statuses in
  if has Committed then begin
    let state, decisions = settle env state Vote.commit in
    (state, Proto_util.broadcast_others env (Resolved Vote.commit) @ decisions)
  end
  else if has Aborted then begin
    let state, decisions = settle env state Vote.abort in
    (state, Proto_util.broadcast_others env (Resolved Vote.abort) @ decisions)
  end
  else if has Precommitted then
    ( { state with status = Precommitted; acks2 = [] },
      Proto_util.broadcast_others env (Precommit2 k)
      @ [
          Proto_util.timer_at
            (Printf.sprintf "commit2:%d" k)
            (round_start k + 5);
        ] )
  else begin
    (* everyone reachable is uncertain: no process can have committed *)
    let state, decisions = settle env state Vote.abort in
    (state, Proto_util.broadcast_others env (Resolved Vote.abort) @ decisions)
  end

let on_deliver env state ~src msg =
  match msg with
  | V v ->
      if is_coordinator env then
        ( {
            state with
            conjunction = Vote.logand state.conjunction v;
            heard_from = add_once src state.heard_from;
          },
          [] )
      else (state, [])
  | Precommit ->
      if state.decided then (state, [])
      else
        ( { state with status = Precommitted },
          [ Proto_util.send coordinator Ack ] )
  | Ack -> ({ state with acks = add_once src state.acks }, [])
  | Outcome d | Resolved d -> settle env state d
  | Blocked _ ->
      if state.decided then
        (* this backup already retired its round timer: answer the blocked
           process directly instead of waiting for the round to fire *)
        ( state,
          [
            Proto_util.send src
              (Resolved
                 (if state.status = Committed then Vote.commit else Vote.abort));
          ] )
      else ({ state with blocked_seen = true }, [])
  | State_req k -> (state, [ Proto_util.send src (State_rep (k, state.status)) ])
  | State_rep (_, s) -> ({ state with states = (src, s) :: state.states }, [])
  | Precommit2 k ->
      if state.decided then (state, [])
      else
        ( { state with status = Precommitted },
          [ Proto_util.send src (Ack2 k) ] )
  | Ack2 _ -> ({ state with acks2 = add_once src state.acks2 }, [])

let on_timeout env state ~id =
  match String.split_on_char ':' id with
  | [ "precommit" ] ->
      if
        List.length state.heard_from = env.Proto.n
        && Vote.equal state.conjunction Vote.yes
      then
        ( { state with status = Precommitted },
          Proto_util.broadcast_others env Precommit )
      else begin
        let state, decisions = settle env state Vote.abort in
        (state, Proto_util.broadcast_others env (Outcome Vote.abort) @ decisions)
      end
  | [ "commit" ] ->
      if state.status = Precommitted && not state.decided then begin
        (* missing acks can only come from crashed processes *)
        let state, decisions = settle env state Vote.commit in
        (state, Proto_util.broadcast_others env (Outcome Vote.commit) @ decisions)
      end
      else (state, [])
  | [ "final" ] -> (state, [])
  | [ "blocked"; k ] ->
      if state.decided then (state, [])
      else (state, [ Proto_util.send (Pid.of_rank (int_of_string k)) (Blocked (int_of_string k)) ])
  | [ "round"; k ] ->
      let k = int_of_string k in
      if state.decided && state.blocked_seen then
        (state, Proto_util.broadcast_others env (Resolved (if state.status = Committed then Vote.commit else Vote.abort)))
      else if not state.decided then
        ( { state with states = [] },
          Proto_util.broadcast_others env (State_req k)
          @ [
              Proto_util.timer_at
                (Printf.sprintf "resolve:%d" k)
                (round_start k + 3);
            ] )
      else (state, [])
  | [ "resolve"; k ] ->
      if state.decided then (state, [])
      else backup_resolution env state (int_of_string k)
  | [ "commit2"; _k ] ->
      if state.decided then (state, [])
      else begin
        let state, decisions = settle env state Vote.commit in
        ( state,
          Proto_util.broadcast_others env (Resolved Vote.commit) @ decisions )
      end
  | _ -> failwith ("Three_pc: unknown timer " ^ id)

let guards = []
let on_guard _env _state ~id = failwith ("Three_pc: unknown guard " ^ id)
let on_consensus_decide _env state _d = (state, [])

let fp_status h st =
  Proto_util.fp_int h
    (match st with
    | Uncertain -> 0
    | Precommitted -> 1
    | Committed -> 2
    | Aborted -> 3)

let hash_state h s =
  let open Proto_util in
  fp_vote h s.vote;
  fp_vote h s.conjunction;
  Fingerprint.add_pid_set h s.heard_from;
  Fingerprint.add_pid_set h s.acks;
  fp_status h s.status;
  fp_bool h s.decided;
  fp_bool h s.blocked_seen;
  Fingerprint.add_pid_assoc h fp_status s.states;
  Fingerprint.add_pid_set h s.acks2

let hash_msg h m =
  let open Proto_util in
  match m with
  | V v ->
      fp_int h 0;
      fp_vote h v
  | Precommit -> fp_int h 1
  | Ack -> fp_int h 2
  | Outcome d ->
      fp_int h 3;
      fp_decision h d
  | Blocked k ->
      fp_int h 4;
      fp_int h k
  | State_req k ->
      fp_int h 5;
      fp_int h k
  | State_rep (k, s) ->
      fp_int h 6;
      fp_int h k;
      fp_status h s
  | Precommit2 k ->
      fp_int h 7;
      fp_int h k
  | Ack2 k ->
      fp_int h 8;
      fp_int h k
  | Resolved d ->
      fp_int h 9;
      fp_decision h d

(* [P1] coordinates and [P2..P_{f+1}] are the per-round backups; the
   remaining participants run identical code. Round numbers in messages
   and timer ids name backup ranks, which the permutation fixes. *)
let symmetry ~n ~f = Symmetry.rank_range ~n ~lo:(f + 2) ~hi:n
