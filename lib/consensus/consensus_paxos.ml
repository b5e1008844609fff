type ballot = int

type msg =
  | Prepare of ballot
  | Promise of { ballot : ballot; accepted : (ballot * Vote.t) option }
  | Nack of { ballot : ballot; promised : ballot }
  | Accept of ballot * Vote.t
  | Accepted of ballot * Vote.t
  | Decided of Vote.t

type phase = Idle | Preparing | Accepting | Learned

type state = {
  (* acceptor *)
  promised : ballot;  (* -1 when no promise was made yet *)
  accepted : (ballot * Vote.t) option;
  (* proposer *)
  proposal : Vote.t option;
  attempt : int;
  ballot : ballot;  (* ballot of the attempt in progress, -1 when idle *)
  phase : phase;
  promises : (Pid.t * (ballot * Vote.t) option) list;
  accepts : Pid.t list;
  highest_seen : ballot;
  (* learner *)
  decided_value : Vote.t option;
}

let name = "paxos"

let pp_msg ppf = function
  | Prepare b -> Format.fprintf ppf "prepare(%d)" b
  | Promise { ballot; accepted = None } ->
      Format.fprintf ppf "promise(%d,-)" ballot
  | Promise { ballot; accepted = Some (ab, av) } ->
      Format.fprintf ppf "promise(%d,%d:%a)" ballot ab Vote.pp av
  | Nack { ballot; promised } -> Format.fprintf ppf "nack(%d,%d)" ballot promised
  | Accept (b, v) -> Format.fprintf ppf "accept(%d,%a)" b Vote.pp v
  | Accepted (b, v) -> Format.fprintf ppf "accepted(%d,%a)" b Vote.pp v
  | Decided v -> Format.fprintf ppf "decided(%a)" Vote.pp v

let init _env =
  {
    promised = -1;
    accepted = None;
    proposal = None;
    attempt = 0;
    ballot = -1;
    phase = Idle;
    promises = [];
    accepts = [];
    highest_seen = -1;
    decided_value = None;
  }

let majority n = (n / 2) + 1
let retry_base_delay ~u = 4 * u

let retry_delay ~u ~attempt =
  let shift = min (max 0 (attempt - 1)) 8 in
  retry_base_delay ~u * (1 lsl shift)

let retry_id attempt = Printf.sprintf "paxos-retry:%d" attempt

let broadcast env m =
  List.map (fun q -> Proto.Send (q, m)) (Pid.all ~n:env.Proto.n)

(* Begin the next prepare attempt: pick the smallest of our own ballots
   that exceeds every ballot we have seen, broadcast [Prepare] and arm the
   retry timer. *)
let start_attempt env state =
  let n = env.Proto.n in
  let i = Pid.index env.Proto.self in
  let k =
    let min_k = (state.highest_seen / n) + 1 in
    max (state.attempt + 1) min_k
  in
  let ballot = (k * n) + i in
  let attempt = state.attempt + 1 in
  let state =
    {
      state with
      attempt;
      ballot;
      phase = Preparing;
      promises = [];
      accepts = [];
      highest_seen = max state.highest_seen ballot;
    }
  in
  let actions =
    broadcast env (Prepare ballot)
    @ [
        Proto.Set_timer
          {
            id = retry_id attempt;
            fire = Proto.After (retry_delay ~u:env.Proto.u ~attempt);
          };
      ]
  in
  (state, actions)

let learn state v =
  match state.decided_value with
  | Some _ -> (state, [])
  | None ->
      ( { state with decided_value = Some v; phase = Learned },
        [ Proto.Decide (Vote.decision_of_vote v) ] )

let on_propose env state v =
  match state.proposal with
  | Some _ -> (state, [])
  | None -> (
      let state = { state with proposal = Some v } in
      match state.decided_value with
      | Some dv -> (state, [ Proto.Decide (Vote.decision_of_vote dv) ])
      | None -> start_attempt env state)

(* The value an attempt must propose: the accepted value with the highest
   ballot among a majority of promises, or our own proposal. *)
let choose_value state =
  let best =
    List.fold_left
      (fun acc (_, a) ->
        match (acc, a) with
        | None, a -> a
        | Some _, None -> acc
        | Some (ab, _), Some (b, _) -> if b > ab then a else acc)
      None state.promises
  in
  match (best, state.proposal) with
  | Some (_, v), _ -> v
  | None, Some v -> v
  | None, None -> assert false (* only proposers collect promises *)

let on_deliver env state ~src m =
  match m with
  | Prepare b -> (
      match state.decided_value with
      | Some v -> (state, [ Proto.Send (src, Decided v) ])
      | None ->
          if b > state.promised then
            ( { state with promised = b },
              [ Proto.Send (src, Promise { ballot = b; accepted = state.accepted }) ]
            )
          else
            ( { state with highest_seen = max state.highest_seen b },
              [ Proto.Send (src, Nack { ballot = b; promised = state.promised }) ]
            ))
  | Promise { ballot; accepted } ->
      if state.phase = Preparing && ballot = state.ballot then begin
        let promises =
          if List.mem_assoc src state.promises then state.promises
          else (src, accepted) :: state.promises
        in
        let state = { state with promises } in
        if List.length promises >= majority env.Proto.n then begin
          let v = choose_value state in
          let state = { state with phase = Accepting; accepts = [] } in
          (state, broadcast env (Accept (state.ballot, v)))
        end
        else (state, [])
      end
      else (state, [])
  | Nack { ballot = _; promised } ->
      ({ state with highest_seen = max state.highest_seen promised }, [])
  | Accept (b, v) -> (
      match state.decided_value with
      | Some dv -> (state, [ Proto.Send (src, Decided dv) ])
      | None ->
          if b >= state.promised then
            ( { state with promised = b; accepted = Some (b, v) },
              [ Proto.Send (src, Accepted (b, v)) ] )
          else
            ( { state with highest_seen = max state.highest_seen b },
              [ Proto.Send (src, Nack { ballot = b; promised = state.promised }) ]
            ))
  | Accepted (b, v) ->
      if state.phase = Accepting && b = state.ballot then begin
        let accepts =
          if List.exists (Pid.equal src) state.accepts then state.accepts
          else src :: state.accepts
        in
        let state = { state with accepts } in
        if List.length accepts >= majority env.Proto.n then begin
          let state, decide_actions = learn state v in
          (state, broadcast env (Decided v) @ decide_actions)
        end
        else (state, [])
      end
      else (state, [])
  | Decided v -> learn state v

let on_timeout env state ~id =
  if
    String.equal id (retry_id state.attempt)
    && state.phase <> Learned && state.phase <> Idle
    && state.decided_value = None
  then start_attempt env state
  else (state, [])

let fp = Fingerprint.add_int
let fp_vote h v = fp h (Vote.to_int v)

(* Ballots encode their proposer: [b = k*n + i]. Under a renaming the
   symmetry action maps [b] to [k*n + sigma(i)], so feed the attempt
   number and the renamed proposer separately. Without a renaming, feed
   the raw integer — the historical (byte-stable) encoding. *)
let fp_ballot h b =
  if b < 0 || not (Fingerprint.perm_active h) then fp h b
  else begin
    let n = Fingerprint.perm_size h in
    fp h (b / n);
    Fingerprint.add_pid h (b mod n)
  end

let fp_accepted h = function
  | None -> fp h 0
  | Some (b, v) ->
      fp h 1;
      fp_ballot h b;
      fp_vote h v

let hash_state h s =
  fp_ballot h s.promised;
  fp_accepted h s.accepted;
  (match s.proposal with
  | None -> fp h 0
  | Some v ->
      fp h 1;
      fp_vote h v);
  fp h s.attempt;
  fp_ballot h s.ballot;
  fp h
    (match s.phase with
    | Idle -> 0
    | Preparing -> 1
    | Accepting -> 2
    | Learned -> 3);
  Fingerprint.add_pid_assoc h fp_accepted s.promises;
  Fingerprint.add_pid_set h s.accepts;
  fp_ballot h s.highest_seen;
  match s.decided_value with
  | None -> fp h 0
  | Some v ->
      fp h 1;
      fp_vote h v

let hash_msg h m =
  match m with
  | Prepare b ->
      fp h 0;
      fp_ballot h b
  | Promise { ballot; accepted } ->
      fp h 1;
      fp_ballot h ballot;
      fp_accepted h accepted
  | Nack { ballot; promised } ->
      fp h 2;
      fp_ballot h ballot;
      fp_ballot h promised
  | Accept (b, v) ->
      fp h 3;
      fp_ballot h b;
      fp_vote h v
  | Accepted (b, v) ->
      fp h 4;
      fp_ballot h b;
      fp_vote h v
  | Decided v ->
      fp h 5;
      fp_vote h v

(* Every process runs proposer + acceptor + learner identically; rank
   enters only through ballot encoding, which [fp_ballot] renames. Retry
   timer ids are attempt-numbered, never pid-numbered. *)
let symmetry ~n ~f:_ = Symmetry.full ~n
