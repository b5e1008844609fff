type msg = V of Vote.t | B of Vote.t

type state = {
  votes : Vote.t;
  received_b : bool;
  relayed : bool;
  phase : int;
  collection : Pid.t list;  (** voters heard by [Pn], self included *)
  decided : bool;
}

let name = "(2n-2)nbac"
let uses_consensus = false

let pp_msg ppf = function
  | V v -> Format.fprintf ppf "[V,%d]" (Vote.to_int v)
  | B b -> Format.fprintf ppf "[B,%d]" (Vote.to_int b)

let init env =
  {
    votes = Vote.yes;
    received_b = false;
    relayed = false;
    phase = 0;
    collection = [ env.Proto.self ];
    decided = false;
  }

(* Appendix convention: pseudo-code instant [k] is absolute delay [k-1]. *)
let timer_at id k = Proto_util.timer_at id (k - 1)
let add_once p pids = if List.exists (Pid.equal p) pids then pids else p :: pids

let on_propose env state v =
  let i = Proto_util.rank env in
  let n = env.Proto.n in
  let state = { state with votes = Vote.logand state.votes v } in
  if i <= n - 1 then
    (state, [ Proto_util.send (Pid.of_rank n) (V v); timer_at "t" 3 ])
  else (state, [ timer_at "t" 2 ])

let relay_zero env state =
  if state.relayed then (state, [])
  else
    ( { state with relayed = true; votes = Vote.no },
      Proto_util.broadcast_others env (B Vote.no) )

let on_deliver env state ~src msg =
  match msg with
  | V v ->
      ( {
          state with
          votes = Vote.logand state.votes v;
          collection = add_once src state.collection;
        },
        [] )
  | B b -> (
      let state = { state with received_b = true } in
      match b with
      | Vote.Yes -> ({ state with votes = Vote.logand state.votes b }, [])
      | Vote.No -> relay_zero env state)

let on_timeout env state ~id =
  match id with
  | "t" when state.phase = 0 ->
      let i = Proto_util.rank env in
      let n = env.Proto.n in
      let f = env.Proto.f in
      let state = { state with phase = 1 } in
      let state, sends =
        if i = n then
          if
            Vote.equal state.votes Vote.yes
            && List.length state.collection = n
          then (state, Proto_util.broadcast_others env (B Vote.yes))
          else relay_zero env state
        else if not state.received_b then relay_zero env state
        else (state, [])
      in
      (state, sends @ [ timer_at "t" (3 + f) ])
  | "t" when state.phase = 1 ->
      if state.decided then (state, [])
      else
        ({ state with decided = true }, [ Proto_util.decide_vote state.votes ])
  | "t" -> (state, [])
  | other -> failwith ("Star_nbac: unknown timer " ^ other)

let guards = []
let on_guard _env _state ~id = failwith ("Star_nbac: unknown guard " ^ id)
let on_consensus_decide _env state _d = (state, [])

let hash_state =
  let open Proto_util in
  Some
    (fun h s ->
      fp_vote h s.votes;
      fp_bool h s.received_b;
      fp_bool h s.relayed;
      fp_int h s.phase;
      Fingerprint.add_pid_set h s.collection;
      fp_bool h s.decided)

let hash_msg =
  let open Proto_util in
  Some
    (fun h m ->
      match m with
      | V v ->
          fp_int h 0;
          fp_vote h v
      | B b ->
          fp_int h 1;
          fp_vote h b)

(* [Pn] is the hub; the spokes run identical code. *)
let symmetry ~n ~f:_ = Symmetry.rank_range ~n ~lo:1 ~hi:(n - 1)
