type msg = V of Vote.t | B of Vote.t

type state = {
  votes : Vote.t;  (** running conjunction *)
  received : bool;  (** a [B] message arrived *)
  collection : Pid.t list;  (** voters heard by [Pn], self included *)
  decided : bool;
}

let name = "avnbac-msg"
let uses_consensus = false

let pp_msg ppf = function
  | V v -> Format.fprintf ppf "[V,%d]" (Vote.to_int v)
  | B b -> Format.fprintf ppf "[B,%d]" (Vote.to_int b)

let init env =
  {
    votes = Vote.yes;
    received = false;
    collection = [ env.Proto.self ];
    decided = false;
  }

(* The appendix starts this protocol's timer "at time 1 when the first
   sending event happens": its pseudo-code instant [k] is our absolute
   delay [k - 1]. *)
let timer_at id k = Proto_util.timer_at id (k - 1)

let on_propose env state v =
  let state = { state with votes = Vote.logand state.votes v } in
  let i = Proto_util.rank env in
  let n = env.Proto.n in
  if i <= n - 1 then
    (state, [ Proto_util.send (Pid.of_rank n) (V v); timer_at "decide" 3 ])
  else (state, [ timer_at "collect" 2 ])

let add_once p pids = if List.exists (Pid.equal p) pids then pids else p :: pids

let on_deliver _env state ~src msg =
  match msg with
  | V v ->
      ( {
          state with
          votes = Vote.logand state.votes v;
          collection = add_once src state.collection;
        },
        [] )
  | B b -> ({ state with received = true; votes = b }, [])

let on_timeout env state ~id =
  match id with
  | "collect" ->
      if List.length state.collection = env.Proto.n && not state.decided then
        ( { state with decided = true },
          Proto_util.send_each
            (Pid.others ~n:env.Proto.n env.Proto.self)
            (B state.votes)
          @ [ Proto_util.decide_vote state.votes ] )
      else (state, [])
  | "decide" ->
      if state.received && not state.decided then
        ({ state with decided = true }, [ Proto_util.decide_vote state.votes ])
      else (state, [])
  | other -> failwith ("Av_nbac_msg: unknown timer " ^ other)

let guards = []
let on_guard _env _state ~id = failwith ("Av_nbac_msg: unknown guard " ^ id)
let on_consensus_decide _env state _d = (state, [])

let hash_state =
  let open Proto_util in
  Some
    (fun h s ->
      fp_vote h s.votes;
      fp_bool h s.received;
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
