type msg =
  | Prepared of Vote.t
  | Report of Vset.t  (** acceptor bundle, broadcast to everyone *)
  | Query
  | Report2 of Vset.t

type state = {
  vote : Vote.t;
  decided : bool;
  proposed : bool;
  acceptor_coll : Vset.t;
  reports : (Pid.t * Vset.t) list;
  replies : (Pid.t * Vset.t) list;
}

let name = "faster-paxos-commit"
let uses_consensus = true

let pp_msg ppf = function
  | Prepared v -> Format.fprintf ppf "[PREPARED,%d]" (Vote.to_int v)
  | Report coll -> Format.fprintf ppf "[REPORT,%a]" Vset.pp coll
  | Query -> Format.pp_print_string ppf "[QUERY]"
  | Report2 coll -> Format.fprintf ppf "[REPORT2,%a]" Vset.pp coll

let init _env =
  {
    vote = Vote.yes;
    decided = false;
    proposed = false;
    acceptor_coll = Vset.empty;
    reports = [];
    replies = [];
  }

let acceptors env = Proto_util.first_ranked (env.Proto.f + 1)
let is_acceptor env = Proto_util.rank env <= env.Proto.f + 1

let settle state d =
  if state.decided then (state, [])
  else ({ state with decided = true }, [ Proto_util.decide d ])

let bundle_commits ~n coll =
  Vset.complete ~n coll && Vote.equal (Vset.conjunction coll) Vote.yes

let bundle_has_no coll =
  List.exists (fun (_, v) -> Vote.equal v Vote.no) (Vset.bindings coll)

let on_propose env state v =
  let state = { state with vote = v } in
  ( state,
    Proto_util.send_each (acceptors env) (Prepared v)
    @ (if is_acceptor env then [ Proto_util.timer_at "broadcast" 1 ] else [])
    @ [ Proto_util.timer_at "decide" 2 ] )

let propose_once state v =
  if state.proposed then (state, [])
  else ({ state with proposed = true }, [ Proto.Propose_consensus v ])

let on_deliver _env state ~src msg =
  match msg with
  | Prepared v ->
      ({ state with acceptor_coll = Vset.add src v state.acceptor_coll }, [])
  | Report coll ->
      if List.mem_assoc src state.reports then (state, [])
      else ({ state with reports = (src, coll) :: state.reports }, [])
  | Query -> (state, [ Proto_util.send src (Report2 state.acceptor_coll) ])
  | Report2 coll ->
      if List.mem_assoc src state.replies then (state, [])
      else ({ state with replies = (src, coll) :: state.replies }, [])

let on_timeout env state ~id =
  let n = env.Proto.n in
  match id with
  | "broadcast" ->
      (state, Proto_util.send_each (Pid.all ~n) (Report state.acceptor_coll))
  | "decide" ->
      if state.decided then (state, [])
      else begin
        let bundles = List.map snd state.reports in
        if
          List.length state.reports = env.Proto.f + 1
          && List.for_all (bundle_commits ~n) bundles
        then settle state Vote.commit
        else if List.exists bundle_has_no bundles then settle state Vote.abort
        else
          ( state,
            Proto_util.send_each (acceptors env) Query
            @ [ Proto_util.timer_at "candidate" 4 ] )
      end
  | "candidate" ->
      if state.decided || state.proposed then (state, [])
      else begin
        let bundles = List.map snd state.replies in
        let candidate =
          if bundles <> [] && List.for_all (bundle_commits ~n) bundles then
            Vote.yes
          else Vote.no
        in
        propose_once state candidate
      end
  | other -> failwith ("Faster_paxos_commit: unknown timer " ^ other)

let guards = []

let on_guard _env _state ~id =
  failwith ("Faster_paxos_commit: unknown guard " ^ id)

let on_consensus_decide _env state d =
  if state.decided then (state, [])
  else ({ state with decided = true }, [ Proto_util.decide_vote d ])

let hash_state h s =
  let open Proto_util in
  fp_vote h s.vote;
  fp_bool h s.decided;
  fp_bool h s.proposed;
  fp_vset h s.acceptor_coll;
  fp_assoc_vsets h s.reports;
  fp_assoc_vsets h s.replies

let hash_msg h m =
  let open Proto_util in
  match m with
  | Prepared v ->
      fp_int h 0;
      fp_vote h v
  | Report coll ->
      fp_int h 1;
      fp_vset h coll
  | Query -> fp_int h 2
  | Report2 coll ->
      fp_int h 3;
      fp_vset h coll

(* Leaderless: the [f+1] acceptors are interchangeable among themselves,
   as are the remaining resource managers. *)
let symmetry ~n ~f =
  Symmetry.of_classes ~n
    [
      List.init (min (f + 1) n) (fun i -> i);
      List.init (max 0 (n - f - 1)) (fun i -> i + f + 1);
    ]
