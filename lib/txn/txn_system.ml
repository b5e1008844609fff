type decision = Committed | Aborted | Blocked

type outcome = {
  txn : Txn.t;
  decision : decision;
  votes : (Pid.t * Vote.t) list;
  report : Report.t;
  recovered : Pid.t list;
  atomic : bool;
}

type t = {
  n : int;
  f : int;
  runner : Registry.t;
  consensus : Registry.consensus_impl;
  seed : int;
  nodes : Kv_store.t array;
  mutable round : int;
  mutable rev_history : outcome list;
}

(* FNV-1a over the key: deterministic, placement-stable across runs. *)
let fnv_step h byte = (h lxor byte) * 0x01000193 land 0x3FFFFFFF

let hash_key key =
  String.fold_left (fun h c -> fnv_step h (Char.code c)) 0x811c9dc5 key

(* the largest power of ten not above [i] (1 below 10) *)
let rec top_power i p = if p > i / 10 then p else top_power i (p * 10)

(* [h] fed the decimal digits of [i] from the one worth [p] down *)
let rec feed_digits i h p =
  if p = 0 then h
  else feed_digits i (fnv_step h (Char.code '0' + (i / p mod 10))) (p / 10)

(* [hash_key ("k" ^ string_of_int i)], fed one decimal digit at a time
   from the most significant, without building the string; the helpers
   are top-level, so a first placement builds no closure *)
let hash_index i =
  feed_digits i (fnv_step 0x811c9dc5 (Char.code 'k')) (top_power i 1)

let create ?(consensus = Registry.Paxos) ?(seed = 42) ~n ~f ~protocol () =
  {
    n;
    f;
    runner = Registry.find_exn protocol;
    consensus;
    seed;
    nodes = Array.init n (fun _ -> Kv_store.create ());
    round = 0;
    rev_history = [];
  }

let placement_key ~n key = Pid.of_index (hash_key key mod n)

let placement_index ~n i =
  if i < 0 then invalid_arg "Txn_system.placement_index: negative index";
  Pid.of_index (hash_index i mod n)

let placement t key = placement_key ~n:t.n key
let size t = t.n
let node_store t pid = t.nodes.(Pid.index pid)

let read t ~key =
  Kv_store.get (node_store t (placement t key)) ~key

let snapshot_reads t keys =
  List.map
    (fun key ->
      (key, Kv_store.version (node_store t (placement t key)) ~key))
    keys

(* The local legs of a transaction at one node. *)
let local_reads t pid (txn : Txn.t) =
  List.filter (fun (key, _) -> Pid.equal (placement t key) pid) txn.Txn.reads

let local_writes t pid (txn : Txn.t) =
  List.filter (fun (key, _) -> Pid.equal (placement t key) pid) txn.Txn.writes

(* Optimistic validation: every read leg must still be at the version the
   transaction observed. *)
let local_vote t pid txn =
  let store = node_store t pid in
  Vote.of_bool
    (List.for_all
       (fun (key, expected) -> Kv_store.version store ~key = expected)
       (local_reads t pid txn))

let check_atomicity t (txn : Txn.t) decision =
  let owners =
    List.sort_uniq Pid.compare
      (List.map (fun (key, _) -> placement t key) txn.Txn.writes)
  in
  let applied pid =
    List.for_all
      (fun (key, value) ->
        match Kv_store.get (node_store t pid) ~key with
        | Some (v, _) -> String.equal v value
        | None -> false)
      (local_writes t pid txn)
  in
  let still_staged pid =
    Kv_store.staged (node_store t pid) ~txn_id:txn.Txn.id <> None
  in
  match decision with
  | Committed -> List.for_all applied owners
  | Aborted -> List.for_all (fun pid -> not (still_staged pid)) owners
  | Blocked ->
      (* nothing installed; the staged writes must still be recoverable *)
      List.for_all still_staged owners

let submit ?(crashes = []) ?network t txn =
  t.round <- t.round + 1;
  (* write-ahead: stage before voting *)
  List.iter
    (fun pid ->
      let writes = local_writes t pid txn in
      if writes <> [] then
        Kv_store.stage (node_store t pid) ~txn_id:txn.Txn.id ~writes)
    (Pid.all ~n:t.n);
  let votes_list =
    List.map (fun pid -> (pid, local_vote t pid txn)) (Pid.all ~n:t.n)
  in
  let votes = Array.of_list (List.map snd votes_list) in
  let scenario =
    Scenario.make ~n:t.n ~f:t.f ~votes ~crashes ?network
      ~seed:(t.seed + t.round) ()
  in
  let report = t.runner.Registry.run ~consensus:t.consensus scenario in
  let decision =
    match Report.decided_values report with
    | [] -> Blocked
    | Vote.Commit :: _ -> Committed
    | Vote.Abort :: _ -> Aborted
  in
  (* each node honours its own decision; a node that crashed undecided
     recovers by adopting the outcome somebody reached *)
  let recovered = ref [] in
  List.iter
    (fun pid ->
      let store = node_store t pid in
      let finish = function
        | Vote.Commit -> ignore (Kv_store.apply store ~txn_id:txn.Txn.id)
        | Vote.Abort -> Kv_store.discard store ~txn_id:txn.Txn.id
      in
      match (Report.decision_of report pid, decision) with
      | Some (_, d), _ -> finish d
      | None, Committed ->
          recovered := pid :: !recovered;
          finish Vote.Commit
      | None, Aborted ->
          recovered := pid :: !recovered;
          finish Vote.Abort
      | None, Blocked -> () (* stays staged; nobody knows the outcome *))
    (Pid.all ~n:t.n);
  let outcome =
    {
      txn;
      decision;
      votes = votes_list;
      report;
      recovered = List.rev !recovered;
      atomic = check_atomicity t txn decision;
    }
  in
  t.rev_history <- outcome :: t.rev_history;
  outcome

let submit_batch ?crashes ?network t txns =
  (* all transactions validated against one snapshot: refresh their read
     versions to "now", then run the rounds in order — stale reads of the
     later conflicting ones produce abort votes *)
  let snapshots =
    List.map
      (fun (txn : Txn.t) ->
        { txn with Txn.reads = snapshot_reads t (List.map fst txn.Txn.reads) })
      txns
  in
  List.map (fun txn -> submit ?crashes ?network t txn) snapshots

let recover_blocked ?network t ~txn_id =
  (* the latest outcome for this id is the authoritative one: a resolved
     (re-submitted or already-recovered) transaction must not be re-run *)
  let latest =
    List.find_opt (fun o -> String.equal o.txn.Txn.id txn_id) t.rev_history
  in
  match latest with
  | Some ({ decision = Blocked; _ } as o) ->
      t.round <- t.round + 1;
      (* re-run the commit decision with the votes recorded when the
         transaction first ran — the coordinator is back and no crash is
         injected, so the protocol reaches a decision from those votes *)
      let votes = Array.of_list (List.map snd o.votes) in
      let scenario =
        Scenario.make ~n:t.n ~f:t.f ~votes ?network ~seed:(t.seed + t.round)
          ()
      in
      let report = t.runner.Registry.run ~consensus:t.consensus scenario in
      let decision =
        match Report.decided_values report with
        | [] -> Blocked
        | Vote.Commit :: _ -> Committed
        | Vote.Abort :: _ -> Aborted
      in
      let recovered = ref [] in
      (match decision with
      | Blocked -> () (* still undecided; the staged writes stay parked *)
      | _ ->
          List.iter
            (fun pid ->
              let store = node_store t pid in
              if Kv_store.staged store ~txn_id <> None then
                recovered := pid :: !recovered;
              match decision with
              | Committed -> ignore (Kv_store.apply store ~txn_id)
              | Aborted -> Kv_store.discard store ~txn_id
              | Blocked -> ())
            (Pid.all ~n:t.n));
      let outcome =
        {
          txn = o.txn;
          decision;
          votes = o.votes;
          report;
          recovered = List.rev !recovered;
          atomic = check_atomicity t o.txn decision;
        }
      in
      t.rev_history <- outcome :: t.rev_history;
      Some outcome
  | Some _ | None -> None

let history t = List.rev t.rev_history

let pp_decision ppf = function
  | Committed -> Format.pp_print_string ppf "committed"
  | Aborted -> Format.pp_print_string ppf "aborted"
  | Blocked -> Format.pp_print_string ppf "BLOCKED"

let pp_outcome ppf o =
  Format.fprintf ppf "@[<v2>%a -> %a%s@,votes: %s@]" Txn.pp o.txn pp_decision
    o.decision
    (if o.atomic then "" else "  ATOMICITY VIOLATED")
    (String.concat ", "
       (List.map
          (fun (pid, v) ->
            Printf.sprintf "%s:%d" (Pid.to_string pid) (Vote.to_int v))
          o.votes))
