module type CONFIG = sig
  val variant_name : string
  val fast_abort : bool

  val ack_undershoot : bool
  (** Decide directly with one acknowledgement fewer than Lemma 5's [f]
      (the highest-ranked expected backup is not awaited). Exists to
      demonstrate that the lemma's bound is tight: the variant loses
      agreement under network failures — see [Witness] and the tests. *)

  val naive_backups : bool
  (** Drop the reconstructed [P_{f+1}] role (DESIGN.md note 1): every
      process, including [P_i] with [i <= f], backs its vote up at
      [P1..Pf] only — so the low ranks end up with [f-1] backups besides
      themselves, short of Lemma 1. The tests show this naive reading
      cannot be the paper's: its nice executions use [2fn - 2f] messages
      (missing the 2fn bound) and the low ranks' reached-set falls below
      [f]. *)
end

(* Whether [p] is bound in one of the first [k] sets of [sets]. *)
let rec bound_in_first k p = function
  | (_, c) :: rest when k > 0 -> Vset.mem p c || bound_in_first (k - 1) p rest
  | _ -> false

(* Whether [bindings], those of the [k]-th set of [collection1], hold a
   [no] that is its pid's first binding: neither [collection0] nor the [k]
   sets listed before bind that pid. *)
let rec first_no collection0 collection1 k = function
  | [] -> false
  | (p, v) :: rest ->
      (Vote.equal v Vote.no
      && (not (Vset.mem p collection0))
      && not (bound_in_first k p collection1))
      || first_no collection0 collection1 k rest

let rec acks_conjunction collection0 collection1 k = function
  | [] -> Vote.yes
  | (_, c) :: rest ->
      if first_no collection0 collection1 k (Vset.bindings c) then Vote.no
      else acks_conjunction collection0 collection1 (k + 1) rest

(* [Vset.conjunction (Vset.union collection0 merged)], where [merged]
   folds [collection1]'s sets together with [Vset.union] in list order,
   computed without building either union. Both unions keep a pid's
   first binding, so its vote is [collection0]'s when it has one, else
   that of the first set in [collection1] holding it. *)
let first_binding_conjunction collection0 collection1 =
  if Vote.equal (Vset.conjunction collection0) Vote.no then Vote.no
  else acks_conjunction collection0 collection1 0 collection1

let backups env =
  let f = env.Proto.f in
  let i = Proto_util.rank env in
  if i <= f then
    List.filter
      (fun q -> not (Pid.equal q env.Proto.self))
      (Proto_util.first_ranked (f + 1))
  else Proto_util.first_ranked f

(* Whether [sender]'s [C] acknowledgement in [collection1] binds
   [P1..Pk]. *)
let rec ack_covers sender k = function
  | [] -> false
  | (q, c) :: rest ->
      if Pid.equal q sender then Vset.covers_first k c
      else ack_covers sender k rest

(* The [C] acknowledgements the process of rank [rank] must have received,
   with the vote coverage each must exhibit, for a direct decision at 2U,
   checked in rank order:
   - from every P_j, j <= f, other than itself: all n votes;
   - and, when it has rank <= f, from P_{f+1}: the votes of P1..Pf
     (P_{f+1} backs up exactly those), unless [naive_backups] leaves
     P_{f+1} nothing to acknowledge.
   [ack_undershoot] stops one requirement short: the last (highest
   ranked) is not awaited. *)
let acks_complete ~ack_undershoot ~naive_backups ~n ~f ~rank collection1 =
  let required =
    (if rank <= f then if naive_backups then f - 1 else f else f)
    - if ack_undershoot then 1 else 0
  in
  let rec from j left =
    left <= 0
    || (if j > f then ack_covers (Pid.of_rank (f + 1)) f collection1
        else if j = rank then from (j + 1) left
        else
          ack_covers (Pid.of_rank j) n collection1 && from (j + 1) (left - 1))
  in
  from 1 required

module Make (Cfg : CONFIG) = struct
  type phase = Phase0 | Phase1 | Phase2

  type msg =
    | V of Vote.t  (** a vote shipped to a backup process *)
    | C of Vset.t  (** consolidated acknowledgement of backed-up votes *)
    | Help
    | Helped of Vset.t

  type state = {
    phase : phase;
    vote : Vote.t;
    proposed : bool;
    decided : bool;
    collection0 : Vset.t;  (** votes this process holds as a backup *)
    collection1 : (Pid.t * Vset.t) list;  (** [C] acks, per sender *)
    collection_help : Vset.t;
    wait : bool;
    cnt : int;  (** number of [C] messages received *)
    cnt_help : int;  (** number of [HELPED] messages received *)
    sent_ack : Vset.t option;
        (** the snapshot of [collection0] this backup consolidated into
            its [C] broadcast at time U. A low-rank process may decide
            directly only if {e this snapshot} was complete: its own later
            knowledge is irrelevant to the processes that acted on the
            broadcast (a lesson from the chaos fuzzer — see the test
            suite's regression). *)
    pending_help : Pid.t list;
        (** [HELP] requests that arrived before [phase = 2]; remark (c) of
            the appendix queues them until the condition holds *)
  }

  let name = Cfg.variant_name
  let uses_consensus = true

  let pp_msg ppf = function
    | V v -> Format.fprintf ppf "[V,%d]" (Vote.to_int v)
    | C coll -> Format.fprintf ppf "[C,%a]" Vset.pp coll
    | Help -> Format.pp_print_string ppf "[HELP]"
    | Helped coll -> Format.fprintf ppf "[HELPED,%a]" Vset.pp coll

  let init _env =
    {
      phase = Phase0;
      vote = Vote.yes;
      proposed = false;
      decided = false;
      collection0 = Vset.empty;
      collection1 = [];
      collection_help = Vset.empty;
      wait = false;
      cnt = 0;
      cnt_help = 0;
      sent_ack = None;
      pending_help = [];
    }

  (* Actions that read nothing of a step are built once, here: a step
     allocates only the actions that carry its state. *)
  let note_phase0 = Proto.Note ("phase", "0")
  let note_phase1 = Proto.Note ("phase", "1")
  let note_phase2 = Proto.Note ("phase", "2")

  let timer_phase0 = Proto_util.timer_at "phase0" 1
  let timer_phase1 = Proto_util.timer_at "phase1" 2
  let note_direct = Proto.Note ("decide-path", "direct")
  let note_consensus = Proto.Note ("decide-path", "consensus")

  (* A decided process has no use for its remaining phase alarms; without
     this, a fast-abort decision at time 0 still fires (no-op) timeouts at
     U and 2U and stretches the run's quiescence. *)
  let cancel_phase_timers =
    [ Proto.Cancel_timer "phase0"; Proto.Cancel_timer "phase1" ]

  let fast_abort_decision =
    Proto.Note ("decide-path", "fast-abort")
    :: Proto_util.decide Vote.abort :: cancel_phase_timers

  (* entering a phase: its timer and its note; [start_phase1] also
     follows the [C] acknowledgements of the phase-0 timeout *)
  let start_phase0 = [ timer_phase0; note_phase0 ]
  let start_phase1 = [ timer_phase1; note_phase1 ]
  let start_phase2 = [ note_phase2 ]
  let fast_abort_phase0 = fast_abort_decision @ [ note_phase0 ]
  let fast_abort_phase1 = fast_abort_decision @ [ note_phase1 ]

  let on_propose env state v =
    let i = Proto_util.rank env in
    let f = env.Proto.f in
    let low = i <= f + 1 in
    let fast = Cfg.fast_abort && Vote.equal v Vote.no in
    let state =
      {
        state with
        vote = v;
        collection0 = Vset.singleton env.Proto.self v;
        phase = (if low then state.phase else Phase1);
        decided = state.decided || fast;
      }
    in
    let tail =
      if not fast then if low then start_phase0 else start_phase1
      else
        (if low then timer_phase0 else timer_phase1)
        :: Proto_util.send_ranks ~skip:i ~lo:1 ~hi:env.Proto.n (V Vote.no)
             (if low then fast_abort_phase0 else fast_abort_phase1)
    in
    (* every process backs its vote up at P1..Pf; P_i with i <= f also
       at P_{f+1} (so that it reaches f backups other than itself) *)
    let last = if i <= f && not Cfg.naive_backups then f + 1 else f in
    (state, Proto_util.send_ranks ~skip:0 ~lo:1 ~hi:last (V v) tail)

  let can_decide_directly env state =
    let i = Proto_util.rank env in
    acks_complete ~ack_undershoot:Cfg.ack_undershoot
      ~naive_backups:Cfg.naive_backups ~n:env.Proto.n ~f:env.Proto.f ~rank:i
      state.collection1
    && (i > env.Proto.f
       ||
       (* a low rank is itself a backup: its own consolidated [C] must
          have been complete when it was broadcast, because that is what
          everybody else saw *)
       match state.sent_ack with
       | Some snapshot -> Vset.complete ~n:env.Proto.n snapshot
       | None -> false)

  let merged_collections state =
    List.fold_left (fun acc (_, c) -> Vset.union acc c) Vset.empty
      state.collection1

  (* Merge everything this process has learnt into collection0, as the
     pseudo-code does when entering phase 2. *)
  let enter_phase2 env state =
    let merged = merged_collections state in
    {
      state with
      phase = Phase2;
      collection0 =
        Vset.add env.Proto.self state.vote
          (Vset.union state.collection0 merged);
    }

  let propose_actions state proposal =
    ( { state with proposed = true },
      [ note_consensus; Proto.Propose_consensus proposal ] )

  let direct_decision _env state =
    (* the acknowledgements checked by [can_decide_directly] carry the
       complete vote set; fold them in rather than trusting the local
       collection, which can lag behind (e.g. when the decision fires
       from the help-quorum guard on a late [C]) *)
    let d = first_binding_conjunction state.collection0 state.collection1 in
    ( { state with decided = true },
      note_direct :: Proto_util.decide_vote d :: cancel_phase_timers )

  (* The decision logic shared by the phase-1 timeout and the help-quorum
     guard. Precondition: [state.phase = Phase2], collections merged. *)
  let attempt_decision env state =
    let i = Proto_util.rank env in
    let f = env.Proto.f in
    let n = env.Proto.n in
    if can_decide_directly env state then direct_decision env state
    else if i <= f then begin
      (* P1..Pf never ask for help: they propose to consensus at once *)
      let proposal =
        if Vset.complete ~n state.collection0 then
          Vset.conjunction state.collection0
        else Vote.no
      in
      propose_actions state proposal
    end
    else if state.cnt >= 1 then begin
      let merged = merged_collections state in
      let proposal =
        if Vset.complete ~n merged then Vset.conjunction merged else Vote.no
      in
      propose_actions state proposal
    end
    else begin
      (* no acknowledgement at all: ask {P_{f+1}..Pn} (self included —
         the self-addressed HELP is answered immediately and free) *)
      let state = { state with wait = true } in
      (state, Proto_util.send_ranks ~skip:0 ~lo:(f + 1) ~hi:n Help [])
    end

  let on_timeout env state ~id =
    match id with
    | "phase0" when state.phase = Phase0 ->
        let i = Proto_util.rank env in
        let f = env.Proto.f in
        (* P_i with i <= f acknowledges to every other process, P_{f+1}
           to P1..Pf *)
        let last =
          if i <= f then env.Proto.n
          else if Cfg.naive_backups then 0 (* not a backup of anyone *)
          else f
        in
        let actions =
          if state.decided then start_phase1
            (* fast-abort already settled this process; skip the acks *)
          else
            Proto_util.send_ranks ~skip:i ~lo:1 ~hi:last (C state.collection0)
              start_phase1
        in
        let state =
          { state with phase = Phase1; sent_ack = Some state.collection0 }
        in
        (state, actions)
    | "phase1" when state.phase = Phase1 ->
        let state = enter_phase2 env state in
        if state.decided || state.proposed then (state, start_phase2)
        else begin
          let state, actions = attempt_decision env state in
          (state, note_phase2 :: actions)
        end
    | "phase0" | "phase1" -> (state, [])
    | other -> failwith ("Inbac: unknown timer " ^ other)

  let answer_help state p = Proto_util.send p (Helped state.collection0)

  let rec acked_by p = function
    | [] -> false
    | (q, _) :: rest -> Pid.equal p q || acked_by p rest

  let on_deliver env state ~src msg =
    let i = Proto_util.rank env in
    let f = env.Proto.f in
    match msg with
    | V v ->
        let state =
          if i <= f + 1 then
            { state with collection0 = Vset.add src v state.collection0 }
          else state
        in
        if
          Cfg.fast_abort && Vote.equal v Vote.no && not state.decided
        then ({ state with decided = true }, fast_abort_decision)
        else (state, [])
    | C coll ->
        if acked_by src state.collection1 then (state, [])
        else
          ( {
              state with
              collection1 = (src, coll) :: state.collection1;
              cnt = state.cnt + 1;
            },
            [] )
    | Help ->
        if i <= f then (state, []) (* HELP is only addressed to P_{f+1}..Pn *)
        else if state.phase = Phase2 || state.decided then
          (* a decided process has retired its phase timers and will never
             reach phase 2; it answers with what it holds right away *)
          (state, [ answer_help state src ])
        else ({ state with pending_help = src :: state.pending_help }, [])
    | Helped coll ->
        ( {
            state with
            collection_help = Vset.union state.collection_help coll;
            cnt_help = state.cnt_help + 1;
          },
          [] )

  let guards =
    [
      ( "answer-pending-help",
        fun _env state ->
          (state.phase = Phase2 || state.decided)
          && match state.pending_help with [] -> false | _ :: _ -> true );
      ( "help-quorum",
        fun env state ->
          Proto_util.rank env >= env.Proto.f + 1
          && state.wait && (not state.proposed) && (not state.decided)
          && state.cnt + state.cnt_help >= env.Proto.n - env.Proto.f );
    ]

  let on_guard env state ~id =
    match id with
    | "answer-pending-help" ->
        let replies = List.rev_map (answer_help state) state.pending_help in
        ({ state with pending_help = [] }, replies)
    | "help-quorum" ->
        let state = { state with wait = false } in
        if can_decide_directly env state then direct_decision env state
        else if state.cnt >= 1 then begin
          let merged = merged_collections state in
          let proposal =
            if Vset.complete ~n:env.Proto.n merged then
              Vset.conjunction merged
            else Vote.no
          in
          propose_actions state proposal
        end
        else begin
          let proposal =
            if Vset.complete ~n:env.Proto.n state.collection_help then
              Vset.conjunction state.collection_help
            else Vote.no
          in
          propose_actions state proposal
        end
    | other -> failwith ("Inbac: unknown guard " ^ other)

  let on_consensus_decide _env state d =
    if state.decided then (state, [])
    else
      ( { state with decided = true },
        Proto_util.decide_vote d :: cancel_phase_timers )

  let hash_state h s =
    let open Proto_util in
    fp_int h (match s.phase with Phase0 -> 0 | Phase1 -> 1 | Phase2 -> 2);
    fp_vote h s.vote;
    fp_bool h s.proposed;
    fp_bool h s.decided;
    fp_vset h s.collection0;
    fp_assoc_vsets h s.collection1;
    fp_vset h s.collection_help;
    fp_bool h s.wait;
    fp_int h s.cnt;
    fp_int h s.cnt_help;
    fp_opt fp_vset h s.sent_ack;
    fp_pids h s.pending_help

  let hash_msg h m =
    let open Proto_util in
    match m with
    | V v ->
        fp_int h 0;
        fp_vote h v
    | C coll ->
        fp_int h 1;
        fp_vset h coll
    | Help -> fp_int h 2
    | Helped coll ->
        fp_int h 3;
        fp_vset h coll

  (* [P1..Pf] are the backups and [P_{f+2}..Pn] plain participants;
     [P_{f+1}] plays a reconstructed partial-backup role of its own. The
     undershoot witness stops awaiting [P_f]'s acknowledgement, which
     singles [P_f] out of the backup class (and, combined with naive
     backups, the dropped requirement varies per rank, so no two backups
     stay interchangeable). *)
  let symmetry ~n ~f =
    let low =
      if Cfg.ack_undershoot && Cfg.naive_backups then 0
      else if Cfg.ack_undershoot then f - 1
      else f
    in
    Symmetry.of_classes ~n
      [
        List.init (max 0 (min low n)) (fun i -> i);
        List.init (max 0 (n - f - 1)) (fun i -> i + f + 1);
      ]
end

include Make (struct
  let variant_name = "inbac"
  let fast_abort = false
  let ack_undershoot = false
  let naive_backups = false
end)
