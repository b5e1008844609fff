(** Small helpers shared by all protocol modules. *)

let send q m = Proto.Send (q, m)

(* plain recursions, not [List.map]: a partial application would
   allocate a closure per call *)
let rec send_each pids m =
  match pids with [] -> [] | q :: rest -> Proto.Send (q, m) :: send_each rest m

let rec send_ranks ~skip ~lo ~hi m tail =
  if lo > hi then tail
  else if lo = skip then send_ranks ~skip ~lo:(lo + 1) ~hi m tail
  else Proto.Send (Pid.of_rank lo, m) :: send_ranks ~skip ~lo:(lo + 1) ~hi m tail

let broadcast_others env m =
  send_ranks ~skip:(Pid.rank env.Proto.self) ~lo:1 ~hi:env.Proto.n m []

let timer_at id k = Proto.Set_timer { id; fire = Proto.At_delay k }

(* the two decisions are shared constants, not a block per decision *)
let decide_commit = Proto.Decide Vote.Commit
let decide_abort = Proto.Decide Vote.Abort
let decide = function Vote.Commit -> decide_commit | Vote.Abort -> decide_abort
let decide_vote v = decide (Vote.decision_of_vote v)
let rank env = Pid.rank env.Proto.self

(** [P1; ...; Pk] — the paper's frequent "forall q in {P1..Pf}" sets. *)
let first_ranked k = List.init k (fun i -> Pid.of_rank (i + 1))

(* ---- fingerprint plumbing (hash_state canonicalizers) --------------

   Every pid-valued datum goes through [Fingerprint.add_pid] so the
   model checker's symmetry canonicalization (which installs a renaming
   on the accumulator) covers it; with no renaming active [add_pid] is
   [add_int], so these helpers feed the historical word sequence
   byte-for-byte.

   Collections keyed by pid whose order is not semantically meaningful
   go through [Fingerprint.add_pid_set]/[add_pid_assoc], which feed them
   in renamed-key order when a renaming is active: feeding them in stored
   order would make two permuted states feed different sequences and the
   orbit would not collapse. With no renaming the stored order is kept,
   again for byte-stability. *)

let fp_int = Fingerprint.add_int
let fp_bool = Fingerprint.add_bool
let fp_vote h v = Fingerprint.add_int h (Vote.to_int v)
let fp_pid h p = Fingerprint.add_pid h (Pid.index p)

let fp_opt f h = function
  | None -> Fingerprint.add_int h 0
  | Some x ->
      Fingerprint.add_int h 1;
      f h x

(* a loop, not [List.iter (f h)]: the partial application would
   allocate a closure per call *)
let rec fp_each f h = function
  | [] -> ()
  | x :: rest ->
      f h x;
      fp_each f h rest

let fp_list f h l =
  Fingerprint.add_int h (List.length l);
  fp_each f h l

let fp_pids h l = fp_list fp_pid h l

let fp_vset h s = Fingerprint.add_pid_assoc h fp_vote (Vset.bindings s)
let fp_assoc_vsets h l = Fingerprint.add_pid_assoc h fp_vset l

(* ---- message canonicalizers (hash_msg) ----------------------------- *)

let fp_decision h d =
  Fingerprint.add_int h
    (match d with Vote.Commit -> 1 | Vote.Abort -> 2)
