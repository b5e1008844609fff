(** Small helpers shared by all protocol modules: action constructors and
    the paper's recurring process sets. *)

val send : Pid.t -> 'msg -> 'msg Proto.action
val send_each : Pid.t list -> 'msg -> 'msg Proto.action list

val send_ranks :
  skip:int -> lo:int -> hi:int -> 'msg -> 'msg Proto.action list ->
  'msg Proto.action list
(** [send_ranks ~skip ~lo ~hi m tail] sends [m] to [P_lo..P_hi] in rank
    order, leaving out rank [skip], consed onto [tail]: one loop over
    ranks, with no pid list built. *)

val broadcast_others : Proto.env -> 'msg -> 'msg Proto.action list

val timer_at : string -> int -> 'msg Proto.action
(** [timer_at id k] fires at the absolute instant [k * U] (the
    pseudo-code's "set timer to time k"). *)

val decide : Vote.decision -> 'msg Proto.action
val decide_vote : Vote.t -> 'msg Proto.action
val rank : Proto.env -> int
(** 1-based rank of the calling process. *)

val first_ranked : int -> Pid.t list
(** [[P1; ...; Pk]] — the paper's "forall q in {P1..Pf}" sets. *)

(** {1 Fingerprint plumbing}

    Building blocks for the protocols' {!Proto.PROTOCOL.hash_state} and
    {!Proto.PROTOCOL.hash_msg} canonicalizers. Every variable-length
    value is framed with its length ([fp_list]) so adjacent fields
    cannot alias.

    Pid-valued data goes through {!Fingerprint.add_pid}. Pid-keyed
    collections with path-dependent order go through
    {!Fingerprint.add_pid_set} and {!Fingerprint.add_pid_assoc} (as
    {!fp_vset} and {!fp_assoc_vsets} do), which feed them in renamed-pid
    order whenever the model checker's symmetry canonicalization has
    installed a renaming on the accumulator. With no renaming active every
    helper feeds the historical word sequence unchanged. *)

val fp_int : Fingerprint.t -> int -> unit
val fp_bool : Fingerprint.t -> bool -> unit
val fp_vote : Fingerprint.t -> Vote.t -> unit
val fp_pid : Fingerprint.t -> Pid.t -> unit
val fp_decision : Fingerprint.t -> Vote.decision -> unit

val fp_opt :
  (Fingerprint.t -> 'a -> unit) -> Fingerprint.t -> 'a option -> unit

val fp_list :
  (Fingerprint.t -> 'a -> unit) -> Fingerprint.t -> 'a list -> unit

val fp_pids : Fingerprint.t -> Pid.t list -> unit
(** Order-preserving (for lists whose order is semantically meaningful). *)

val fp_vset : Fingerprint.t -> Vset.t -> unit

val fp_assoc_vsets : Fingerprint.t -> (Pid.t * Vset.t) list -> unit
