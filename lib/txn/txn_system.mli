(** A miniature distributed transactional database built on the commit
    protocols — the system the paper's introduction motivates.

    [n] database nodes each own a partition of the keyspace (the
    {!placement} function) and a versioned {!Kv_store}. A transaction is
    processed as follows:

    + every node owning one of the transaction's write keys {e stages}
      the writes (the write-ahead step);
    + every node computes its vote: yes iff each of the transaction's
      reads on that node still has the version the transaction observed
      (optimistic validation — the Helios-style "vote abort on conflict");
    + the configured atomic commit protocol runs in the simulator, under
      any crash schedule or network model injected for this round;
    + each node applies or discards its staged writes according to its
      own decision; a node that crashed mid-protocol recovers afterwards
      by adopting any decision some process reached (its staged writes
      make this safe). If {e nobody} decided — 2PC with a dead
      coordinator — the transaction stays [`Blocked] and its writes stay
      staged, which is precisely the blocking the paper contrasts INBAC
      against.

    The module checks atomicity after every round: either every owner of
    a write key installed the transaction's writes, or none did. *)

type t

type decision = Committed | Aborted | Blocked

type outcome = {
  txn : Txn.t;
  decision : decision;
  votes : (Pid.t * Vote.t) list;
  report : Report.t;  (** the underlying protocol execution *)
  recovered : Pid.t list;  (** crashed nodes that adopted the decision *)
  atomic : bool;  (** the per-round atomicity check *)
}

val create :
  ?consensus:Registry.consensus_impl ->
  ?seed:int ->
  n:int ->
  f:int ->
  protocol:string ->
  unit ->
  t
(** Keys are placed by a deterministic hash unless overridden per call.
    @raise Not_found on an unknown protocol name. *)

val placement : t -> string -> Pid.t
(** The node owning a key. *)

val placement_key : n:int -> string -> Pid.t
(** The placement function itself (deterministic FNV-1a hash mod [n]),
    usable without a [t] — the multi-shot commit service shards by the
    same function so both layers agree on key ownership. *)

val placement_index : n:int -> int -> Pid.t
(** [placement_index ~n i] is [placement_key ~n ("k" ^ string_of_int i)],
    hashed digit by digit without building the name — how the service's
    {!Keyspace} places key [i].
    @raise Invalid_argument when [i < 0]. *)

val size : t -> int
(** The number of database nodes [n]. *)

val node_store : t -> Pid.t -> Kv_store.t
(** Direct read access to a node's store (for inspection and tests). *)

val read : t -> key:string -> (Kv_store.value * int) option
(** Read through the placement: current value and version of [key]. *)

val snapshot_reads : t -> string list -> (string * int) list
(** Capture the current versions of the given keys — what a transaction's
    execution phase would have observed. *)

val submit :
  ?crashes:(Pid.t * Scenario.crash) list ->
  ?network:Network.t ->
  t ->
  Txn.t ->
  outcome
(** Run one commit round for the transaction. *)

val submit_batch :
  ?crashes:(Pid.t * Scenario.crash) list ->
  ?network:Network.t ->
  t ->
  Txn.t list ->
  outcome list
(** Validate every transaction against the {e same} snapshot (as if they
    executed concurrently), then run their commit rounds in order: the
    later conflicting ones abort through stale-version votes. [?crashes]
    and [?network] apply to every round of the batch. *)

val recover_blocked :
  ?network:Network.t -> t -> txn_id:string -> outcome option
(** Resolve a transaction whose latest outcome is [Blocked] (2PC with a
    dead coordinator): re-run the commit decision with the votes recorded
    when the transaction first ran, this time crash-free — the
    coordinator is back. On a decision, every node applies or discards
    its staged writes ([recovered] lists the nodes whose staging
    drained), and the resolving outcome is appended to {!history}. [None]
    when no transaction with this id is blocked. *)

val history : t -> outcome list
(** All outcomes, oldest first. *)

val pp_outcome : Format.formatter -> outcome -> unit
