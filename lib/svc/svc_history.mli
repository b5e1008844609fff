(** What a commit-service run counts and checks. The instance lifecycle
    ({!Commit_service}) and admission ({!Svc_admission}) report each event
    here as it happens; this module keeps every counter of {!stats}, the
    three histograms, the agreement and atomicity checks, [observe] and
    the progress line.

    {b Histograms.} Below {!streaming_txns} issued transactions the
    latency, time-parked and queue-depth histograms keep every sample
    (exact percentiles). From there up they are fixed-bin streaming ones
    ({!Histogram.streaming}), so memory stays constant over a
    million-transaction run: latency in 4096 bins over 512 delays (1/8 of
    a delay wide; a later sample lands in the overflow bin, which reports
    the exact maximum), time parked in 4096 over 8192 delays, queue depth
    in 4096 over [max 16 clients].

    {b Atomicity.} For every transaction, each write-owner shard must
    either have installed or discarded the writes (decision reached and
    that shard resolved) or still hold them staged (outcome unknown, or
    the shard was down at the decision) — never both, never neither. The
    lifecycle applies this one rule ({!check_staged}) to each instance as
    it retires and to every instance still live at the end of the run. *)

type stats = {
  protocol : string;
  transactions : int;  (** issued *)
  committed : int;
  aborted : int;  (** aborted by a protocol instance's decision *)
  local_aborts : int;
      (** aborted without an instance ({!Svc_admission}): the wait budget
          ran out, the holder had already decided, or a read went stale
          by launch *)
  stale_aborts : int;  (** the part of [local_aborts] stale at launch *)
  requeued : int;
      (** batch members sent back to a holder's queue at launch, each
          time one is *)
  queued : int;  (** transactions that waited on a holder at least once *)
  parked : int;  (** still unresolved at end of run (includes waiters) *)
  instances : int;  (** commit instances launched (first attempts) *)
  retries : int;  (** parked instances re-run after a recovery *)
  elections : int;  (** parked instances re-driven by a stand-in *)
  stolen : int;
      (** decisions reached by an elected stand-in (<= elections: a
          concurrent recovery retry can beat it to the decision) *)
  mean_batch : float;  (** transactions per instance *)
  peak_in_flight : int;  (** max concurrent instances observed *)
  total_messages : int;  (** network messages across all instances *)
  staged_left : int;
      (** write-ahead entries still staged on {e live} shards at end (a
          down shard's staging awaits adoption; it is not a leak) *)
  makespan_delays : float;  (** simulated end of run, units of U *)
  latency : Histogram.summary;
      (** commit latency, submit (queue wait included) to last shard
          decision, units of U *)
  time_parked : Histogram.summary;
      (** park to decision, for instances that parked, units of U *)
  queue_depth : Histogram.summary;
      (** total waiting transactions, sampled at each enqueue *)
  zipf_s : float;  (** the exponent drawn from (negative clamps to 0) *)
  goodput : float;  (** committed / issued *)
  wall_seconds : float;
  commits_per_sec : float;  (** committed txns per wall-clock second *)
  minor_words_per_txn : float;
      (** minor-heap words allocated per issued transaction over the whole
          run, start-up included *)
  atomicity_ok : bool;
  agreement_ok : bool;
}

val streaming_txns : int
(** 16384 *)

type t

val create :
  ?observe:(string -> Vote.decision -> unit) ->
  txns:int -> clients:int -> flush_every:int -> unit -> t
(** Starts the wall clock and the allocation gauge. [observe] is called
    once per decided transaction with its id (["t<seq>"]) and decision,
    in decision order — the hook the differential tests use to compare
    per-transaction outcomes across configurations. [flush_every > 0]
    prints a progress line to stderr every that-many issued
    transactions. *)

(** {2 Events}

    [issue], [sent] and [launched] return the sequence number of the new
    transaction, message (to another shard) and instance. An instance is
    [driven] at launch and at every re-drive, and [quiesced] once no event
    of it is left in flight; {!in_flight} counts the difference. A
    transaction [waited] on a holder ([first] on its first wait,
    [at_launch] when its batch was launching) and is [woken] to be
    re-admitted. *)

val issue : t -> Sim_time.t -> int
val sent : t -> int
val launched : t -> members:int -> int
val driven : t -> unit
val quiesced : t -> unit
val retried : t -> unit
val elected : t -> unit
val aborted_locally : t -> stale:bool -> unit
val waited : t -> first:bool -> at_launch:bool -> unit
val woken : t -> unit
val issued : t -> int
val in_flight : t -> int

val decided :
  t -> now:Sim_time.t -> elected:bool -> parked_at:Sim_time.t option ->
  (Sim_time.t * Vote.decision) option array -> Sim_time.t -> Vote.decision ->
  Sim_time.t
(** [decided t ~now ~elected ~parked_at ds t0 d0]: an instance quiesced at
    [now] with per-shard decisions [ds], the first of which is [d0] at
    [t0]. Clears the agreement flag if some shard decided otherwise, and
    returns the instant the last shard decided. *)

val finished :
  t -> Vote.decision -> decided_at:Sim_time.t -> txn:int ->
  submitted:Sim_time.t -> unit
(** A member of a decided instance: counted, its latency recorded on
    commit, and [observe] called. *)

val check_staged :
  t -> Keyspace.t -> decided:bool -> resolved:bool array -> txn:int ->
  int array -> unit
(** [check_staged t ks ~decided ~resolved ~txn shards] clears the
    atomicity flag unless each owner shard in [shards] stages [txn]
    exactly when [not decided || not resolved.(shard)]. *)

val stats :
  t -> protocol:string -> zipf_s:float -> staged_left:int ->
  makespan:Sim_time.t -> stats

val pp_stats : Format.formatter -> stats -> unit

val arm_json_body : stats -> string
(** The deterministic slice of a run's stats as a JSON object body (no
    enclosing braces, no wall-clock or GC fields): simulated-clock
    counters and delay summaries only, so two runs of the same spec
    produce the same bytes regardless of [Batch.run ~jobs] or machine
    load. *)
