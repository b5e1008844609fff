(** The multi-shot commit service: a long-lived engine committing a
    {e stream} of transactions over the sharded KV, in the spirit of
    Chockler & Gotsman's multi-shot transaction commit.

    Where {!Txn_system.submit} runs one protocol instance to completion
    before the next begins, this service drives {e many concurrent commit
    instances through a single simulator run}: every instance is a
    {!Machine} automaton of the selected protocol (INBAC / Paxos Commit /
    2PC / any {!Registry} entry), and all instances' proposals,
    deliveries and timeouts multiplex over one instance-tagged event
    queue ({!Mux}), one network model and one simulated clock.

    The workload is closed-loop: [clients] simulated clients each submit
    a transaction, wait for its decision, think, and submit the next.
    Transactions route to the shards owning their keys (the
    {!Txn_system.placement_key} hash of each key's name, computed from
    its index). The data plane is index-addressed ({!Keyspace}): a
    transaction is its sequence number, its key indices and the versions
    it read; a key's version lives in one dense array; writes stage in
    each owner shard's int-keyed write-ahead table at instance start and
    are applied or discarded when the instance decides. No key name is
    built and nothing proportional to the keyspace is computed before a
    key is drawn.

    - {b Batching}: co-resident transactions share one commit instance
      when their write sets land on the same owner set and their key sets
      don't conflict; a batch launches when it reaches [max_batch] or its
      [batch_window] expires.
    - {b Pipelining}: up to [pipeline_depth] instances run concurrently —
      a shard participates in instance [k+1] while [k] is still deciding.
      Ready batches beyond the cap queue and launch as instances retire.
    - {b Admission}: a transaction that arrives while one of its keys is
      write-locked by an in-flight instance joins the holding instance's
      FIFO wait queue and re-admits when that instance resolves. Waiters
      hold no locks while they wait, so queues cannot deadlock;
      [wait_budget] bounds how often a transaction may re-queue before it
      aborts locally, so re-conflict chains cannot livelock, and budget 0
      aborts on every conflict (the coordinator-side OCC check). A waiter
      whose conflicting holder already {e decided} (its remaining locks
      release only when a dead shard recovers) aborts immediately — queues
      drain on every decision, election takeover and recovery adoption.
      The same check runs again when a batch launches, so no two launched
      instances ever hold the same key: the lock table is one holder slot
      per key index, and a shard's vote is read validation alone. After
      that check, launch validates the reads of the members that passed
      it: a member whose read version moved since submit could only make
      its shard vote no and abort every batch-mate, so it aborts locally
      instead (counted in [stale_aborts]) and the rest launch; a batch
      left empty starts no instance. Without failures every launched
      instance therefore commits. Only launch checks staleness: a waiter
      is not aborted at re-admission, nor before the holder check, since
      a doomed client that resubmits sooner only lowers goodput. A
      transaction's key indices, owner shards and interned write-owner
      set are computed once at submit, so re-admitting a waiter reads
      array slots and never formats or hashes a key.
    - {b Blocking and recovery}: an instance that quiesces with no
      decision (2PC whose coordinator shard is down) {e parks} — its
      staged writes and write locks stay put, its clients stall, but the
      pipeline keeps flowing around it. When the shard recovers
      ([outages] are (rank, down_at, back_at) triples), it first adopts
      the decisions reached while it was down, then every parked instance
      re-runs with its recorded votes and resolves.
    - {b Coordinator re-election}: a parked instance also arms an
      [election_timeout] timer. When it fires and the instance is still
      undecided, the lowest live rank becomes a stand-in coordinator and
      re-drives the decision from the recorded vote log — a crash-free
      replay, so even a blocking protocol terminates without the dead
      shard. The replay applies the same deterministic vote rule the lost
      coordinator would have (commit iff every shard voted yes), so the
      decision is at-most-once: adoption on a later recovery reconciles
      the recovering shard against the stand-in's outcome through the
      ordinary decided-instance path. A run with a never-healing outage
      ([back_at = None]) therefore drains: no parked instances, no staged
      write-ahead entries left on live shards.
    - {b Soak scale}: the service's footprint is the {e live} state, not
      the history — machines and instance records recycle through pools
      ({!Machine.reset}), event slots and Mux slots recycle
      ({!Mux.retire}), fully resolved instances retire
      with their atomicity checked incrementally, and [soak = true] swaps
      the exact latency/queue histograms for fixed-bin streaming ones —
      so one run can push millions of transactions from thousands of
      clients in bounded memory. [flush_every > 0] reports progress to
      stderr every that-many issued transactions.

    After the run an atomicity check extends {!Txn_system}'s per-instance
    check to the whole history: for every transaction, each write-owner
    shard must have either installed the writes (decision reached and
    shard up or recovered) or still hold them staged (parked, or shard
    still down) — and never disagree with the instance's outcome. Retired
    instances are checked as they leave; the end-of-run pass covers
    whatever is still live. *)

type spec = {
  clients : int;  (** closed-loop clients *)
  txns : int;  (** total transactions to issue across all clients; >= 0 *)
  think_gap : Sim_time.t;
      (** max client think time between decision and next submit *)
  keys : int;
      (** keyspace size, keys "k0" .. "k<keys-1>"; at most
          {!Keyspace.max_keys} (2^24), since each key's owner, version
          and lock holder live in dense tables *)
  zipf_s : float;
      (** key-popularity exponent, see {!Workload.Zipf.make}; 0 is
          uniform *)
  reads_per_txn : int;
  writes_per_txn : int;  (** >= 1 *)
  batch_window : Sim_time.t;
      (** how long a batch waits for co-resident transactions; 0 disables
          batching (every transaction gets its own instance) *)
  max_batch : int;  (** transactions per instance cap *)
  pipeline_depth : int;  (** concurrent instances cap; 1 serializes *)
  wait_budget : int;
      (** max re-queues per transaction on a lock holder before it aborts
          locally; 0 aborts on every conflict, at admission and at
          launch *)
  network : Network.t;
  outages : (int * Sim_time.t * Sim_time.t option) list;
      (** shard outages: (rank, down_at, back_at); [None] never recovers *)
  election_timeout : Sim_time.t option;
      (** how long a parked instance waits before the lowest live rank
          takes over as stand-in coordinator; [None] disables re-election
          (parked instances wait for a recovery), [Some d] requires
          [d >= 1] *)
  soak : bool;
      (** constant-memory histograms (fixed-bin streaming, percentile
          error bounded by one bin width) for very long runs *)
  flush_every : int;
      (** stderr progress line every this many issued transactions;
          0 disables *)
  max_time : Sim_time.t;  (** safety horizon for the simulated clock *)
  seed : int;
}

val default : spec
(** 128 clients, 1000 txns, 2048 keys at Zipf exponent [0x1.24139f98d46p-1]
    (about 0.5705: the 16 hottest keys draw 10% of the accesses), 2 reads
    + 2 writes, batches of up to 8 within half a delay, pipeline depth 64,
    a 64-wait budget, jittered network, no outages, election timeout 12
    delays. *)

type stats = {
  protocol : string;
  transactions : int;  (** issued *)
  committed : int;
  aborted : int;  (** aborted by a protocol instance's decision *)
  local_aborts : int;
      (** aborted at admission or launch without an instance: a key was
          write-locked by an in-flight instance and the wait budget ran
          out, the holder had already decided (its locks release only on
          a recovery, so waiting is unbounded), or a read had gone stale
          by launch *)
  stale_aborts : int;
      (** the part of [local_aborts] dropped at launch because a read's
          version had moved since submit: their shard could only have
          voted no *)
  queued : int;
      (** transactions that waited on a holder's queue at least once *)
  parked : int;  (** still unresolved at end of run (includes waiters) *)
  instances : int;  (** commit instances launched (first attempts) *)
  retries : int;  (** parked instances re-run after a recovery *)
  elections : int;
      (** stand-in re-drives: a parked instance's election timer fired
          and a surviving shard took over *)
  stolen : int;
      (** decisions reached by an elected stand-in (<= elections; an
          elected drive beaten to the decision by a concurrent recovery
          retry does not count) *)
  mean_batch : float;  (** transactions per instance *)
  peak_in_flight : int;  (** max concurrent instances observed *)
  total_messages : int;  (** network messages across all instances *)
  staged_left : int;
      (** write-ahead entries still staged on {e live} shards at end — a
          still-down shard's staging is recoverable by adoption, not a
          leak, so it is excluded *)
  makespan_delays : float;  (** simulated end of run, units of U *)
  latency : Histogram.summary;
      (** commit latency, submit to last shard decision (queue wait
          included), units of U *)
  time_parked : Histogram.summary;
      (** park-to-decision delay for instances that parked and were later
          resolved (by election or recovery), units of U *)
  queue_depth : Histogram.summary;
      (** total waiting transactions, sampled at each enqueue *)
  zipf_s : float;  (** the exponent drawn from (negative clamps to 0) *)
  goodput : float;  (** committed / issued *)
  wall_seconds : float;
  commits_per_sec : float;  (** committed txns per wall-clock second *)
  minor_words_per_txn : float;
      (** minor-heap words allocated per issued transaction over the
          whole run, start-up included — the allocation-pressure gauge the
          soak gate watches *)
  atomicity_ok : bool;  (** the whole-history staging/install check *)
  agreement_ok : bool;  (** no instance saw conflicting decisions *)
}

val run :
  ?consensus:Registry.consensus_impl ->
  ?observe:(string -> Vote.decision -> unit) ->
  protocol:string -> n:int -> f:int -> spec -> stats
(** Run the service over [n] shards tolerating [f] crashes. [observe] is
    called once per decided transaction with its id and decision, in
    decision order — the hook the differential tests use to compare
    per-transaction outcomes across configurations.
    @raise Not_found on an unknown protocol name.
    @raise Invalid_argument on a nonsensical spec (no clients, no writes,
    [keys] above {!Keyspace.max_keys}, [pipeline_depth < 1],
    [batch_window < 0], [wait_budget < 0],
    [election_timeout < 1], an outage before time zero or one that does
    not recover strictly after it goes down, ...), with a message starting
    ["Commit_service.run: "]. *)

val pp_stats : Format.formatter -> stats -> unit

val arm_json_body : stats -> string
(** The deterministic slice of a run's stats as a JSON object body (no
    enclosing braces, no wall-clock or GC fields): simulated-clock
    counters and delay summaries only, so two runs of the same spec
    produce the same bytes regardless of [Batch.run ~jobs] or machine
    load. *)
