(** The multi-shot commit service: a long-lived engine committing a
    {e stream} of transactions over the sharded KV, in the spirit of
    Chockler & Gotsman's multi-shot transaction commit.

    Where {!Txn_system.submit} runs one protocol instance to completion
    before the next begins, this service drives {e many concurrent commit
    instances through a single simulator run}: every instance is a
    {!Machine} automaton of the selected protocol (INBAC / Paxos Commit /
    2PC / any {!Registry} entry), and all instances' proposals,
    deliveries and timeouts multiplex over one {!Event_queue}, tagged
    with their instance, one network model and one simulated clock.

    The workload is closed-loop: [clients] simulated clients each submit
    a transaction, wait for its decision, think, and submit the next.
    Transactions route to the shards owning their keys. The data plane is
    index-addressed ({!Keyspace}): a transaction is its sequence number,
    its key indices and the versions it read, and its writes stage in
    each owner shard's write-ahead table at instance start until the
    instance decides.

    This module is the instance lifecycle: it stages and launches the
    batches that {!Svc_admission} lets through, each drive of an
    instance's machine under a fresh tag, so events of an earlier drive
    miss it; it counts each instance's queued events, finalizes one whose
    count drops to zero, parks, re-elects, adopts and retires them; and
    it reports every step to {!Svc_history}.

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
      shard. The replay applies the lost coordinator's deterministic vote
      rule (commit iff every shard voted yes), so the decision is
      at-most-once: a later recovery adopts the stand-in's outcome like
      any other decision. A run with a never-healing outage
      ([back_at = None]) therefore drains.
    - {b Recycling}: the footprint is the {e live} state, not the
      history. A retired instance's record keeps its machine, which resets
      in place ({!Machine.reset}) for the next launch and for every
      re-drive, and with it the slot its tags name, so one run can push
      millions of transactions in bounded memory. *)

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
  batch_window : Sim_time.t;  (** 0 gives every transaction its instance *)
  max_batch : int;  (** transactions per instance cap *)
  pipeline_depth : int;  (** concurrent instances cap; 1 serializes *)
  wait_budget : int;  (** re-queues on a lock holder before a local abort *)
  network : Network.t;
  outages : (int * Sim_time.t * Sim_time.t option) list;
      (** shard outages: (rank, down_at, back_at); [None] never recovers *)
  election_timeout : Sim_time.t option;
      (** how long a parked instance waits for a stand-in; [None] leaves it
          to a recovery, [Some d] requires [d >= 1] *)
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

val run :
  ?consensus:Registry.consensus_impl ->
  ?observe:(string -> Vote.decision -> unit) ->
  protocol:string -> n:int -> f:int -> spec -> Svc_history.stats
(** Run the service over [n] shards tolerating [f] crashes; [observe] is
    {!Svc_history.create}'s.
    @raise Not_found on an unknown protocol name.
    @raise Invalid_argument on a nonsensical spec (no clients, no writes,
    [keys] above {!Keyspace.max_keys}, [pipeline_depth < 1],
    [batch_window < 0], [wait_budget < 0],
    [election_timeout < 1], an outage before time zero or one that does
    not recover strictly after it goes down, two outages of one shard that
    overlap or touch, ...), with a message starting
    ["Commit_service.run: "]. *)
