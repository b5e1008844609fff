(** Admission for the commit service: which transactions launch, with
    whom, and when.

    - {b Holders}: admission hands out an int holder id to each batch as
      it opens; the batch's instance keeps it, and the lifecycle hands it
      back with {!retire} once every shard resolved the instance (a batch
      that launch empties hands it back at once). So admission never sees
      an instance.
    - {b Locks}: a transaction whose reads are still fresh write-locks
      its write keys under its batch's holder as it joins, and keeps them
      until its instance resolves at each owner shard, or until it leaves
      the batch at launch. A transaction whose reads went stale while it
      waited locks nothing: it can only abort at launch, and holding the
      hot key until then would stall every writer behind it.
    - {b Wait queues}: a transaction waits on the holder of its first key
      (in name order) that a launched instance write-locks, or that it
      writes and an open batch locks: it joins that holder's FIFO queue
      and re-admits when the holder resolves. Reads wait only on launched
      instances. Waiters hold no locks and an open batch waits on
      nothing, so queues cannot deadlock; [wait_budget] bounds how often
      a transaction may re-queue before it aborts locally, so re-conflict
      chains cannot livelock (budget 0 is the coordinator-side OCC check,
      and a write-write conflict with an open batch aborts too). A
      transaction whose holder already decided (its remaining locks
      release only when a dead shard recovers) aborts at once.
    - {b Batching}: co-resident transactions share one instance when their
      writes land on the same owner set and their keys don't conflict; a
      batch launches when it reaches [max_batch] or its [batch_window]
      expires. At most [pipeline_depth] instances run at once
      ({!Svc_history.in_flight}); ready batches wait for room.
    - {b Launch}: a member whose read key a launched instance locked
      since it joined, or one that locked nothing and meets a launched
      holder of any of its keys, unlocks and goes back to a holder's
      queue; so no two
      launched instances hold the same key and a shard's vote is read
      validation alone. Then a member whose read version moved since
      submit, which could only make its shard vote no and abort every
      batch-mate, unlocks and aborts locally (counted as stale), and the
      rest launch under the batch's holder: the batch's queue is the
      instance's. Only launch aborts a stale member: a doomed client that
      resubmits sooner only lowers goodput.

    Each verdict is acted on at once through the functions given to
    {!create}: a batch that fills while {!drain} re-admits waiters
    launches before the next waiter is tried, and if launch empties it,
    its own waiters re-admit inside that drain. *)

(** A transaction waiting on a holder, sitting in a batch, or running
    through an instance. Everything admission reads is computed once at
    submit, so re-admitting a waiter never formats or hashes a key. *)
type waiter = {
  w_id : int;
  w_client : int;
  w_submitted : Sim_time.t;
  w_keys : int array;
      (** in one array: the [w_writes] write keys, then the [w_reads]
          read keys, then each read key's version at submit *)
  w_writes : int;
  w_reads : int;
  w_owners : owner_set;  (** interned by {!owners} *)
  mutable w_waits : int;  (** completed waits so far *)
  mutable w_by_name : int array;
      (** every key, sorted into name order ("k10" < "k9") the first time
          one of them is held, [[||]] until then: a waiter queues on the
          first held key in this order *)
}

and owner_set
type t

val create :
  ks:Keyspace.t -> hist:Svc_history.t -> keys:int -> max_batch:int ->
  batch_window:Sim_time.t -> wait_budget:int -> pipeline_depth:int ->
  launch:(Sim_time.t -> int -> waiter array -> int -> unit) ->
  resubmit:(Sim_time.t -> int -> unit) ->
  arm:(Sim_time.t -> int -> int -> unit) -> t
(** [launch now h members count] starts an instance of
    [members.(0 .. count-1)] (oldest first), whose writes are locked under
    holder [h]; the lifecycle names [h] to {!release}, {!drain} and
    {!retire}, and may read [members] until it retires [h]. [resubmit now
    client] brings back the client of a transaction that aborted locally.
    [arm at h serial] schedules {!launch_batch} of [h] and [serial] at
    [at]. *)

val read_key : waiter -> int -> int
(** [read_key w j] is [w]'s [j]-th read key. *)

val read_version : waiter -> int -> int
(** The version [read_key w j] had at submit. *)

val owners : t -> int array -> int -> owner_set
(** [owners t shards n] is the interned set of the ascending shard
    indices [shards.(0 .. n-1)]; [shards] is copied only the first time
    the set is met. *)

val shards : owner_set -> int array
val submit : t -> Sim_time.t -> waiter -> unit

val launch_batch : t -> Sim_time.t -> int -> int -> unit
(** [launch_batch t now h serial] launches holder [h]'s batch if it is
    still the batch that [arm] was given with [serial] and has not
    launched: a timer armed for a batch that filled and launched early is
    inert, even once [h] serves a later batch. *)

val launch_ready : t -> Sim_time.t -> unit

val release : t -> shard:int -> int -> unit
(** [release t ~shard h] unlocks the writes of [h]'s members on keys that
    [shard] owns. *)

val drain : t -> Sim_time.t -> int -> unit
(** The holder decided (the lifecycle calls this at the decision, even
    with every shard down, and again at each adoption): re-admit its
    waiters, oldest first. From now on a transaction that conflicts with
    it aborts instead of waiting. *)

val retire : t -> int -> unit
(** The holder's instance resolved at every shard, so it locks nothing:
    its id may serve a new batch. *)
