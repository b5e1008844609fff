(** Synthetic transaction workloads over {!Txn_system}: batches of
    read-validate-write transactions with tunable contention (a
    Zipf-skewed key-popularity model), optional crash injection, and
    aggregate statistics — the database-facing view of the commit
    protocols' complexity (messages and delays per transaction). *)

module Zipf : sig
  (** Zipf(s) key popularity over a keyspace "k0" .. "k<keys-1>": rank
      [i] (0-based) is drawn with probability proportional to
      [1 / (i+1)^s]. The CDF is precomputed at construction, so a draw
      is one uniform variate plus a binary search. [s = 0] is the
      uniform distribution; the legacy binary hot-set knob maps onto an
      equivalent exponent through {!of_hot}. *)

  type t

  val make : keys:int -> s:float -> t
  (** Negative or NaN [s] clamps to 0 (uniform).
      @raise Invalid_argument when [keys < 1]. *)

  val uniform : keys:int -> t
  (** [make ~keys ~s:0.0]. *)

  val of_hot : keys:int -> hot_keys:int -> hot_fraction:float -> t
  (** The legacy contention alias: the Zipf exponent under which the
      [hot_keys] most popular keys receive a [hot_fraction] share of
      the accesses (solved by bisection; monotone in [s]).
      [hot_fraction] at or below the uniform share [hot_keys/keys]
      clamps to uniform, at or above 1 to the 0.9999 mass point.
      @raise Invalid_argument when [keys < 1]. *)

  val keys : t -> int
  val s : t -> float
  (** The (resolved) exponent. *)

  val mass_top : t -> int -> float
  (** [mass_top t h] is the probability mass of the [h] most popular
      keys (0 when [h <= 0], 1 when [h >= keys]). *)

  val index : t -> Rng.t -> int
  (** One popularity-ranked draw, as a 0-based rank. *)

  val pick : t -> Rng.t -> string
  (** [index] rendered as its key "k<rank>". *)
end

type spec = {
  batches : int;
  batch_size : int;  (** transactions validated against one snapshot *)
  keys : int;  (** keyspace size, keys "k0" .. "k<keys-1>" *)
  hot_keys : int;  (** legacy contention alias, see {!Zipf.of_hot} *)
  hot_fraction : float;  (** legacy contention alias, see {!Zipf.of_hot} *)
  zipf_s : float option;
      (** key-popularity exponent; [None] derives it from the legacy
          [hot_keys]/[hot_fraction] pair through {!Zipf.of_hot} *)
  reads_per_txn : int;
  writes_per_txn : int;
  crash_probability : float;
      (** per-batch probability that one random node crashes during the
          batch's commit rounds *)
  seed : int;
}

val default : spec
(** 20 batches x 4, 64 keys, 4 hot keys at 0.5 (as a Zipf alias),
    2 reads + 2 writes, no crashes, seed 7. *)

type stats = {
  transactions : int;
  committed : int;
  aborted : int;
  blocked : int;
  abort_rate : float;
  total_messages : int;
  messages_per_commit : float;
  mean_commit_delays : float;  (** mean protocol latency, units of U *)
  p50_commit_delays : float;
      (** latency percentiles over committed rounds ({!Histogram}
          nearest-rank, so p50 <= p95 <= p99); [nan] with no commits *)
  p95_commit_delays : float;
  p99_commit_delays : float;
  minor_words_per_txn : float;
      (** minor-heap words allocated per transaction during the run — the
          allocation-pressure gauge the bench trend line tracks *)
  atomicity_ok : bool;  (** every round passed the atomicity check *)
}

val distinct_keys : dist:Zipf.t -> count:int -> Rng.t -> string list
(** [count] distinct draws of {!Zipf.pick}, in shuffled order (so a
    positional read/write split does not correlate with popularity).
    [count] is clamped to [\[0, keys\]]; termination is unconditional —
    when the drawn-attempts budget is exhausted (possible only as [count]
    approaches [keys] under heavy skew, where the rare tail dominates
    rejection), the remainder fills with the most popular unused
    ranks. *)

val run : Txn_system.t -> spec -> stats

val contention_sweep :
  protocol:string -> n:int -> f:int -> hot_fractions:float list -> (float * stats) list
(** Same workload at increasing contention; the abort rate climbs, the
    per-commit message cost stays the protocol's closed form. *)

val protocol_comparison :
  ?jobs:int -> protocols:string list -> n:int -> f:int -> spec ->
  (string * stats) list
(** The same workload (same seed, same conflicts) across protocols: abort
    rates coincide, messages/latency differ — the paper's complexity
    table in database clothing. Each protocol replays the workload in its
    own {!Txn_system.t}, so the columns are computed through {!Batch.run}
    ([?jobs] domains, order and values unchanged). *)

val pp_stats : Format.formatter -> stats -> unit
