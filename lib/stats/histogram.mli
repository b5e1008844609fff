(** A latency accumulator with exact or streaming percentiles.

    The default ({!create}) keeps samples verbatim (a growable float
    buffer) and computes nearest-rank percentiles by selecting each rank
    from a copy, without sorting it whole — exact, and the right trade
    for bounded runs. The streaming variant ({!streaming}) folds
    samples into a fixed array of equal-width bins plus an overflow bin,
    so memory stays O(bins) over a million-transaction run; its
    percentiles report the covering bin's upper edge (error bounded by
    one bin width, [max /. bins]), clamped to the exact observed maximum.
    Either way [p50 <= p95 <= p99 <= max] holds by construction. *)

type t

val create : ?capacity:int -> unit -> t
(** The exact variant. [capacity] is the initial buffer size (default
    1024); the buffer doubles as needed. *)

val streaming : bins:int -> max:float -> t
(** The fixed-memory variant: [bins] equal-width bins over [\[0, max\]]
    plus one overflow bin for samples beyond [max] (those report the
    observed maximum from any percentile that lands on them). [count],
    [mean] and [max] stay exact; percentiles carry at most one bin width
    ([max /. bins]) of error.
    @raise Invalid_argument when [bins < 1] or [max <= 0]. *)

val add : t -> float -> unit
val count : t -> int

val percentile : t -> float -> float
(** [percentile t q] with [q] in [\[0, 1\]]: the nearest-rank [q]-th
    percentile, [nan] when no sample was recorded.
    @raise Invalid_argument when [q] is outside [\[0, 1\]]. *)

type summary = {
  count : int;
  mean : float;  (** [nan] when empty, like the percentiles *)
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

val summary : t -> summary

val pp_summary : Format.formatter -> summary -> unit
(** ["p50/p95/p99 1.0/2.0/3.0 (max 4.0, n=128)"], or ["no samples"]. *)
