(** Command-line gate thresholds (floors and ceilings on measured
    figures). *)

val threshold : string -> (float, string) result
(** [threshold s] reads a gate's threshold: a number that is neither NaN
    nor negative. Every comparison with NaN is false, so a NaN floor or
    ceiling would let every run pass; such a value, like one that is not
    a number at all, is an [Error] with a one-line reason, never "no
    gate". *)
