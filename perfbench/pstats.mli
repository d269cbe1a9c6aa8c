(** Order statistics over raw samples.

    Percentiles are nearest-rank over the samples themselves, never
    interpolated from histogram buckets, so a reported quantile is always
    one of the observed values. *)

val percentile : float list -> float -> float
(** [percentile xs q] for [q] in [\[0, 1\]]: the smallest sample [x] such
    that at least [q * n] samples are [<= x] ([q = 0] gives the minimum).
    Raises [Invalid_argument] on an empty list or a [q] outside
    [\[0, 1\]]. *)

val median : float list -> float
(** [percentile xs 0.5]. *)
