(** Empirical distributions: CDFs, percentiles and histograms.

    The paper reports most results as cumulative distributions (Figs. 5, 6
    and 12b) or small histograms (Fig. 9); this module turns raw sample
    vectors into exactly those series. *)

type cdf
(** Empirical CDF over a finite sample. *)

val cdf_of_samples : float array -> cdf
(** Builds the ECDF; the input array is not modified. *)

val cdf_size : cdf -> int
val cdf_at : cdf -> float -> float
(** [cdf_at c x] is P(X <= x) in \[0, 1\]; 0 for an empty sample. *)

val fraction_at_least : cdf -> float -> float
(** [fraction_at_least c x] is P(X >= x); the paper's "x% of flows attain
    at least y Mbps" numbers. *)

val percentile : cdf -> float -> float
(** [percentile c p] for [p] in \[0, 100\], nearest-rank definition.
    Raises [Invalid_argument] on an empty sample or out-of-range [p]. *)

val cdf_series : cdf -> xs:float array -> (float * float) array
(** Sampled CDF curve [(x, 100 * P(X <= x))], percent on the y axis as in
    the paper's figures. *)

val evenly_spaced : lo:float -> hi:float -> n:int -> float array
(** [n] points from [lo] to [hi] inclusive; requires [n >= 2]. *)

type histogram

val histogram : ?bins:int -> lo:float -> hi:float -> float array -> histogram
(** Fixed-width histogram over \[lo, hi]; samples outside the range are
    clamped into the first/last bin.  Default 10 bins. *)

val histogram_counts : histogram -> int array
val bin_bounds : histogram -> int -> float * float

val counts_of_ints : max_value:int -> int array -> int array
(** [counts_of_ints ~max_value xs] tallies integer samples into buckets
    [0..max_value], with values above [max_value] folded into the last
    bucket (the paper's "5+" style bucket in Fig. 9). *)
