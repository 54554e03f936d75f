(** Deterministic pseudo-random number generation.

    Every experiment in this repository takes an explicit seed and derives
    all of its randomness from a [Prng.t], so that figures and tests are
    bit-reproducible across runs and machines.  The generator is
    xoshiro256++ seeded through SplitMix64, the combination recommended by
    the xoshiro authors.  States are cheap buffers; [split] derives an
    independent stream, which lets concurrent or per-entity streams stay
    decorrelated without sharing mutable state.

    Every draw is O(1) ([int]: expected, by rejection).  The state is one 32-byte buffer updated in
    place, so [bits62], [int], [int_in], [bool], [shuffle] and [choose]
    allocate nothing; [bits64] allocates its boxed [int64] result and
    [float]/[exponential]/[pareto] their boxed [float] result (2-3
    words).  [create], [copy] and [split] allocate one new state. *)

type t
(** Mutable generator state. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] builds a generator from a 63-bit seed (default
    [0x4d1f0]).  Equal seeds give equal streams. *)

val copy : t -> t
(** Independent snapshot of the current state. *)

val split : t -> t
(** [split t] advances [t] and returns a fresh generator whose stream is
    statistically independent of [t]'s subsequent output. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val bits62 : t -> int
(** Next output's top 62 bits: a uniform non-negative [int]. *)

val int : t -> int -> int
(** [int t n] is uniform in \[0, n); requires [n > 0].  Uses rejection
    sampling, so the distribution is exactly uniform. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in \[lo, hi\] inclusive; requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float t x] is uniform in \[0, x). *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean; used for Poisson
    inter-arrival times. *)

val pareto : t -> shape:float -> scale:float -> float
(** Pareto-distributed sample (heavy-tailed flow sizes). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] draws [k] distinct ints uniformly
    from \[0, n); requires [k <= n].  O(n) time, O(n) scratch. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
