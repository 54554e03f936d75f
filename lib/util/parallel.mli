(** A reusable domain pool for embarrassingly parallel loops.

    The route computations and experiment fan-outs are independent per
    destination; this module spreads them over OCaml 5 domains without
    pulling in domainslib.  A pool of [jobs - 1] worker domains is
    created once and reused across batches; the calling domain always
    participates, so [jobs = 1] spawns no domains at all and executes
    every loop exactly as the serial code did.

    Determinism contract: [parallel_map] and [parallel_for] assign work
    by index into pre-sized slots, so results are independent of the
    scheduling order — a run with [jobs = n] is observationally
    identical to [jobs = 1] provided the worked function [f i] touches
    only state owned by iteration [i] (or thread-safe shared state such
    as {!Mifo_bgp.Routing_table}).

    Sizing: the [MIFO_JOBS] environment variable, else
    [Domain.recommended_domain_count ()]. *)

type pool
(** A fixed-size pool of worker domains plus the calling domain. *)

val default_jobs : unit -> int
(** [MIFO_JOBS] when set to a positive integer, otherwise
    [Domain.recommended_domain_count ()]. *)

val create : ?jobs:int -> unit -> pool
(** [create ~jobs ()] spawns [jobs - 1] worker domains ([jobs] defaults
    to {!default_jobs}; values < 1 are clamped to 1).  Library entry
    points take no pool: they all run on the shared one
    ({!get_default}), sized by [MIFO_JOBS] or {!set_default_jobs}. *)

val jobs : pool -> int

val get_default : unit -> pool
(** The process-wide shared pool, created on first use with
    {!default_jobs} workers.  Never shut down (worker domains park on a
    condition variable and die with the process). *)

val set_default_jobs : int -> unit
(** Replace the shared pool with one of the given size, shutting the
    previous one down.  This is the one way to choose the parallelism of
    the library's fan-outs: the [--jobs] CLI flag, and tests that compare
    serial and parallel execution in one process.  Not safe to call
    while another domain is using the shared pool.
    @raise Invalid_argument when [jobs <= 0] — an explicit error beats
    silently clamping a flag the user typed. *)

val fork_join : pool -> int -> (int -> unit) -> unit
(** [fork_join pool n f] runs [f 0 .. f (n-1)] as [n] separate tasks —
    one per index, no chunking — and returns only when all have
    finished: a fork/join barrier.  This is the primitive behind
    windowed simulation ({!Mifo_netsim.Packetsim} shards; Flowsim can
    reuse it the same way): each index advances one shard through a
    time window, and the join is the synchronization point at which
    boundary state may be exchanged.  With [jobs = 1] the tasks run
    serially in index order on the caller.  Exception behaviour as in
    {!parallel_for}.
    @raise Invalid_argument on a negative [n]. *)

val parallel_for : pool -> lo:int -> hi:int -> (int -> unit) -> unit
(** [parallel_for pool ~lo ~hi f] runs [f i] for every [lo <= i < hi],
    split into contiguous chunks across the pool.  Returns when every
    iteration has finished.  If any iteration raises, the first
    exception (in completion order) is re-raised in the caller after
    the whole batch has drained; the remaining iterations still run. *)

val parallel_map : pool -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map pool f arr] is [Array.map f arr] with the elements
    processed in parallel; result slots are assigned by index, so the
    output is identical to the serial map.  Exception behaviour as in
    {!parallel_for}. *)

val shutdown : pool -> unit
(** Terminate and join the pool's worker domains.  The pool must not be
    used afterwards.  Idempotent. *)
