(** Cache of per-destination routing states.

    Experiments query routes toward many destinations; this table
    memoizes {!Routing.compute} per destination, computing each state
    on first use.  [precompute] fans the independent per-destination
    computations out over the shared {!Mifo_util.Parallel} domain pool.
    Nothing is ever evicted: a filled destination stays filled for the
    table's lifetime.

    {b Thread safety.}  The table is safe to use from any number of
    domains concurrently.  Each destination has one write-once atomic
    slot: a miss runs {!Routing.compute} without any lock and publishes
    the result with a compare-and-set.  When two domains fill the same
    slot at once, the first publish wins and the other returns the
    winner's state, so repeated [get]s of a destination always return
    physically equal ([==]) states.  Cached {!Routing.t} values may be
    shared freely across domains — see the thread-safety note in
    {!Routing}. *)

type t

val create : Mifo_topology.As_graph.t -> t
(** An empty table over the graph: one slot per AS. *)

val graph : t -> Mifo_topology.As_graph.t

val get : t -> int -> Routing.t
(** Routing state toward destination [d], computed on first use.
    @raise Invalid_argument if [d] is out of range. *)

val precompute : t -> int array -> unit
(** [precompute t dests] fills the slot of every listed destination,
    fanning {!Routing.compute} out across the shared domain pool
    ({!Mifo_util.Parallel.get_default}).  Results are identical to
    serial [get]s — only the wall-clock changes. *)

val cached_count : t -> int
(** Number of destinations filled so far. *)
