(** Counting the forwarding paths available between AS pairs (Fig. 7).

    For MIFO, a path is any AS-level walk the data plane can realize: at
    every MIFO-capable AS the packet may take {e any} RIB route subject
    to the valley-free Tag-Check constraint, and at a legacy AS it
    follows the default next hop.  The count is computed by dynamic
    programming over the pair (AS, phase) where phase records whether the
    last hop went uphill ("rose", tag bit 1) or has already peaked
    ("peaked", tag bit 0).  Because uphill hops strictly climb the
    provider hierarchy and peaked walks strictly descend it, the DP
    recursion is acyclic and runs in O(V + E) per destination.

    Counts are returned as floats: at full deployment dense pairs reach
    many thousands of paths (the paper's Fig. 7 y-axis is logarithmic)
    and large topologies overflow 63-bit ints.

    The MIRO counterpart lives in [Mifo_miro.Miro.available_path_count]. *)

val mifo_counts :
  Mifo_topology.As_graph.t -> Routing.t -> capable:(int -> bool) -> float array
(** [mifo_counts g rt ~capable] gives, for every source AS, the number of
    distinct forwarding paths to [Routing.dest rt].  The destination's own
    entry is 1. *)

val mifo_counts_many :
  Mifo_topology.As_graph.t ->
  Routing_table.t ->
  dests:int array ->
  capable:(int -> bool) ->
  float array array
(** [mifo_counts_many g table ~dests ~capable] is
    [Array.map (fun d -> mifo_counts g (Routing_table.get table d) ~capable) dests],
    with both the route computations and the per-destination DPs fanned
    out across the shared pool ({!Mifo_util.Parallel.get_default}).
    Output is slot-per-destination and independent of scheduling. *)

val bgp_count : Routing.t -> src:int -> int
(** 1 when reachable (the default path), 0 otherwise. *)

val enumerate_mifo_paths :
  Mifo_topology.As_graph.t -> Routing.t -> capable:(int -> bool) -> src:int ->
  limit:int -> int list list
(** Explicit enumeration of the walks the DP counts, for tests and small
    examples; stops after [limit] paths. *)
