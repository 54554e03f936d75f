(** Reference oracle for {!Mifo_analysis.Automaton.path_counts}: the
    Fig. 7 path count as first written, a memoized DP over the pair
    (AS, phase) with its own copy of the valley-free rule.  [Rose] means
    the last hop went uphill (tag bit 1, any continuation allowed),
    [Peaked] that the walk has used its peer hop or started descending
    (only provider->customer hops remain).  Every hop is phase-checked,
    the default included; a legacy AS follows only its default next hop.
    A cyclic query counts 0 instead of raising. *)

val mifo_counts :
  Mifo_topology.As_graph.t -> Mifo_bgp.Routing.t -> capable:(int -> bool) -> float array
(** [mifo_counts g rt ~capable] gives, for every source AS, the number of
    distinct forwarding paths to [Routing.dest rt].  The destination's own
    entry is 1. *)
