(** Top-level entry points of the static data-plane verifier.

    [mifo_sim check], {!Mifo_exp.Validation} and the test suite go
    through these: per-destination AS-level verification (loop-freedom
    of the deflection automaton, valley-free compliance and length
    agreement of every RIB path) and router-level verification of a
    built packet network (FIB audits and the tunnel-aware product
    automaton). *)

val verify_props :
  ?tag_check:bool ->
  ?k:int ->
  ?stretch_bound:int ->
  ?fail_link:int * int ->
  ?fail_links:int ->
  ?seed:int ->
  ?props:Props.prop list ->
  Mifo_topology.As_graph.t ->
  table:Mifo_bgp.Routing_table.t ->
  dests:int list ->
  Report.t
(** Run the {!Props} property suite (default: all four properties) plus
    the {!As_check.check_paths} audit for every listed destination,
    fanned out over the shared {!Mifo_util.Parallel} domain pool.
    Results are written into slots indexed by destination and merged in
    destination order, so the report is bit-identical at any
    [MIFO_JOBS].  Per-property options as in {!Props.verify_dest}. *)

val verify_network :
  Mifo_netsim.Packetsim.t -> routing:(int * Mifo_bgp.Routing.t) list -> Report.t
(** Run {!Net_check.audit_fibs} and {!Net_check.find_loops} on a built
    network for the listed destination ASes. *)
