(** Reference oracle for {!Mifo_netsim.Maxmin.Solver}: the original
    stateless max-min allocator, which allocates its scratch per call.
    The solver evaluates the same float expressions in the same heap pop
    order, so the [Solver] gates in [test_netsim] compare the two bit
    for bit. *)

val allocate : capacities:float array -> flow_links:int array array -> float array
(** [allocate ~capacities ~flow_links] returns the max-min rate of each
    flow.  [flow_links.(f)] lists the link ids flow [f] crosses.  An
    empty link set means the flow is unconstrained and its rate is
    [Float.infinity].  Duplicate link ids within one flow are allowed
    and counted once.

    @raise Invalid_argument on negative capacities or out-of-range link
    ids. *)

val link_allocation :
  capacities:float array -> flow_links:int array array -> rates:float array -> float array
(** Total allocated bandwidth per link under the given rates.
    [flow_links.(f)] must be duplicate-free (canonicalize with
    {!Mifo_netsim.Maxmin.dedup_links}): each occurrence of a link id adds
    [rates.(f)] once. *)
