(** Router-level static verification over a built {!Mifo_netsim.Packetsim}
    network: FIB/RIB consistency plus the product forwarding automaton
    with tunnel state.

    Where {!As_check} reasons on the control plane alone, this pass
    audits what is actually {e installed}: every FIB port (default and
    alternative) against the RIB and the wiring, and the reachable
    packet behaviours over states [(router, tag, encapsulation)] —
    including the engine's forced-alternative rule, IP-in-IP tunnel
    transit and decapsulation.  The [tag_check] / [ibgp_encap] knobs are
    read from the simulator's config, so the ablations are verified
    under exactly the semantics they run. *)

val audit_fibs :
  Mifo_netsim.Packetsim.t ->
  routing:(int * Mifo_bgp.Routing.t) list ->
  Report.violation list * int
(** Audit every FIB entry of every router.  [routing] associates each
    audited destination AS [d] (announcing [Prefix.of_as d]) with its
    routing state.  Checks: port validity; eBGP ports wired to the
    declared neighbor AS and backed by a RIB route; iBGP ports wired to
    the declared peer, inside one AS, with a live iBGP session and a
    route for the prefix at the tunnel endpoint; Local ports wired to a
    host inside the prefix.  Returns the violations and the number of
    FIB entries checked.

    One reason, "tunnel endpoint is not an iBGP peer", cannot be raised
    on a network built through {!Mifo_netsim.Packetsim}'s API:
    [connect] records an iBGP session for every iBGP-kind port of a
    router, and the check runs only once the port's far end is the
    [peer_router] it names, so {!Mifo_netsim.Packetsim.ibgp_route}
    always finds the session.  It stays as a guard for a session API
    that could withdraw sessions.

    Cost: one pass over every router's FIB, O(1) per port checked apart
    from an eBGP port's destination lookup, a scan of [routing]'s
    destinations (as int keys, first match wins) and of one RIB
    segment.  Per entry it allocates nothing: {!Mifo_core.Fib.iter}
    hands it an int handle, entries are matched to destinations by
    {!Mifo_core.Fib.prefix_key}, report strings (the prefix, the port's
    role) are built only when a violation is added, and the destination
    keys and check closures once per call.  The one boxed prefix is a
    Local port's containment check, which only a destination's own
    routers make.  The [net_check] allocation gate in [test_analysis]
    holds a whole audit to 1,000 words. *)

val find_loops :
  Mifo_netsim.Packetsim.t ->
  routing:(int * Mifo_bgp.Routing.t) list ->
  Report.violation list * int
(** Exhaustive search of the router-level product automaton for every
    listed destination, from every attached host.  Reports reachable
    forwarding cycles ([Forwarding_loop] at [Router_level], with the
    concrete router cycle), encapsulated packets able to exit an eBGP
    port mid-tunnel ([Ebgp_tunnel_egress]) and routers without a route
    ([Unreachable]).  Returns the violations and the number of states
    explored. *)
