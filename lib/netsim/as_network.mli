(** The packet-network builder: instantiate an AS-level topology, with
    its routing, as a {!Packetsim} network.

    The flow-level simulator ({!Flowsim}) models MIFO's behaviour
    analytically; this builder constructs the same AS graph inside
    {!Packetsim} — every inter-AS link a real store-and-forward link,
    FIBs filled from {!Mifo_bgp.Routing}, and on MIFO-capable ASes an
    alternative port refreshed by the daemon using the paper's greedy
    spare-capacity rule.  Packets then traverse the actual
    {!Mifo_core.Engine} hop by hop, tag bit and all.

    By default each AS is one border router.  Given a
    {!Mifo_topology.Router_level} expansion, an AS may be several border
    routers in a full iBGP mesh, each inter-AS link landing on its pinned
    router.  Every router of an AS then sends a prefix's traffic to the
    AS's egress border router over iBGP, and an alternative port on
    another border router is reached the same way, so a deflection
    tunnels with IP-in-IP exactly as in Fig. 2(b).

    This is how the test suite cross-validates the two simulators, how
    [validate] and [check] run packets through the engine, and how small
    scenarios can be studied at router granularity.  At the paper's 44K
    scale the build allocates nothing per (AS, destination): ports sit in
    arrays parallel to the AS graph's neighbour arrays, and the choosers
    read the routing state.  The default build does no expansion work. *)

type t = {
  sim : Packetsim.t;
  router_of_as : int array;  (** AS id -> node of its first router *)
  host_of_as : int array;  (** AS id -> host node id, [-1] when it has none *)
}

val build :
  ?config:Packetsim.config ->
  ?link_rate:float ->
  ?host_rate:float ->
  ?expansion:Mifo_topology.Router_level.t ->
  Mifo_bgp.Routing_table.t ->
  deployment:Mifo_core.Deployment.t ->
  hosts:int list ->
  unit ->
  t
(** [build table ~deployment ~hosts ()] wires every AS and installs, for
    every AS listed in [hosts], that AS's /24 prefix in {e every}
    router's FIB (default next hop from the routing computation;
    alternative port on MIFO-capable ASes).  Each listed AS also gets an
    attached end host addressed [Prefix.host_of_as as 1], on its first
    router.

    Without [expansion], AS [v] is the single router node [v].  With it,
    router [r] of the expansion is node [r], every multi-router AS gets a
    full iBGP mesh, and each inter-AS link lands on the router
    [expansion] pins it to.  An expansion that splits no AS builds the
    same network as none.

    [link_rate] defaults to 1 Gbps (the paper's setting) on every
    inter-AS and iBGP link; [host_rate] (default [link_rate]) sets the
    host access links — raise it to keep end hosts from being the
    bottleneck.

    The per-host routing computations are fanned out over the shared
    domain pool ({!Mifo_util.Parallel.get_default}) before the serial
    network wiring; the built network is identical at any [MIFO_JOBS].

    @raise Invalid_argument if a listed AS id is out of range, or if
    [expansion] is over a different graph (physically) than [table]. *)

val host : t -> int -> int
(** Host node of an AS.  @raise Invalid_argument naming the AS if it has none. *)

val router : t -> int -> int
(** Node of an AS's first router, the one its host attaches to.
    @raise Invalid_argument naming the AS when it is out of range. *)

val add_transfer : t -> src_as:int -> dst_as:int -> bytes:int -> start:float -> int
(** A TCP transfer between the hosts of two ASes; returns the flow id.
    @raise Invalid_argument naming the AS if either AS has no host. *)

val run : ?until:float -> t -> unit
