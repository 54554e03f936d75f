(** Instantiate an AS-level topology as a packet-level network.

    The flow-level simulator ({!Flowsim}) models MIFO's behaviour
    analytically; this builder constructs the same AS graph inside
    {!Packetsim} — one border router per AS, every inter-AS link a real
    store-and-forward link, FIBs filled from {!Mifo_bgp.Routing}, and on
    MIFO-capable ASes an alternative port refreshed by the daemon using
    the paper's greedy spare-capacity rule.  Packets then traverse the
    actual {!Mifo_core.Engine} hop by hop, tag bit and all.

    This is how the test suite cross-validates the two simulators, and
    how small AS scenarios (a few dozen ASes) can be studied at packet
    granularity.  At the paper's 44K scale the build allocates nothing
    per (AS, destination): ports sit in arrays parallel to the AS graph's
    neighbour arrays, and the choosers read the routing state. *)

type t = {
  sim : Packetsim.t;
  router_of_as : int array;  (** AS id -> router node id *)
  host_of_as : int array;  (** AS id -> host node id, [-1] when it has none *)
}

val build :
  ?config:Packetsim.config ->
  ?link_rate:float ->
  ?host_rate:float ->
  Mifo_bgp.Routing_table.t ->
  deployment:Mifo_core.Deployment.t ->
  hosts:int list ->
  unit ->
  t
(** [build table ~deployment ~hosts ()] wires every AS and installs, for
    every AS listed in [hosts], that AS's /24 prefix in {e every}
    router's FIB (default next hop from the routing computation;
    alternative port on MIFO-capable ASes).  Each listed AS also gets an
    attached end host addressed [Prefix.host_of_as as 1].

    [link_rate] defaults to 1 Gbps (the paper's setting) on every
    inter-AS link; [host_rate] (default [link_rate]) sets the host access
    links — raise it to keep end hosts from being the bottleneck.

    The per-host routing computations are fanned out over the shared
    domain pool ({!Mifo_util.Parallel.get_default}) before the serial
    network wiring; the built network is identical at any [MIFO_JOBS].

    @raise Invalid_argument if a listed AS id is out of range. *)

val greedy_chooser :
  Mifo_bgp.Routing_table.t -> as_id:int -> spare:(int -> float) -> port:(int -> int) ->
  Mifo_bgp.Prefix.t -> Mifo_core.Fib.entry -> int list
(** Both builders' daemon chooser at AS [as_id], the greedy rule: over the
    RIB alternatives toward the entry's destination, at neighbour index
    [i], the first with the most spare capacity [spare i] gives [[port i]]
    ([[]] when that is not positive); no alternative keeps
    {!Mifo_core.Fib.primary_alts}. *)

val host : t -> int -> int
(** Host node of an AS.  @raise Invalid_argument naming the AS if it has none. *)

val router : t -> int -> int

val add_transfer : t -> src_as:int -> dst_as:int -> bytes:int -> start:float -> int
(** A TCP transfer between the hosts of two ASes; returns the flow id.
    @raise Invalid_argument naming the AS if either AS has no host. *)

val run : ?until:float -> t -> unit
