(** Packet-level networks at router granularity.

    Builds a {!Packetsim} network from a {!Mifo_topology.Router_level}
    expansion: multi-router ASes get a full iBGP mesh, every inter-AS
    link lands on its pinned border router, and the FIBs implement
    hot-potato-free intra-AS forwarding (every router of an AS sends a
    prefix's traffic to the AS's egress border router over iBGP).

    On MIFO-capable ASes the alternative port can live on a {e different}
    border router than the default egress; the daemon then installs an
    iBGP alternative, and a deflection makes the engine tunnel the packet
    with IP-in-IP exactly as in Fig. 2(b) — which is the point of running
    at this granularity.  Ports and choosers are built as in {!As_network}. *)

type t = {
  sim : Packetsim.t;
  expansion : Mifo_topology.Router_level.t;
  node_of_router : int array;  (** router id in the expansion -> sim node *)
  host_of_as : int array;  (** AS id -> host node id, [-1] when it has none *)
}

val build :
  ?config:Packetsim.config ->
  ?link_rate:float ->
  ?host_rate:float ->
  Mifo_bgp.Routing_table.t ->
  expansion:Mifo_topology.Router_level.t ->
  deployment:Mifo_core.Deployment.t ->
  hosts:int list ->
  unit ->
  t
(** Same contract as {!As_network.build}, at router granularity.  The
    expansion must be over the same graph as the routing table.
    @raise Invalid_argument otherwise, or on out-of-range host ASes. *)

val host : t -> int -> int
(** As {!As_network.host}, raising the same [Invalid_argument]. *)

val add_transfer : t -> src_as:int -> dst_as:int -> bytes:int -> start:float -> int
(** As {!As_network.add_transfer}. *)

val run : ?until:float -> t -> unit
