(** The prototype testbed of Section V, emulated packet-by-packet.

    The paper's testbed is 15 desktop machines: 4 end hosts and 11
    routers running the MIFO kernel forwarding engine and XORP daemon,
    arranged into 6 ASes (Fig. 11) over Gigabit Ethernet.  The default
    paths of both host pairs, 1 -> 3 -> 4 -> 5 and 2 -> 3 -> 4 -> 5,
    share the AS3->AS4 link; MIFO lets AS3's border router Rd tunnel part
    of the traffic to its iBGP peer Ra, which exits through the
    alternative path 3 -> 6 -> 5.

    Each source produces [flows_per_source] TCP flows {e one after
    another}.  The run reports the aggregate throughput time series
    (Fig. 12a) and the per-flow completion times (Fig. 12b).

    The emulation runs the very same {!Mifo_core.Engine} /
    {!Mifo_core.Daemon} code as everything else; [Bgp_routing] simply
    installs no alternative ports. *)

type protocol = Bgp_routing | Mifo_routing

type config = {
  flows_per_source : int;  (** paper: 30 *)
  flow_bytes : int;  (** paper: 100 MB; default 10 MB to keep `dune runtest` fast *)
  link_rate : float;  (** 1 Gbps *)
  sim : Mifo_netsim.Packetsim.config;
}

val default_config : config

type result = {
  protocol : protocol;
  aggregate_series : (float * float) array;
      (** (time, aggregate goodput bits/s) — Fig. 12a *)
  fct : float array;  (** completion time of every finished flow — Fig. 12b *)
  makespan : float;  (** time until the last flow finished *)
  mean_aggregate : float;  (** mean goodput over the active period *)
  counters : Mifo_netsim.Packetsim.counters;
  switches : (int * int) list;
}

val run : ?config:config -> protocol -> result

(** {1 Pieces exposed for tests and examples} *)

type network = {
  sim : Mifo_netsim.Packetsim.t;
  s1 : int;
  s2 : int;
  d1 : int;
  d2 : int;
  rd : int;  (** AS3's default egress router *)
  ra : int;  (** AS3's alternative egress router *)
  rd_ebgp : int;  (** Rd's port on the bottleneck AS3->AS4 link *)
  ra_ebgp : int;  (** Ra's port toward AS6 *)
}

val build : config -> protocol -> network
(** Construct the Fig. 11 network with FIBs installed; no flows yet. *)
