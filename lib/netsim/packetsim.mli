(** Packet-level event-driven network simulator.

    The substrate for the prototype/testbed experiments (Section V): real
    packets with MIFO tags and IP-in-IP headers, FIFO tx queues with tail
    drop, store-and-forward links, TCP sources ({!Tcp}), routers running
    the {!Mifo_core.Engine} on every packet, and the {!Mifo_core.Daemon}
    ticking periodically on every router.  The congestion signal is the
    tx-queue occupancy ratio, exactly the paper's choice.

    Build a network with [add_router] / [add_host] / [connect], populate
    FIBs, optionally install an alternative-path chooser per router
    (otherwise alt ports stay as configured), add flows, then [run].

    Everything is deterministic; there is no randomness anywhere in the
    simulator.

    {b Packets} are simulator-owned slots of a flat arena, one arena per
    event loop: a host writes a slot once when it sends, every router
    hop rewrites it in place through {!Mifo_core.Engine.decide}, and the
    slot is freed when the packet is absorbed at a host or dropped.
    Events and link trains carry slot handles, so the per-hop path
    allocates nothing in steady state.  A link's pending departures form
    its {e train}: an intrusive FIFO through the slots, entered in the
    event queue once, keyed by its head.  Each element still claims the
    queue seq a per-packet schedule would have
    ({!Eventq.alloc_seq}), so trains change no event order. *)

type t
type node_id = int

type config = {
  queue_bits : int;  (** default per-link tx queue (1 Mbit ≈ 125 KB) *)
  daemon_period : float;  (** seconds between daemon epochs *)
  daemon_config : Mifo_core.Daemon.config;
  engine_congest_ratio : float;
      (** tx-queue ratio at/above which the engine sees congestion *)
  mss_bits : int;  (** data segment size (paper: 1 KB = 8000 bits) *)
  ack_bits : int;
  series_interval : float;  (** aggregate-throughput bucket width *)
  tag_check : bool;  (** disable only for the loop ablation *)
  ibgp_encap : bool;  (** disable only for the iBGP-cycling ablation *)
  domains : int;
      (** shard the network across this many event loops run on the
          {!Mifo_util.Parallel} pool (default [1] = the serial oracle).
          With [domains > 1] the first {!run} partitions the network by
          AS ({!auto_shards}) unless {!set_shards} installed an explicit
          assignment; results are bit-identical to [domains = 1].
          Mirrors the [MIFO_SIM_DOMAINS] environment variable in the
          CLI. *)
}

val default_config : config

val create : ?config:config -> unit -> t
val config : t -> config

val add_router : t -> as_id:int -> node_id
val add_host : t -> addr:Mifo_bgp.Prefix.addr -> node_id

val connect :
  t ->
  a:node_id ->
  b:node_id ->
  kind_ab:Mifo_core.Engine.port_kind ->
  kind_ba:Mifo_core.Engine.port_kind ->
  rate:float ->
  ?delay:float ->
  ?queue_bits:int ->
  unit ->
  int * int
(** Full-duplex link; returns (port on [a], port on [b]).  [kind_ab] is
    how [a] sees the port toward [b].  Default delay 50 µs.
    @raise Invalid_argument on a non-positive rate or when [a = b].

    A port is a node-local index, [0 .. port_count - 1] in [connect]
    order.  Behind it the simulator keeps a {e port slot}: an int,
    numbered network-wide in [connect] order, so that slots [2k] and
    [2k + 1] are the two ends of the [k]-th link.  A slot indexes flat
    arrays the network owns: its far end (node, port), its
    {!Mifo_core.Engine.port_kind}, its [next_free] and carried-bits
    counters, the head and tail of its packet train, and — per link —
    the rate, delay and queue limit.  One int array maps every node's
    local indices to slots.  There is no record per port or per link:
    a built network is a handful of arrays, and a sharded run's event
    loops write disjoint slots of them. *)

val reserve_ports : t -> int -> unit
(** [reserve_ports t n] makes room for [n] port slots (two per
    {!connect}) in one step — a capacity hint for builders that know
    their link count; without it the arrays grow by doubling. *)

val fib : t -> node_id -> Mifo_core.Fib.t
(** The router's FIB, to be populated by the caller.
    @raise Invalid_argument on a host node. *)

val set_ranked_chooser :
  t -> node_id -> (Mifo_core.Fib.t -> Mifo_core.Fib.entry -> int array -> int) -> unit
(** Installed per router; called by the daemon every epoch
    ({!Mifo_core.Daemon.epoch_ranked}) with the router's FIB, one entry
    and a {!Mifo_core.Fib.max_alts}-port buffer: it writes the entry's
    ranked alternative set into the buffer (best first) and returns its
    length.  The deflected buckets are spread across that set.  A k=1
    chooser writes at most one port.  Without a chooser the daemon keeps
    the configured slot-0 alternative as a singleton set. *)

val spare_capacity : t -> node_id -> int -> float
(** Smoothed spare capacity (bits/s) of the link behind a port since the
    last daemon epoch — the measurement border routers exchange over
    iBGP; typical input for an alt chooser. *)

val add_flow : t -> src:node_id -> dst:node_id -> bytes:int -> start:float -> int
(** A TCP transfer between two hosts; returns the flow id.
    @raise Invalid_argument on non-host endpoints or a bad size. *)

val add_udp_flow :
  t -> src:node_id -> dst:node_id -> bytes:int -> ?burst:int -> start:float -> unit -> int
(** An open-loop UDP-style transfer: the source streams its segments
    back-to-back at the host link's line rate in bursts of [burst]
    (default 32) packets per emission event, self-paced off the link's
    serialization — the software analogue of the testbed's [iperf -u]
    probe traffic that creates the paper's congestion regimes.  No ack
    clock, no retransmission: lost segments stay lost, and the flow's
    [finish] is set only if every segment reaches the sink (the
    completion hook fires there too).  Returns the flow id.
    @raise Invalid_argument on non-host endpoints, a bad size, or a
    non-positive [burst]. *)

val run : ?until:float -> t -> unit
(** Process events until the queue drains or simulated [until]
    (default: drain).

    When [config.domains > 1] (or {!set_shards} was called), the first
    [run] activates sharded execution: one event loop per shard,
    advanced in conservative time windows of length [lookahead] (the
    minimum latency over cut links) on the {!Mifo_util.Parallel} pool,
    with boundary packets exchanged through per-shard-pair mailboxes
    drained at window barriers in (arrival time, source seq, source
    shard) order.  The merged run is bit-identical to the serial
    engine: same {!counters}, {!flow_results}, {!throughput_series} and
    {!events_processed}.  Two sharded-mode caveats: completion hooks
    fire at window barriers (in (finish time, flow id) order) rather
    than mid-window, and an installed tracer forces the serial path —
    per-hop callbacks into user code cannot run concurrently. *)

(** {1 Sharding} *)

val set_shards : t -> int array -> unit
(** [set_shards t assign] pins each node to a shard (one entry per
    node, ids [0..]) before the first {!run}; overrides
    {!auto_shards}.  @raise Invalid_argument after the first run, on a
    length mismatch, a negative id, or a zero-latency cross-shard link
    (which would leave no lookahead window). *)

val auto_shards : t -> domains:int -> unit
(** Partition the network into [domains] shards along AS boundaries:
    the AS quotient graph (router counts as weights, minimum inter-AS
    link latency as edge latencies) is split by
    {!Mifo_topology.Partition.partition}, so iBGP meshes and host links
    never cross shards and only high-latency inter-AS links are cut.
    Called automatically by the first {!run} when [config.domains > 1]
    and no explicit assignment exists. *)

type shard_stats = {
  shards : int;  (** event loops actually running (1 = serial) *)
  cut_links : int;  (** full-duplex links crossing shard boundaries *)
  lookahead : float;  (** conservative window length, seconds *)
  windows : int;  (** fork/join windows executed so far *)
  barrier_ticks : int;  (** daemon ticks run at window barriers *)
}

val shard_stats : t -> shard_stats

val now : t -> float

val events_processed : t -> int
(** Total simulator events handled so far (packet arrivals, flow starts,
    timeouts, daemon ticks) — the denominator of the events/sec
    benchmark. *)

(** {1 Results} *)

type flow_result = {
  flow : int;
  start : float;
  finish : float option;  (** completion time of the whole transfer *)
  bytes : int;
}

val flow_results : t -> flow_result array

val throughput_series : t -> (float * float) array
(** (bucket start time, aggregate goodput in bits/s) measured at the
    receiving hosts. *)

type counters = {
  delivered_packets : int;
  dropped_queue : int;
  dropped_ttl : int;
  dropped_valley : int;
  dropped_no_route : int;
  encapsulated : int;  (** packets tunneled between iBGP peers *)
  deflected : int;  (** packets sent via an alternative (eBGP) port *)
}

val counters : t -> counters

val path_switches : t -> (int * int) list
(** Per flow id, how many times its egress port changed at some router —
    the testbed view of Fig. 9's switch count. *)

(** {1 Packet conservation}

    Every packet a host originates ends in exactly one place, so at any
    point of a run (between {!run} calls, or after one)
    [originated = delivered_packets + acks_absorbed + strays_absorbed
    + dropped_queue + dropped_ttl + dropped_valley + dropped_no_route
    + in_flight]. *)

val originated : t -> int
(** Packets sent by hosts: data segments (first transmissions,
    retransmissions, UDP) and ACKs. *)

val acks_absorbed : t -> int
(** ACKs absorbed at the sender of their flow. *)

val strays_absorbed : t -> int
(** Packets absorbed at a host with no use for them: data for a flow
    with no receiver or sink there, an ACK for a flow it does not
    send. *)

val in_flight : t -> int
(** Packets still in the network: live arena slots (queued on a link,
    in a train or in an [Arrive] event) plus boundary packets parked in
    a sharded run's mailboxes. *)


(** {1 State export}

    Read-only views of the built network for the static verifier
    ({!Mifo_analysis}): it audits FIBs against RIBs and walks the product
    forwarding automaton over these accessors without touching any
    mutable simulator state. *)

type node_view =
  | Router_view of { as_id : int }
  | Host_view of { addr : Mifo_bgp.Prefix.addr }

val node_count : t -> int
val node_view : t -> node_id -> node_view

val port_count : t -> node_id -> int

val port_kind : t -> node_id -> int -> Mifo_core.Engine.port_kind
(** How the node sees its port [p] — exactly the view the engine's env
    exposes during forwarding. *)

val port_peer : t -> node_id -> int -> node_id * int
(** [(peer node, peer's port)] at the far end of the link behind a port. *)

val ibgp_route : t -> node_id -> node_id -> int
(** [ibgp_route t r peer] is the local port of router [r] carrying its
    iBGP session toward router [peer], or [-1] when there is none — the
    engine's [route_to_peer], i.e. how an in-transit tunnel is steered.
    Allocates nothing.
    @raise Invalid_argument on a host node. *)

(** {2 Allocation-free views}

    The same facts as {!node_view} and {!port_peer}, for loops that
    visit every FIB entry at full-Internet scale: none of these
    allocates. *)

val is_router : t -> node_id -> bool

val router_as : t -> node_id -> int
(** The AS of a router, as in [Router_view].
    @raise Invalid_argument on a host node. *)

val host_addr : t -> node_id -> Mifo_bgp.Prefix.addr
(** The address of a host, as in [Host_view].
    @raise Invalid_argument on a router node. *)

val port_peer_node : t -> node_id -> int -> node_id
(** The first component of {!port_peer}. *)

val port_rate : t -> node_id -> int -> float
(** The rate (bits/s) of the link behind a port, as given to {!connect}. *)

val port_delay : t -> node_id -> int -> float
(** The propagation delay (seconds) of the link behind a port. *)

val port_queue_bits : t -> node_id -> int -> int
(** The tx-queue limit (bits) of the link behind a port: [connect]'s
    [queue_bits], or the config's default. *)

val set_completion_hook : t -> (int -> unit) -> unit
(** Called (with the flow id) the moment a sender sees its last byte
    acknowledged; may add new flows — how the testbed chains its
    back-to-back transfers. *)

val set_tracer :
  t -> (float -> int -> Mifo_core.Packet.t -> Mifo_core.Engine.action -> unit) -> unit
(** Install a per-hop trace hook: called with (time, router node, packet
    as received, engine action) for every packet a router processes.
    Used by tests and debugging tools to reconstruct packet paths.  The
    [Packet.t] and the {!Mifo_core.Engine.action} are built from the
    arena slot only while a tracer is installed. *)
