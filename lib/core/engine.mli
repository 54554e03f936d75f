(** The MIFO forwarding engine — Algorithm 1 of the paper.

    This is the data-plane code a border router runs on every packet.  It
    is written against a small environment record so the same engine
    drives the packet-level simulator, the testbed emulation and the unit
    tests that replay the paper's Fig. 2 scenarios.

    Behaviour, following the pseudocode line by line:
    - an IP-in-IP packet addressed to this router is decapsulated and its
      sender (the deflecting iBGP peer) remembered (lines 1–3);
    - an IP-in-IP packet addressed to {e another} router is in transit
      through this AS: it is routed on its outer header toward the
      tunnel endpoint ([env.route_to_peer]) and is never deflected —
      deflecting it out an eBGP port would carry it out of the AS still
      encapsulated, so its tunnel would never terminate.  When no route
      to the endpoint is known the packet follows the default port for
      its inner destination, still without deflection;
    - the FIB gives default and alternative ports (line 4);
    - a packet entering from an eBGP peer is (re)tagged: bit set iff the
      upstream neighbor is a customer (lines 5–10);
    - the packet takes the alternative path when the default egress is
      congested for its flow, or when it was deflected to us by the iBGP
      peer that is our default next hop (line 11; the pseudocode prints
      [GetNextHop(Ialt)], but the accompanying text of Section III-B
      compares the sender against the {e default} next hop — R2's default
      route points back at the deflecting R1 — so that is what we
      implement);
    - an alternative on an iBGP peer means encapsulate-and-tunnel
      (lines 12–15); an alternative on an eBGP peer is used only if the
      Tag-Check passes (lines 16–20).  On a failing check, a packet that
      was tunneled to us by our own default next hop is dropped (sending
      it back would cycle — the pseudocode's line 20), while a locally
      hash-deflected packet falls back to the default egress, which is
      congested but always loop-free;
    - otherwise the packet follows the default port (line 22).

    Congestion response is flow-deterministic: {!Fib.flow_bucket} hashes
    the flow id, and the flow deflects when its bucket is below the
    entry's daemon-controlled {!Fib.deflect_buckets}, so a given flow
    sees a stable path between daemon updates (no reordering).

    The engine also decrements the TTL; [tag_check:false] disables the
    valley-free check (the loop ablation of Section III).

    Every decision is accounted in {!Mifo_util.Obs} under the
    [engine.*] names: per-reason drop counters ([engine.drop.no_route],
    [engine.drop.valley_violation], [engine.drop.ttl_expired]),
    deflection counters ([engine.deflect.ibgp], [engine.deflect.ebgp],
    [engine.deflect.from_sender]), tunnel counters ([engine.encap],
    [engine.decap], [engine.transit.routed],
    [engine.transit.fib_fallback]) and the Tag-Check fallback
    ([engine.tag_check.fallback]).  With tracing enabled the engine also
    records [decap]/[encap]/[transit]/[tag_check_fail]/[drop] events. *)

type port_kind =
  | Ebgp of { neighbor_as : int; rel : Mifo_topology.Relationship.t }
  | Ibgp of { peer_router : int }
  | Local  (** host-facing or intra-AS delivery *)

type env = {
  router_id : int;
  fib : Fib.t;
  port_kind : int -> port_kind;
  is_congested : int -> bool;
      (** instantaneous congestion signal of an egress port; the paper
          leaves the definition open and uses the tx-queue ratio, as do
          our simulators *)
  next_hop_router : int -> int;
      (** router at the far end of a port, [-1] when there is none (eBGP
          and host ports) *)
  route_to_peer : int -> int;
      (** port carrying the iBGP session toward the given router id, used
          to route in-transit tunnels on their outer header; [-1] when
          this router has no session to that peer *)
}
(** The callbacks run on every packet, so they return plain ints and
    preallocated [port_kind]s: a simulator's env allocates nothing per
    call. *)

type drop_reason = No_route | Valley_violation | Ttl_expired

type action =
  | Send of { port : int; packet : Packet.t; default_port : int }
      (** also covers local delivery: the FIB maps a local prefix to a
          [Local] (host-facing) port and the packet is sent out of it.
          [default_port] is the FIB's default egress for the packet's
          (inner) destination, so a caller accounting deflections
          ([port <> default_port]) need not repeat the lookup the engine
          already did; [-1] when the decision involved no FIB entry
          (in-transit tunnels routed on their outer header) *)
  | Drop of { packet : Packet.t; reason : drop_reason }

val forward :
  ?tag_check:bool -> ?ibgp_encap:bool -> env -> ingress:int option -> Packet.t -> action
(** [forward env ~ingress p] processes one packet.  [ingress = None]
    means locally originated (the host side); such packets carry
    {!Policy.source_tag}.  [tag_check] (default [true]) disables the
    valley-free check for the loop ablation; [ibgp_encap] (default
    [true]) disables IP-in-IP for the iBGP-cycling ablation of
    Fig. 2(b).

    A value-level wrapper around {!decide} for tests, examples and
    tracers: it copies [p] into a fresh {!hdr}, decides, and builds the
    {!action} with {!action}. *)

(** {1 The in-place entry point}

    What a simulator runs on every packet at every hop.  The packet's
    forwarding state sits in a small mutable header of immediate fields;
    {!decide} rewrites it in place (TTL, tag, IP-in-IP outer header),
    writes the egress into [port]/[default_port] and returns an
    immediate verdict.  On a warmed FIB, with tracing off, a decision
    allocates nothing. *)

type hdr = {
  mutable dst : int;  (** destination address as a {!Fib.key_of_addr} key *)
  mutable flow : int;
  mutable ttl : int;
  mutable tag : bool;  (** the valley-free tag *)
  mutable outer_src : int;  (** IP-in-IP outer source; [-1] = not encapsulated *)
  mutable outer_dst : int;  (** IP-in-IP outer destination; [-1] = not encapsulated *)
  mutable port : int;  (** out: the egress port of a [Forward] *)
  mutable default_port : int;
      (** out: the FIB's default egress for the (inner) destination, as in
          {!Send}; [-1] when the decision involved no FIB entry *)
}

type verdict =
  | Forward  (** send out of [port] *)
  | Drop_no_route
  | Drop_valley
  | Drop_ttl  (** the header is left untouched *)

val header : unit -> hdr
(** A fresh scratch header (unencapsulated). *)

val decide :
  tag_check:bool -> ibgp_encap:bool -> env -> ingress:int -> hdr -> verdict
(** Algorithm 1 on one header, in place.  [ingress] is the arrival port,
    [-1] for locally originated; the flags are {!forward}'s. *)

val action : Packet.t -> hdr -> verdict -> action
(** The value-level view of a decision: [action p h v] is what
    {!forward} returns when [p] was loaded into [h] and [decide] then
    returned [v]. *)

val drop_reason_to_string : drop_reason -> string
