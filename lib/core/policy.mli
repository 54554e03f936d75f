(** The one-bit valley-free policy on the data plane (Section III-A4).

    The packet entering point tags one bit — 1 iff the upstream neighbor
    is a customer of the local AS — and the exit point checks Eq. 3
    before deflecting onto an alternative path: the deflection is allowed
    iff the bit is set or the alternative's next-hop AS is a customer.
    This module is the single source of truth for that rule; the packet
    engine, the flow-level simulator and the deflection automaton
    (loop-freedom check and Fig. 7's path count) all call it. *)

val tag_of_upstream : Mifo_topology.Relationship.t -> bool
(** The bit written at the entering point: [true] iff the upstream
    neighbor is a [Customer] (packet climbed into us). *)

val check : tag:bool -> downstream:Mifo_topology.Relationship.t -> bool
(** The exit-point check: may the packet leave toward a neighbor with
    relationship [downstream]?  [tag || downstream = Customer]. *)

val deflection_allowed :
  upstream:Mifo_topology.Relationship.t option ->
  downstream:Mifo_topology.Relationship.t ->
  bool
(** AS-level form used by the flow simulator: [upstream = None] means the
    traffic originates inside this AS (always allowed — the RIB route is
    valid from here). *)

val source_tag : bool
(** Tag carried by locally-originated traffic ([true]: a source may use
    any of its RIB routes, mirroring how its own announcements reached
    it). *)
