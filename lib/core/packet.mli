(** Packets as the MIFO data plane sees them.

    Besides the usual header fields, a packet carries the two pieces of
    MIFO state from the paper: the one-bit valley-free tag (Section
    III-A4 — in a real deployment an unused MPLS-label bit or a reserved
    IP-header bit) and an optional IP-in-IP outer header identifying the
    deflecting iBGP sender (Section III-B).

    [t] is the value-level view of a packet, used by the tests, the
    examples and the simulator's tracer.  The packet simulator itself
    keeps packets as mutable slots of a flat arena and the engine
    decides on them in place ({!Engine.decide}). *)

type kind = Data | Ack

type encap = {
  outer_src : int;  (** router id of the deflecting iBGP peer *)
  outer_dst : int;  (** router id the packet is tunneled to *)
}

type t = {
  src : Mifo_bgp.Prefix.addr;
  dst : Mifo_bgp.Prefix.addr;
  flow : int;  (** stands in for the 5-tuple: equal ids = same flow *)
  seq : int;
  kind : kind;
  size_bits : int;
  ttl : int;
  vf_tag : bool;  (** the "one bit is enough" valley-free tag *)
  encap : encap option;
}

val default_ttl : int
(** 64, as in common IP stacks. *)

val make :
  ?kind:kind -> ?seq:int -> ?ttl:int -> ?size_bits:int ->
  src:Mifo_bgp.Prefix.addr -> dst:Mifo_bgp.Prefix.addr -> flow:int -> unit -> t
(** A fresh, untagged, unencapsulated packet.  [size_bits] defaults to
    8000 (the paper's 1 KB data packets). *)

val outer_header_bits : int
(** 160: the minimal 20-byte outer IPv4 header an IP-in-IP tunnel adds. *)

val wire_size_bits : t -> int
(** [size_bits] plus 160 bits when an outer IP header is present — the
    encapsulation overhead is accounted for on the wire. *)

val pp : Format.formatter -> t -> unit
