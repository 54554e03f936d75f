(** IPv4 addresses and prefixes.

    The AS-level simulations identify destinations by AS id, but the
    forwarding engine and the testbed operate on packets with real IP
    headers (including the IP-in-IP outer header), so they need prefixes
    and longest-prefix matching. *)

type addr = int32

val addr_of_string : string -> addr
(** Dotted quad of decimal bytes 0..255.
    @raise Invalid_argument on malformed input, including any byte
    that is not plain decimal ([0x0a], [1_0], [+7]). *)

val addr_to_string : addr -> string

type t = { network : addr; length : int }
(** Invariant: host bits of [network] are zero and
    [0 <= length <= 32]; enforced by the constructors. *)

val make : addr -> int -> t
(** Masks host bits. *)

val of_string : string -> t
(** ["10.1.2.0/24"]: a dotted quad, ['/'], and a decimal length 0..32.
    @raise Invalid_argument on anything else. *)

val to_string : t -> string
val contains : t -> addr -> bool
val compare : t -> t -> int
val equal : t -> t -> bool

val of_as : int -> t
(** A deterministic /24 for an AS id: the convention used throughout the
    simulators to give every AS an announced prefix. *)

val to_as : t -> int option
(** The inverse of {!of_as}; [None] for a prefix outside its layout. *)

val host_of_as : int -> int -> addr
(** [host_of_as asn i] is host [i] (1-based within the /24) inside
    [of_as asn]. *)

val pp : Format.formatter -> t -> unit
