(** Reference oracle for {!Mifo_core.Fib}: the original boxed layout,
    one [Hashtbl] per prefix length holding one mutable record per
    prefix.  It implements the same insert/refresh/remove semantics and
    entry accessors, with [size] and [may_deflect] recomputed by a scan
    instead of cached, so a gate can drive both under the same churn and
    compare every observation. *)

type t
type entry

val create : unit -> t
val insert : t -> Mifo_bgp.Prefix.t -> out_port:int -> ?alt_port:int -> unit -> unit
val remove : t -> Mifo_bgp.Prefix.t -> bool
val lookup : t -> Mifo_bgp.Prefix.addr -> entry option
val find : t -> Mifo_bgp.Prefix.t -> entry option
val iter : t -> (Mifo_bgp.Prefix.t -> entry -> unit) -> unit
val size : t -> int
val may_deflect : t -> bool
val out_port : entry -> int
val alt_at : entry -> int -> int
val deflect_buckets : entry -> int
val set_alts : entry -> int list -> unit
val set_deflect_buckets : entry -> int -> unit
