(** Reference oracle for {!Mifo_core.Fib}: the original boxed layout,
    one [Hashtbl] per prefix length holding one mutable record per
    prefix.  It implements the same insert/refresh semantics and entry
    readers and writers, with [size] and [may_deflect] recomputed by a
    scan instead of cached, so a gate can drive both under the same
    churn and compare every observation.  Entries are boxed records
    found through options; the readers take the table only to match
    the flat store's signatures. *)

type t
type entry

val create : unit -> t
val insert : t -> Mifo_bgp.Prefix.t -> out_port:int -> ?alt_port:int -> unit -> unit
val lookup : t -> Mifo_bgp.Prefix.addr -> entry option
val find : t -> Mifo_bgp.Prefix.t -> entry option
val iter : t -> (Mifo_bgp.Prefix.t -> entry -> unit) -> unit
val size : t -> int
val may_deflect : t -> bool
val out_port : t -> entry -> int
val alt_at : t -> entry -> int -> int
val deflect_buckets : t -> entry -> int
val set_alts : t -> entry -> int array -> int -> unit
val set_deflect_buckets : t -> entry -> int -> unit
