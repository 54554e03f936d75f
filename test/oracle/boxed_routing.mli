(** Reference oracle for {!Mifo_bgp.Routing}: the original boxed
    per-destination computation.  It keeps every per-node route array
    and computes each RIB on demand by scanning the neighborhood and
    sorting.  Accessors mirror {!Mifo_bgp.Routing}'s, so a gate can
    compare them value for value. *)

type t

val compute : Mifo_topology.As_graph.t -> int -> t
val reachable : t -> int -> bool
val best_class : t -> int -> Mifo_bgp.Routing.route_class option
val best_len : t -> int -> int
val next_hop : t -> int -> int option
val customer_route_len : t -> int -> int option
val export_len : t -> int -> int option
val on_selected_path : t -> node:int -> int -> bool
val rib : t -> int -> Mifo_bgp.Routing.rib_entry list
val rib_array : t -> int -> Mifo_bgp.Routing.rib_entry array
