(** Router-level expansion of an AS topology.

    The paper's simulation "expands several tier-1 ASes to capture all of
    their internal topologies at the router level", assuming the border
    routers of an expanded AS form a full iBGP mesh.  This module
    computes that expansion: each selected AS is split into several
    border routers and every inter-AS link is pinned to a specific border
    router on each side.

    The expansion is pure data in flat int arrays —
    [Mifo_netsim.As_network.build ~expansion] turns it into a running
    network, with a full iBGP mesh inside every multi-router AS.
    Multi-router ASes are where MIFO's IP-in-IP mechanics matter: the
    default and the alternative path may exit through {e different}
    border routers, so a deflection must tunnel across the iBGP mesh
    (Fig. 2(b)). *)

type t = private {
  graph : As_graph.t;  (** the underlying AS graph *)
  first_router : int array;
      (** [n + 1] entries: AS [v]'s routers are the ids
          [first_router.(v) .. first_router.(v + 1) - 1] (at least one);
          routers are numbered in AS order *)
  as_of_router : int array;  (** router id -> AS id *)
  link_router : int array array;
      (** parallel to [As_graph.neighbors graph u]: [link_router.(u).(i)]
          is the router of [u] owning its link to its [i]-th neighbour *)
}

val router_count : t -> int

val expand :
  ?links_per_router:int -> ?max_routers:int -> seed:int ->
  As_graph.t -> expand:int list -> t
(** [expand ~seed g ~expand] splits each AS in [expand] into
    [ceil (degree / links_per_router)] border routers (at most
    [max_routers], default 8; [links_per_router] defaults to 8), and
    assigns its inter-AS links to them in a seeded random round-robin.
    Every other AS keeps a single router that owns all its links.

    @raise Invalid_argument on out-of-range AS ids. *)

val expand_tier1 : ?links_per_router:int -> ?max_routers:int -> seed:int -> Generator.t -> t
(** The paper's choice: expand exactly the tier-1 ASes. *)
