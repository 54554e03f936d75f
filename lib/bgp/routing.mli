(** Per-destination interdomain route computation.

    Computes, for one destination AS [d], the stable Gao–Rexford routing
    state of {e every} AS: which neighbors exported a route (the local
    BGP RIB MIFO mines for alternative paths), the selected best route
    and its class, and the default next hop.

    Selection follows the paper exactly (Section IV-A): customer routes
    are preferred over peer routes over provider routes; within a class
    the shorter AS path wins, and the lowest next-hop AS id breaks the
    remaining ties.  Export follows {!Mifo_topology.Relationship.exports_to}:
    an AS advertises only its selected best route, to every neighbor for
    customer routes and only to customers otherwise.

    The algorithm is the standard three-phase propagation over the
    provider hierarchy (customer routes by BFS up the provider edges,
    peer routes in one step, provider routes down the hierarchy in
    topological order) and runs in O(V + E) per destination.

    {b Representation and thread safety.}  A [t] is one flat arena of
    packed RIB cells plus an offset array and a packed DFS labelling of
    the selected-route tree — about [2V] words plus one word per RIB
    entry.  Every per-node accessor ({!next_hop}, {!best_class},
    {!best_len}, {!export_len}, {!customer_route_len}, {!reachable})
    derives from the node's selected route, the first cell of its
    segment.  A [t] is immutable once {!compute} returns, so it can be
    published to other domains and read there without locks — which is
    what {!Routing_table}'s write-once slots do.

    {b Allocation.}  {!compute} allocates the [t] it returns and nothing
    else: the offsets ([n + 1] words), the cells, the packed tree ([n]
    words) and the record, plus the [routing.peak_words] gauge's
    [Gc.quick_stat] record.  Its phases are plain loops over per-domain
    work arrays ([Domain.DLS]), [6n] words: customer-route length,
    exported length and default next hop per AS, the selected-route
    tree's child links, and one buffer that is first the BFS queue and
    then the DFS stack.  They grow to the largest graph a domain has
    seen and are kept after the call (about 2.1 MB per domain at 44,340
    ASes); each call resets what it reads of [[0, n)], so results
    do not depend on what the domain computed before.  Two systhreads of
    one domain would share the scratch, so they must not run {!compute}
    at the same time (the library starts none).  A tier-1 test pins the
    allocation at the arena's words plus a small constant. *)

type route_class = Customer_route | Peer_route | Provider_route

val class_rank : route_class -> int

type t
(** Routing state toward one destination. *)

val dest : t -> int

val compute : Mifo_topology.As_graph.t -> int -> t
(** [compute g d].  @raise Invalid_argument if [d] is out of range. *)

val reachable : t -> int -> bool
(** Every AS is reachable in a connected topology (provider routes reach
    everywhere), but the accessor keeps callers honest on subgraphs. *)

val best_class : t -> int -> route_class option
(** [None] at the destination itself or when unreachable. *)

val best_len : t -> int -> int
(** AS-path length (in AS hops) of the selected route; [0] at the
    destination.  @raise Invalid_argument when unreachable. *)

val next_hop : t -> int -> int option
(** Default next hop; [None] at the destination. *)

val customer_route_len : t -> int -> int option
(** Length of the best customer-learned route at an AS, if any.  The
    export rules make this the value a neighbor sees when this AS
    advertises to a provider or peer. *)

val export_len : t -> int -> int option
(** Length of the route this AS advertises to its customers (= its best
    route), if reachable. *)

val default_path : t -> int -> int list
(** [default_path t s] is the full default AS path [s; ...; d] obtained by
    following default next hops.  At most [V] hops by construction. *)

(** {1 The local RIB} *)

type rib_entry = {
  via : int;  (** the neighbor that exported the route *)
  rel : Mifo_topology.Relationship.t;  (** that neighbor's role relative to us *)
  len : int;  (** AS-path length of the route via this neighbor *)
}

val rib : t -> int -> rib_entry list
(** All routes in the local RIB of an AS toward [dest t], one per
    exporting neighbor, sorted best-first (class, then length, then
    next-hop id).  The head is the default route.  Empty at the
    destination.  Decoded from the arena on every call, so it
    allocates; per-epoch and per-FIB-entry loops use {!rib_size} and
    the entry accessors below instead. *)

val rib_array : t -> int -> rib_entry array
(** The same RIB as a fresh array. *)

val rib_size : t -> int -> int
(** Number of RIB entries at an AS — O(1) and allocation-free (an
    offset subtraction). *)

(** {2 Allocation-free entry accessors}

    [rib_via t v i] / [rib_len_at t v i] / [rib_rel_at t v i] read field
    by field what [(rib_array t v).(i)] holds, without materialising the
    boxed view — index [0] is the default route, [1 ..] the
    alternatives, exactly {!rib}'s order.  They are plain reads of the
    packed cell arena; the static verifier's product-DFS, the
    alternative selectors and MIRO's candidate scan iterate RIBs this
    way.  Indices must be [< rib_size t v]. *)

val rib_via : t -> int -> int -> int
val rib_len_at : t -> int -> int -> int
val rib_rel_at : t -> int -> int -> Mifo_topology.Relationship.t

val rib_entry_at : t -> int -> int -> rib_entry
(** [rib_entry_at t v i] builds [(rib_array t v).(i)] alone: one small
    record, for a scan that keeps only a few of the entries it reads. *)

val rib_path : t -> int -> rib_entry -> int list
(** [rib_path t v e] is the concrete AS path [v; e.via; ...; dest t]
    advertised by the RIB entry [e] at [v].  Because Gao–Rexford
    selection prefers customer routes, the advertised route coincides
    with the neighbor's selected default path in every export case, so
    the result is [v :: default_path t e.via].  Its hop count equals
    [e.len]; the static verifier ({!Mifo_analysis}) checks both that and
    its valley-freeness for every entry of every RIB.
    @raise Invalid_argument if [e] is not a live export (never for
    entries returned by {!rib}). *)

val rib_paths : t -> int -> (rib_entry * int list) list
(** Every RIB entry at an AS paired with its {!rib_path} — the full set
    of paths MIFO forwarding can put a packet on from that AS. *)

val on_selected_path : t -> node:int -> int -> bool
(** [on_selected_path t ~node x] — does [x] lie on [node]'s selected
    default path (endpoints included)?  O(1) against the DFS interval
    labelling built at construction; this is the predicate behind
    [rib]'s BGP loop filter. *)
