(** Greedy selection of the best alternative path (Section III-C).

    End-to-end available-bandwidth probing is both too slow for a data
    plane and unscalable across 50K ASes, so MIFO turns "path"
    measurement into "link" monitoring: the priority of an alternative
    path is the spare capacity of the directly connected inter-AS link it
    starts with.  This module ranks the RIB alternatives accordingly and
    applies the valley-free deflection filter, so the flow-level
    simulator, the daemon and the examples share one selection rule.

    For the ablation bench comparing the paper's greedy rule against an
    oracle that knows true end-to-end available bandwidth, use
    {!best_by}. *)

val permitted :
  Mifo_bgp.Routing.t ->
  src_as:int ->
  upstream:Mifo_topology.Relationship.t option ->
  Mifo_bgp.Routing.rib_entry list
(** The RIB alternatives at [src_as] that the Tag-Check allows for
    traffic arriving from [upstream] ([None] = locally originated). *)

val best_alternative :
  Mifo_bgp.Routing.t ->
  src_as:int ->
  upstream:Mifo_topology.Relationship.t option ->
  spare:(int -> float) ->
  int
(** The RIB index (at least [1]) of the permitted alternative whose
    first-hop link has the most spare capacity ([spare nb] = spare
    capacity toward neighbor [nb]); ties go to the lower neighbor id;
    [-1] when nothing is permitted or every permitted link has
    nonpositive spare.  Read the entry with {!Mifo_bgp.Routing.rib_via}
    and friends.  The scan builds no list and no record: beyond what
    [spare] allocates, a call allocates nothing. *)

val best_by :
  Mifo_bgp.Routing.t ->
  src_as:int ->
  upstream:Mifo_topology.Relationship.t option ->
  score:(int -> float) ->
  int
(** Generalized form: maximizes an arbitrary [score i] over the
    permitted alternatives' RIB indices [i] (ties to the lower neighbor
    id), returning the winning index, or [-1] when none is permitted or
    all scores are nonpositive. *)

val ranked_alternatives :
  Mifo_bgp.Routing.t ->
  src_as:int ->
  upstream:Mifo_topology.Relationship.t option ->
  spare:(int -> float) ->
  k:int ->
  Mifo_bgp.Routing.rib_entry list
(** The ranked candidate set for the k-alternative data plane: the
    first [min k Fib.max_alts] RIB alternatives (BGP preference order),
    valley-free-filtered for [upstream] and restricted to first-hop
    links with positive [spare], ordered most spare capacity first
    (ties to the lower neighbor id).  Pool-capping happens {e before}
    filtering, in RIB preference order, so a k-limited static check
    that admits deflections onto the first k RIB alternatives soundly
    over-approximates every set this function can return.  All entries
    are next-hop-disjoint from the default route. *)

val local_repair : Mifo_bgp.Routing.t -> int -> link_up:(int -> bool) -> int
(** Local repair: the RIB index [v] forwards on when [link_up nb] tells
    which of its links are up — [0] while the default's link is up,
    else the first RIB alternative whose link is up (the new default,
    taken without a Tag-Check), [-1] when none survives. *)
