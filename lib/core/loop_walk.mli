(** Hop-by-hop AS-level forwarding walks, with and without the Tag-Check.

    This is the executable counterpart of the paper's Theorem (Section
    III-A3): it replays a packet's AS-level trajectory under an arbitrary
    deflection strategy and reports whether it was delivered, dropped by
    the valley-free check, or caught in a loop.  The property-based tests
    verify the theorem with it (with the check on, no strategy can loop a
    packet), and the ablation bench reproduces the Fig. 2(a) loop with
    the check off.

    The walk has no forwarding rule of its own: every hop is decided by
    the production {!Engine.decide}.  Each AS is one replay router whose
    port [i] is its [i]-th neighbour ({!Mifo_topology.As_graph.neighbors})
    over an eBGP session, with a one-entry FIB toward the destination.
    The strategy's choice is installed there — the default route as the
    entry's default port and a deflection as a one-slot ranked set with
    every bucket deflected — and the egress is whatever the engine
    returns, so the walk's decisions are counted under the [engine.*]
    metrics like any packet's. *)

type decision =
  | Default  (** follow the default next hop *)
  | Deflect of int  (** deflect to this RIB neighbor *)

type drop_reason =
  | Valley  (** deflection refused by the engine's Tag-Check *)
  | No_route  (** deflection toward a neighbor that exported no route *)
  | Dead_end  (** a node with an empty RIB *)
  | Link_down
      (** stranded by a failed link: the chosen hop's link is down and —
          for a default hop — no surviving RIB route exists to repair
          onto.  Only reachable with [?link_up]. *)

type outcome =
  | Delivered of int list  (** the full AS path, source to destination *)
  | Dropped of { path : int list; at : int; reason : drop_reason }
  | Looped of { path : int list; cycle : int list }
      (** [path] is the walk up to the point the loop was detected;
          [cycle] is the offending repeating segment (its head and last
          element are the same AS, e.g. [[1; 2; 3; 1]]), so the dynamic
          walker and the static verifier ({!Mifo_analysis}) report
          comparable counterexamples.  [cycle] is empty only when the
          hop budget was exhausted without revisiting a
          (AS, upstream) state. *)

val walk :
  ?tag_check:bool ->
  ?link_up:(int -> int -> bool) ->
  ?max_hops:int ->
  Mifo_topology.As_graph.t ->
  Mifo_bgp.Routing.t ->
  decide:
    (as_id:int ->
     upstream:int option ->
     entries:Mifo_bgp.Routing.rib_entry list ->
     decision) ->
  src:int ->
  outcome
(** [walk g rt ~decide ~src] forwards one packet from [src] toward
    [Routing.dest rt].  At every transit AS, [decide] picks the default
    route or a deflection among the RIB [entries] (the full sorted RIB;
    its head is the default).  A [Deflect] to a neighbor that exported no
    route is answered with [Dropped No_route]; a [Deflect] onto the
    default route's neighbour is the default hop.  With [tag_check] (the
    default), a deflection the engine's Tag-Check refuses falls back to
    the default port, and the walk reports that as [Dropped Valley];
    with [tag_check:false] the deflection proceeds unchecked, which is
    the legacy multi-path data plane the theorem shows can loop.

    [?link_up u v] (default: everything up) masks failed physical
    links: a default hop over a down link repairs locally
    ({!Alt_select.local_repair}), or strands the packet with
    [Dropped Link_down] when no route survives; a [Deflect] over a down
    link strands it directly.  This
    is the dynamic counterpart of the static failure model
    ({!Mifo_analysis}'s resilience and delivery checks replay their
    counterexamples through it).

    [max_hops] defaults to [2 * As_graph.n g + 4]; exceeding it (or
    revisiting an AS with the same upstream) reports [Looped], carrying
    the concrete cycle when a state was revisited. *)

val congestion_strategy :
  congested:(int -> int -> bool) ->
  spare:(int -> int -> float) ->
  as_id:int ->
  upstream:int option ->
  entries:Mifo_bgp.Routing.rib_entry list ->
  decision
(** The MIFO strategy: deflect whenever the default egress link is
    congested ([congested u v] on directed link [u -> v]), onto the
    permitted alternative with the most spare capacity, ties to the
    lower neighbor id: the argmax {!Alt_select.best_alternative} takes
    (which returns that alternative's RIB index, [-1] for none, and
    also applies the valley-free filter; here the engine's Tag-Check
    does). *)
