(** Synthetic Internet AS topology.

    The paper evaluates on the UCLA IRL AS-topology trace of Nov. 2014
    (Table I: 44,340 ASes, 109,360 links, 69% provider–customer, 31%
    peering).  That trace is not redistributable, so this generator
    produces graphs with the structural properties the evaluation relies
    on: a tier-1 clique, a shallow multi-level transit hierarchy, a
    power-law degree distribution grown by preferential attachment,
    multihomed stubs, heavily-peered content-provider stubs (the Google /
    Facebook role in the traffic model) and a configurable
    provider–customer : peering link mix.  Real traces in CAIDA [as-rel]
    format can be loaded instead through {!As_rel_io}. *)

type role = Tier1 | Transit | Stub

type params = {
  ases : int;  (** total number of ASes (>= 4) *)
  tier1 : int;  (** size of the fully-meshed tier-1 clique *)
  transit_fraction : float;  (** fraction of non-tier-1 ASes that are transit *)
  transit_levels : int;  (** depth of the transit hierarchy below tier-1 *)
  mean_providers : float;  (** mean multihoming degree (providers per AS), >= 1 *)
  peering_ratio : float;  (** target fraction of links that are peering, in \[0, 0.8\] *)
  content_providers : int;  (** number of heavily-peered content stubs *)
  content_peer_span : int * int;  (** min/max peer links per content stub *)
}

val default_params : params
(** 2,000 ASes, 12 tier-1s, 22% transit over 3 levels, mean 2.8 providers,
    31% peering, 12 content providers with 20–80 peers each — a
    laptop-sized graph with the paper's link mix. *)

val paper_scale_params : params
(** Table I scale: 44,340 ASes. *)

type t = {
  graph : As_graph.t;
  roles : role array;
  content : int array;  (** ids of the content-provider stubs, none elsewhere *)
}

val generate : ?params:params -> seed:int -> unit -> t
(** Deterministic in [seed].  The result is connected, its
    provider–customer links form a DAG, and the peering fraction is within
    a few percent of [peering_ratio].

    @raise Invalid_argument on nonsensical parameters. *)

val fig2a_gadget : unit -> As_graph.t
(** The 4-AS topology of the paper's Fig. 2(a): ASes 1, 2, 3 peering
    pairwise, AS 0 a customer of all three.  Node 0 is the customer.
    This is the canonical data-plane loop example used in tests and the
    loop-breaking ablation. *)

val k2_gadget : unit -> As_graph.t
(** A 5-AS topology whose ablated (no Tag-Check) deflection automaton
    toward destination 0 is loop-free at k=1 but loops at k=2: ASes 1
    and 2 each reach 0 through a customer chain (1→3→0, 2→4→0, the
    preferred default), hold a direct peer link to 0 (their
    second-choice RIB entry — a safe delivery sink and the only
    alternative a k=1 data plane can install), and peer with each
    other, making the mutual 1↔2 routes each side's {e third} RIB
    entry.  Only when the ranked set admits the second-ranked
    alternative (k ≥ 2) do the 1→2 and 2→1 deflection edges both
    open, closing the cycle. *)

val black_hole_gadget : unit -> As_graph.t
(** A 4-AS topology that strands packets when one link fails: AS 1 is a
    customer of 2 and 3, which are customers of 0 (the destination).
    Toward 0 every RIB is clean — loops, valleys and stretch all verify
    — but ASes 2 and 3 are single-homed in the RIB sense (their only
    route is the direct provider link to 0), so failing link 2–0
    strands every packet at AS 2 with no repair: the delivery check
    (and only it) must fail under [--fail-link 2:0], with a
    counterexample that replays [Dropped] through the dynamic walker.
    AS 1 deflecting 2→3 survives — which is why the loop check stays
    clean under the same failure. *)

val stretch_gadget : unit -> As_graph.t
(** A 4-AS chain with a shortcut: 1→2→3→0 provider–customer chain
    (downhill toward 0) plus a direct 1→0 link.  Toward destination 0,
    AS 1 defaults to the direct link (len 1) but holds the 3-hop chain
    route as an alternative, and AS 2 holds a 2-hop route via its
    provider 1 next to its 2-hop default via 3.  The worst deliverable
    deflection path (e.g. 2→1→2→3→0 after a 2→1 then 1→2 deflection
    pair... the automaton's tag rewriting admits 2→1, 1→2 exactly once)
    realises stretch 2, so the stretch check — and only it — must fail
    with [--stretch-bound 1] while loops and delivery verify clean. *)
