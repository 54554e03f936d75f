(** The deflection product automaton, factored out of {!As_check}.

    For one destination, the reachable forwarding behaviours of MIFO's
    data plane form a finite automaton over product states [(AS, tag)]:
    from every AS the packet may follow the default route (never
    checked) or deflect onto another admissible RIB route, gated by the
    exit-point Tag-Check; the tag is rewritten at each entering point
    ({!Mifo_core.Policy}).  This module owns the one transition function
    ({!iter_succ}, iterated through the packed CSR accessors, so
    traversals at 44K never leave the arena), the packed state encoding,
    the overlay hooks the checkers compose (withdrawn deflections,
    failed links, local repair), epoch-stamped scratch, and the
    forward/co-reachability traversals the property checkers
    ({!As_check} loop-freedom, {!Props} delivery / stretch / resilience)
    share. *)

type move = {
  at : int;  (** the AS making the decision *)
  tag : bool;  (** the tag the packet carries there *)
  via : int;  (** the chosen next-hop AS *)
  slot : int;  (** RIB index of the choice: 0 = default, i = i-th alternative *)
  deflected : bool;  (** [false] = default route, [true] = deflection *)
}

(** Edge masks composed into the transition relation.
    [deflection_enabled] gates deflection edges only (withdrawn RIB
    alternatives, see {!fail_link}; the default route is never masked
    by it).  [link_enabled] gates {e every} edge over a
    directed link, default included — a failed physical link.  [repair]
    is [(node, slot)]: at [node] the default edge is RIB entry [slot]
    instead of entry 0, taken unconditionally (the locally repaired
    default after its link died); entry [slot] stops being a
    deflection. *)
type overlay = {
  deflection_enabled : at:int -> via:int -> bool;
  link_enabled : at:int -> via:int -> bool;
  repair : (int * int) option;
}

val default_overlay : overlay
(** Everything enabled, no repair — the healthy data plane. *)

val fail_link : Mifo_bgp.Routing.t -> u:int -> v:int -> overlay
(** The single-link-failure model for the failed default-tree link
    [(u, v = next_hop u)]: both directions of the link masked, [u]'s
    default repaired by {!Mifo_core.Alt_select.local_repair} (slot 1 —
    RIB vias are distinct neighbors) when [rib_size u >= 2],
    and every RIB alternative whose recorded route runs through [u]
    (i.e. whose via sits in [u]'s default subtree) withdrawn everywhere
    — those advertisements are broken by the failure.  Below
    [rib_size u >= 2] the node is unprotectable and no repair is
    installed — the delivery check then reports the stranding.

    Because [u]'s own alternatives never route through [u] (BGP loop
    filter), the repair always survives the withdrawal, and no
    surviving edge re-enters [u]'s subtree: a loop-free base automaton
    provably stays loop-free under this overlay. *)

type t

val create :
  ?tag_check:bool ->
  ?overlay:overlay ->
  ?k:int ->
  Mifo_topology.As_graph.t ->
  Mifo_bgp.Routing.t ->
  t
(** [?k] bounds deflections to the first [k] RIB alternatives; omitted =
    every RIB alternative is admissible.  The state space is [(AS, tag)]
    either way: transitions never depend on how a packet entered an AS,
    so the bound only removes edges.  [move.slot] still records the RIB
    index of each hop, so counterexamples name the ranked alternative
    they use. *)

val n_states : t -> int
(** [2 * n] — size of the [(AS, tag)] state space, at every [k]. *)

val dest : t -> int
val routing : t -> Mifo_bgp.Routing.t
val graph : t -> Mifo_topology.As_graph.t

val enc : t -> int -> bool -> int
(** [enc t v tag] — packed state index, in \[0, {!n_states}). *)

val iter_succ : t -> int -> bool -> f:(move -> int -> bool -> unit) -> unit
(** The transition function: calls [f move successor successor_tag] for
    every outgoing transition of [(v, tag)].  Order is load-bearing and
    stable: the (possibly repaired) default edge first, then deflections
    by ascending RIB index — {!As_check.find_loop} counterexamples are
    bit-identical to the historical checker because this order is.
    Nothing at the destination and at RIB-less nodes. *)

val edges : t -> int -> bool -> (move * int * bool) list
(** {!iter_succ}'s transitions collected into a list, in its order. *)

val script :
  ?cycle:int ->
  move array ->
  as_id:int ->
  upstream:int option ->
  entries:Mifo_bgp.Routing.rib_entry list ->
  Mifo_core.Loop_walk.decision
(** A decision script for {!Mifo_core.Loop_walk.walk}: the [i]-th call
    plays move [i] ([Deflect via] for a deflection, [Default] for the
    default route).  Past the end it repeats the last [cycle] moves
    forever when [cycle > 0] (a loop counterexample), else it takes
    defaults (delivery and stretch witnesses).  Stateful: one script per
    walk. *)

(** Epoch-stamped per-state scratch: an int map whose clear is O(1)
    (bump the epoch), so per-destination / per-failed-link rounds never
    memset the state arrays.  Unstamped cells read 0. *)
module Scratch : sig
  type t

  val create : unit -> t

  val round : t -> states:int -> unit
  (** Start a fresh round over [states] cells: O(1) unless the capacity
      must grow. *)

  val get : t -> int -> int
  val set : t -> int -> int -> unit
end

val co_reach : t -> scratch:Scratch.t -> int -> bool -> bool
(** [co_reach t ~scratch v tag] — can state [(v, tag)] reach the
    destination?  Memoized in [scratch] (call {!Scratch.round} with
    {!n_states} cells once per automaton, then share the scratch across
    queries).  Exact only on an acyclic automaton — run the loop check
    first; on a cyclic one, states on a cycle conservatively read as not
    delivering. *)

val cycle_from : t -> scratch:Scratch.t -> seeds:int list -> bool * int
(** [cycle_from t ~scratch ~seeds] — is a cycle reachable from any state
    [(seed, tag)]?  Returns the verdict and the states explored.
    Sound as a {e delta} certificate: when the automaton was acyclic
    before a change and every added edge touches a seed node, a [false]
    answer proves the whole automaton still acyclic (a new cycle must
    traverse an added edge).  A [true] answer is only a smell — the
    cycle may be outside the root-reachable region; escalate to the full
    check.  Starts its own {!Scratch.round}. *)

val iter_reachable :
  t -> scratch:Scratch.t -> f:(int -> bool -> move option -> unit) -> unit
(** Forward reachability from every source root
    [(v, source_tag)]: calls [f v tag entering_move] once per reachable
    state in first-visit order.  [entering_move] is [None] at roots,
    else the move by which the traversal first reached the state — a
    parent pointer ([(move.at, move.tag)] is the parent state) from
    which concrete decision scripts are rebuilt.  Uses the same scratch
    protocol as {!co_reach} (fresh {!Scratch.round} required; cells are
    left nonzero for every visited state). *)
