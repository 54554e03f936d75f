(** The deflection product automaton, factored out of {!As_check}.

    For one destination, the reachable forwarding behaviours of MIFO's
    data plane form a finite automaton over product states [(AS, tag)]:
    from every AS the packet may follow the default route (never
    checked) or deflect onto another admissible RIB route, gated by the
    exit-point Tag-Check; the tag is rewritten at each entering point
    ({!Mifo_core.Policy}).  This module owns the one transition function
    (an int cursor, {!next}/{!target}, read through the packed CSR
    accessors, so traversals at 44K never leave the arena and box
    nothing per edge), the packed state encoding, the failure overlay
    as data (failed link, local repair, withdrawn subtree),
    epoch-stamped scratch with an int stack, and the co-reachability
    and region cycle scans the property checkers ({!As_check}
    loop-freedom, {!Props} delivery / stretch / resilience) share.
    Partial deployment is a legacy AS that keeps only its default edge.
    Fig. 7's path count and its enumeration ({!path_counts},
    {!enumerate}) walk the same automaton, so the paths the figure
    counts are the ones the loop check proves finite. *)

type move = {
  at : int;  (** the AS making the decision *)
  tag : bool;  (** the tag the packet carries there *)
  via : int;  (** the chosen next-hop AS *)
  slot : int;  (** RIB index of the choice: 0 = default, i = i-th alternative *)
  deflected : bool;  (** [false] = default route, [true] = deflection *)
}

(** A single-link failure, as data: the failed link's endpoints
    ([cut_u], [cut_v]; -1 when healthy) masks {e every} edge over that
    link in both directions, default included; [cut_u] is also the root
    of the withdrawn subtree — a deflection whose via sits in [cut_u]'s
    default subtree (a top-level walk down the default chain) is masked,
    the default route never is.  [repair_at]'s default edge is RIB entry
    [repair_slot] instead of entry 0, taken unconditionally (the locally
    repaired default after its link died); entry [repair_slot] stops
    being a deflection there.  [repair_at] is -1 when nothing is
    repaired. *)
type overlay = { cut_u : int; cut_v : int; repair_at : int; repair_slot : int }

val default_overlay : overlay
(** Nothing cut, nothing withdrawn, no repair — the healthy data plane. *)

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
  ?deployment:Mifo_core.Deployment.t ->
  Mifo_topology.As_graph.t ->
  Mifo_bgp.Routing.t ->
  t
(** [?k] bounds deflections to the first [k] RIB alternatives; omitted =
    every RIB alternative is admissible.  The state space is [(AS, tag)]
    either way: transitions never depend on how a packet entered an AS,
    so the bound only removes edges.  [move.slot] still records the RIB
    index of each hop, so counterexamples name the ranked alternative
    they use.  [?deployment] names the MIFO-capable ASes; a legacy AS
    keeps only its default edge.  Omitted = every AS deploys. *)

val n_states : t -> int
(** [2 * n] — size of the [(AS, tag)] state space, at every [k]. *)

val dest : t -> int
val routing : t -> Mifo_bgp.Routing.t
val graph : t -> Mifo_topology.As_graph.t

val enc : t -> int -> bool -> int
(** [enc t v tag] — packed state index, in \[0, {!n_states}). *)

val node : int -> int
(** The AS of a packed state. *)

(** {1 The transition function}

    An int cursor over the outgoing edges of a packed state [s]: a
    traversal keeps [(s, position)] in int frames and nothing is boxed
    per edge.  Position 0 is the default edge, which may be the
    repaired one; a position [i >= 1] is RIB index [i] taken as a
    deflection.  Order is load-bearing and stable: the default first,
    then deflections by ascending RIB index — {!As_check.find_loop}
    counterexamples are bit-identical to the historical checker because
    this order is.  No edges at the destination and at RIB-less
    nodes. *)

val next : t -> int -> int -> int
(** [next t s p] — the first admissible position of [s] at or after
    [p], or [-1] when none is left.  Start a walk at [next t s 0] and
    step with [next t s (p + 1)]. *)

val target : t -> int -> int -> int
(** [target t s p] — the packed successor state along admissible
    position [p]. *)

val move : t -> int -> int -> move
(** [move t s p] — the decision along admissible position [p], boxed.
    Only counterexample extraction calls it: a [move] exists for the
    hops a violation names, never per edge. *)

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

(** {1 Counting the walks (Fig. 7)} *)

val path_counts : t -> float array
(** [path_counts t] gives, for every AS [v], the number of distinct
    walks from state [(v, Policy.source_tag)] to the destination: 1 at
    the destination, 0 where it is unreachable.  One post-order pass
    over the automaton, boxing nothing per edge; each sum runs in
    position order.  Floats, because dense pairs overflow 63-bit ints
    at scale.
    @raise Invalid_argument when a cycle is reachable (the Tag-Check
    off). *)

val enumerate : t -> src:int -> limit:int -> move array list
(** [enumerate t ~src ~limit] — the first [limit] walks {!path_counts}
    counts from [src], in position order (the default first, then
    deflections by ascending RIB index), each as its moves; [src] is
    the first move's [at] and the last move's [via] is the destination.
    Boxed, for small examples and tests.
    @raise Invalid_argument on a walk longer than the state space (a
    cycle). *)

(** Epoch-stamped per-state scratch: an int map whose clear is O(1)
    (bump the epoch), so per-destination / per-failed-link rounds never
    memset the state arrays.  Unstamped cells read 0.  Beside the map, an
    int stack for DFS frames and work lists; its storage grows on demand
    and outlives the rounds. *)
module Scratch : sig
  type t

  val create : unit -> t

  val round : t -> states:int -> unit
  (** Start a fresh round over [states] cells and empty the stack: O(1)
      unless the capacity must grow. *)

  val get : t -> int -> int
  val set : t -> int -> int -> unit

  val push : t -> int -> unit
  val pop : t -> int
  val depth : t -> int

  val peek : t -> int -> int
  (** [peek t i] — stack cell [i], counted from the bottom. *)

  val poke : t -> int -> int -> unit
end

val co_reach : t -> scratch:Scratch.t -> int -> bool
(** [co_reach t ~scratch s] — can packed state [s] reach the
    destination?  Memoized in [scratch] (call {!Scratch.round} with
    {!n_states} cells once per automaton, then share the scratch across
    queries); works on the scratch's stack.  Exact only on an acyclic
    automaton — run the loop check first; on a cyclic one, states on a
    cycle conservatively read as not delivering. *)

val cycle_from : t -> scratch:Scratch.t -> seeds:int list -> bool
(** [cycle_from t ~scratch ~seeds] — is a cycle reachable from any state
    [(seed, tag)]?  Sound as a {e delta} certificate: when the automaton
    was acyclic before a change and every added edge touches a seed
    node, a [false] answer proves the whole automaton still acyclic (a
    new cycle must traverse an added edge).  A [true] answer is only a
    smell — the cycle may be outside the root-reachable region; escalate
    to the full check.  Starts its own {!Scratch.round}. *)
