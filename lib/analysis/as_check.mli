(** AS-level static verification: the deflection product automaton.

    For one destination, the reachable forwarding behaviours of MIFO's
    data plane form a finite automaton over product states
    [(AS, tag bit)]: from every AS the packet may follow the default
    route (never checked) or deflect onto any other RIB route, gated by
    the exit-point Tag-Check; the tag is rewritten at each entering
    point to "the upstream neighbor is my customer" ({!Mifo_core.Policy}).
    Loop-freedom of the data plane (the paper's Theorem, Section III-A3)
    is exactly acyclicity of this automaton from every source state —
    checked here exhaustively, with a concrete counterexample on
    failure that replays through the dynamic walker, hop by hop through
    the production {!Mifo_core.Engine.decide}.  The transition function
    and the state encoding are {!Automaton}'s. *)

type move = Automaton.move = {
  at : int;  (** the AS making the decision *)
  tag : bool;  (** the tag the packet carries there *)
  via : int;  (** the chosen next-hop AS *)
  slot : int;  (** RIB index of the choice: 0 = default, i = i-th alternative *)
  deflected : bool;  (** [false] = default route, [true] = deflection *)
}

type counterexample = {
  dest : int;
  entry : int list;  (** ASes from a source up to (excluding) the cycle head *)
  cycle : int list;  (** the cycle, head repeated last, e.g. [[1;2;3;1]] *)
  entry_moves : move list;  (** one decision per entry AS *)
  cycle_moves : move list;  (** one decision per cycle hop *)
}

type loop_result = { counterexample : counterexample option; states_explored : int }

val find_loop_in :
  ?scratch:Automaton.Scratch.t -> ?dp:Automaton.Scratch.t -> Automaton.t -> loop_result
(** The loop check over an already-built automaton — any overlay, any
    bound.  {!find_loop} below is this over a fresh, healthy automaton;
    the property suite ({!Props}) runs it under failed-link overlays.
    The DFS runs on int frames [(state, position)] in [?scratch]'s stack
    and colours states in its map (a fresh scratch when omitted); a
    [move] is built only when a counterexample is extracted.

    [?dp] asks for the delivery/stretch DP on the same pass: each frame
    folds its successors' values as they finish, so when no cycle is
    found [dp] holds, per packed state, 0 for unreached, 1 for reached
    but unable to reach the destination, and [d + 2] for delivering
    with worst deliverable length [d] (post-order of an acyclic
    automaton is reverse topological, so each value is final).  Without
    [?dp] the loop check does no DP work.  Both scratches start a fresh
    round. *)

val find_loop :
  ?tag_check:bool ->
  ?k:int ->
  Mifo_topology.As_graph.t ->
  Mifo_bgp.Routing.t ->
  loop_result
(** Exhaustive DFS over the product automaton from every source state
    [(s, source_tag)].  [None] counterexample = the data plane is
    loop-free toward this destination for {e every} deflection strategy
    and congestion pattern.  With [tag_check:false] the deflection gate
    is removed — the legacy multi-path ablation, which loops on the
    Fig. 2(a) gadget.

    [?k] models the k-alternative data plane: deflections are bounded
    to the first [k] RIB alternatives — the pool
    {!Mifo_core.Alt_select.ranked_alternatives} draws from, so the
    bounded check soundly over-approximates every ranked set it
    returns.  Choosers that scan the whole RIB (the greedy rule
    [Mifo_netsim.As_network.build] installs) are covered by the
    unbounded check only.  The states stay [(AS, tag)] at every [k];
    counterexample moves name the RIB index of each hop ([move.slot]).  Omitted = the
    unbounded automaton, bit-identical to the historical checker.
    O(states + transitions) = O(V + E). *)

val replay :
  ?tag_check:bool ->
  Mifo_topology.As_graph.t ->
  Mifo_bgp.Routing.t ->
  counterexample ->
  Mifo_core.Loop_walk.outcome
(** Drive {!Mifo_core.Loop_walk.walk} with the counterexample's decision
    script ({!Automaton.script}, cycling its cycle moves).  A genuine counterexample must
    come back [Looped] — the machine check the ablation harness and the
    tests assert.
    @raise Invalid_argument on an empty cycle. *)

val check_paths :
  Mifo_topology.As_graph.t -> Mifo_bgp.Routing.t -> Report.violation list * int
(** Audit every RIB-derivable path of every AS: valley-free compliance
    and advertised-length agreement, plus reachability.  Returns the
    violations and the number of paths checked.  Runs over the packed
    {!Mifo_bgp.Routing.rib_via}/[rib_len_at]/[rib_rel_at] accessors with
    per-destination chain memos — O(1) and allocation-free per RIB
    entry; boxed paths materialise only inside violation records. *)
