(** The multi-property static verification suite over the deflection
    product automaton ({!Automaton}).

    Four properties per destination, sharing one transition relation:

    - {b loops} — acyclicity from every source state ({!As_check}); the
      paper's Theorem 1.
    - {b delivery} — black-hole freedom: every root-reachable state
      co-reaches the destination.  Sound and complete on an acyclic
      automaton (delivery and stretch are skipped when the loop check
      fails — the loop is the finding).  Counterexamples are concrete
      decision scripts that replay through {!Mifo_core.Loop_walk} and
      come back stranded.
    - {b stretch} — every deliverable deflection path from a source is
      at most its default length plus [stretch_bound] hops; the
      per-source worst-path excess feeds the [check.stretch] histogram
      ({!Mifo_util.Obs}).  Counterexample scripts replay [Delivered] at
      exactly the claimed length.
    - {b resilience} — for each (or a seeded sample of) failed
      default-tree links [(u, next_hop u)], loop-freedom {e and}
      delivery re-verified under the mask + local-repair overlay
      ({!Automaton.fail_link}).  Per link, two O(region) certificates —
      the delta cycle scan seeded at the repaired default and the
      touched-state delivery check — escalate to the full check only on
      a smell, so the sweep is far cheaper than N independent full
      checks while returning bit-identical verdicts.  Links with no
      surviving RIB route are counted unprotectable, not violated. *)

type prop = Loops | Delivery | Stretch | Resilience

val all : prop list
(** In check order: loops, delivery, stretch, resilience. *)

val prop_to_string : prop -> string
val prop_of_string : string -> prop option

val parse_props : string -> (prop list, string) result
(** Comma-separated list, e.g. ["loops,delivery"].  Deduplicates;
    rejects unknown names and the empty list. *)

val default_stretch_bound : int

val verify_dest :
  ?tag_check:bool ->
  ?k:int ->
  ?stretch_bound:int ->
  ?fail_link:int * int ->
  ?fail_links:int ->
  ?seed:int ->
  props:prop list ->
  Mifo_topology.As_graph.t ->
  Mifo_bgp.Routing.t ->
  Report.t
(** Run the requested properties toward one destination.

    [?k] bounds the automaton to the k-alternative data plane, as in
    {!As_check.find_loop}.  [?fail_link] applies a single-link-failure
    overlay ({!Automaton.fail_link}) to the {e whole} check — the
    must-fail gadget legs verify delivery under it; the resilience sweep
    ignores it (it sweeps its own overlays over the healthy base).
    [?fail_links] caps the resilience sweep to a seeded sample of that
    many default-tree links (0, the default, sweeps all of them);
    [?seed] makes the sample deterministic.

    The report's violations are ordered by property (loops, delivery,
    stretch, resilience), then deterministically within each — identical
    at any domain count.  Pure per-destination function: safe to fan out
    over the {!Mifo_util.Parallel} pool with one call per slot. *)

(** {1 Dynamic replays}

    The machine check that a static counterexample is real: drive
    {!Mifo_core.Loop_walk.walk} with the violation's decision script
    ({!Automaton.script}: the moves, then defaults) and its failure
    overlay as [?link_up]. *)

val replay_stranded :
  ?tag_check:bool ->
  Mifo_topology.As_graph.t ->
  Mifo_bgp.Routing.t ->
  path:int list ->
  moves:Automaton.move list ->
  failed_link:(int * int) option ->
  Mifo_core.Loop_walk.outcome
(** Replay a {!Report.Black_hole}'s script from its source.  A genuine
    black hole must come back [Dropped] (stranded at, or downstream of,
    the reported state — the script ends there and the walk continues on
    defaults, which cannot deliver from a non-delivering state).
    @raise Invalid_argument on an empty path. *)

val replay_stretch :
  ?tag_check:bool ->
  Mifo_topology.As_graph.t ->
  Mifo_bgp.Routing.t ->
  path:int list ->
  moves:Automaton.move list ->
  Mifo_core.Loop_walk.outcome
(** Replay a {!Report.Stretch_exceeded}'s worst path.  Must come back
    [Delivered] with exactly [actual_len] hops.
    @raise Invalid_argument on an empty path. *)
