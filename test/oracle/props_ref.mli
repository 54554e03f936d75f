(** Reference oracle for {!Mifo_analysis.Props.verify_dest}: the
    property suite as first written, one traversal per question.  The
    transition function is a closure [iter_succ] that builds a
    {!Mifo_analysis.Automaton.move} for every edge, and the failure
    overlay is three closures.  The loop check is a DFS over a list of
    frames, each holding its remaining edges; delivery is a forward
    parent sweep plus a list-stack co-reachability memo; stretch is a
    second memoized worst-distance pass; the resilience delta scan is a
    [Stack]-based DFS.  Same verdicts, same violations in the same
    order, same statistics.  It observes nothing into {!Mifo_util.Obs}. *)

val verify_dest :
  ?tag_check:bool ->
  ?k:int ->
  ?stretch_bound:int ->
  ?fail_link:int * int ->
  ?fail_links:int ->
  ?seed:int ->
  props:Mifo_analysis.Props.prop list ->
  Mifo_topology.As_graph.t ->
  Mifo_bgp.Routing.t ->
  Mifo_analysis.Report.t
