(** Reference oracle for {!Mifo_analysis.Net_check.audit_fibs}: the
    audit as first written, which builds each entry's prefix string and
    each port's role string before any check runs and looks an eBGP
    port's destination up with a [List.find_opt] over [routing].  Same
    checks, same violations in the same order, same entry count. *)

val audit_fibs :
  Mifo_netsim.Packetsim.t ->
  routing:(int * Mifo_bgp.Routing.t) list ->
  Mifo_analysis.Report.violation list * int
