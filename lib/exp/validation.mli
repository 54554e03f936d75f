(** Cross-validation of the two simulators.

    The AS-scale figures run on the flow-level simulator (max-min fluid
    model); the testbed runs on the packet-level simulator (real engine,
    real TCP).  This module runs the {e same} scenario on both — a small
    AS topology, the same flow set, BGP and full-MIFO — and reports how
    well they agree:

    + per-flow throughput correlation under BGP (the fluid model should
      track packet-level TCP closely when nothing adapts);
    + the MIFO-over-BGP makespan speedup seen by each simulator (the
      adaptive behaviours should improve both by a similar factor).

    [mifo_sim validate] prints this, and the test suite asserts the
    correlation stays high. *)

type t = {
  flows : int;
  ases : int;
  bgp_correlation : float;  (** Pearson, per-flow throughput, flowsim vs packetsim *)
  bgp_mean_ratio : float;  (** mean (flowsim throughput / packetsim throughput) *)
  flowsim_speedup : float;  (** BGP makespan / MIFO makespan, flow level *)
  packetsim_speedup : float;  (** same, packet level *)
  invariants : (string * bool) list;
      (** Named forwarding invariants checked from {!Mifo_util.Obs}
          counter deltas around the packet-level runs — e.g. no
          valley-violation drops with the tag-check on, no tunnels in a
          network without iBGP ports, engine drop accounting agreeing
          with the simulator's own counters, packet conservation
          ({!Mifo_netsim.Packetsim.originated}) on both legs.  All [true] on a healthy
          build; {!render} prints any violation. *)
  static_report : Mifo_analysis.Report.t;
      (** Static data-plane verifier verdict over the scenario's routing
          state and the MIFO packet network's installed FIBs: AS-level
          loop-freedom and valley-free compliance of every derivable
          path, plus router-level FIB/RIB consistency and product-
          automaton loop-freedom.  Clean on a healthy build; {!render}
          prints the violations otherwise. *)
}

val min_ases : int
(** Smallest topology {!run} accepts (24): the flows' endpoints are
    drawn from that many distinct ASes. *)

val run :
  ?ases:int ->
  ?flows:int ->
  ?flow_bytes:int ->
  ?domains:int ->
  seed:int ->
  unit ->
  t
(** Defaults: 150 ASes, 24 flows of 10 MB.  Deterministic in [seed].
    [domains] (default 1) shards the packet-level simulator across that
    many event loops; sharded runs are bit-identical to serial, so
    validate doubles as an end-to-end audit of the sharded engine.
    @raise Invalid_argument below {!min_ases} ASes. *)

val render : t -> string
