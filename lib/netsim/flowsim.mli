(** Flow-level network simulation over the AS graph.

    This is the substrate for the paper's AS-scale experiments (Figs. 5,
    6, 8, 9): flows arrive over time, share directed inter-AS links under
    max-min fairness, and a per-protocol controller re-routes them each
    epoch:

    - {b BGP}: every flow stays on its default path for life.
    - {b MIFO}: each epoch, every flow crossing a congested link whose
      egress AS is MIFO-capable may be deflected there — hop-by-hop, onto
      the RIB alternative with the most spare capacity on its direct
      link, subject to the valley-free deflection rule
      ({!Mifo_core.Policy}) and only when the spare exceeds the flow's
      current rate by the improvement margin.  Deflected flows resume the
      default path once its bottleneck drains below the clear threshold
      (hysteresis).  Spare capacity is consumed greedily within an epoch
      so concurrent deflections do not stampede onto one link.
    - {b MIRO}: a flow whose {e source} AS is MIRO-capable may switch the
      whole flow onto one of the source's negotiated alternative
      end-to-end paths (same local-preference class as the default, via
      MIRO-capable neighbors, at most [miro_cap] of them), choosing the
      candidate with the largest bottleneck spare.

    Rates come from the incremental {!Maxmin.Solver}.  An epoch in which
    no arrival, completion, path switch or link failure touched the
    solver skips the solve: re-solving would reproduce the same bits.

    Everything is deterministic: epochs, greedy orders and tie-breaks are
    fixed, so a (topology, traffic, protocol) triple always reproduces
    the same figure. *)

type protocol =
  | Bgp
  | Mifo of Mifo_core.Deployment.t
  | Miro of { deployment : Mifo_core.Deployment.t; cap : int }

type alt_selection =
  | Greedy_local  (** the paper's rule: spare capacity of the direct link *)
  | Oracle_bottleneck
      (** ablation only: true end-to-end bottleneck spare of each
          candidate — information a real border router cannot have *)

type params = {
  link_capacity : float;  (** bits/s on every inter-AS link (paper: 1 Gbps) *)
  dt : float;  (** epoch length, seconds *)
  congest_threshold : float;  (** utilization at/above which a link is congested *)
  clear_threshold : float;  (** utilization at/below which a default path is drained *)
  improve_margin : float;  (** required spare / current-rate advantage to move *)
  miro_reaction : float;
      (** MIRO's control-plane reaction period, seconds: negotiation-based
          path switching cannot track data-plane congestion epoch by
          epoch, which is the paper's core motivation for moving
          multi-path to the data plane *)
  max_time : float;  (** simulation horizon, seconds *)
  series_interval : float;  (** aggregate-throughput sampling period *)
  alt_selection : alt_selection;
}

val default_params : params

type flow_spec = { src : int; dst : int; size_bits : float; start : float }

type flow_stats = {
  spec : flow_spec;
  throughput : float;  (** average: bits transferred / active time *)
  finish : float;
  completed : bool;
  switches : int;  (** path changes (deflections and reverts) — Fig. 9 *)
  used_alt : bool;  (** ever carried on a non-default path — Fig. 8 *)
  alt_time : float;  (** seconds spent on a non-default path *)
  final_path : int array;  (** the AS path the flow ended on *)
  final_rate : float;  (** allocated rate in the flow's last epoch *)
}

type result = {
  flows : flow_stats array;
  offload_fraction : float;  (** fraction of flows that used an alternative path *)
  series : (float * float) array;  (** (time, aggregate throughput in bits/s) *)
  epochs : int;
  solves : int;
      (** max-min solves actually run; < [epochs] when clean epochs were
          skipped *)
  sim_end : float;
}

val run :
  ?params:params ->
  ?failures:(float * (int * int)) list ->
  Mifo_bgp.Routing_table.t ->
  protocol ->
  flow_spec array ->
  result
(** [run table protocol flows].  Flow endpoints must be distinct ASes in
    range; flows are processed in array order for all greedy decisions.

    [failures] is a list of [(time, (u, v))] link failures: at [time] the
    physical link between the adjacent ASes [u] and [v] loses (almost)
    all capacity in both directions.  BGP flows crossing it stall — the
    control plane's repair is far slower than the simulation horizon —
    while MIFO-capable ASes route around the failure at the data plane,
    exactly as they route around congestion.

    @raise Invalid_argument on a bad flow spec or failure spec, among
    them a non-finite [size_bits], [start] or failure time (the message
    names the field). *)

val throughputs : result -> float array
(** Per-flow average throughput, the series the paper's CDFs are drawn
    from. *)
