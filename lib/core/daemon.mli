(** The MIFO daemon — the control-plane half of the prototype (Section V).

    In the paper's implementation this is a XORP module: it obtains
    alternative paths from the BGP module, collects per-link utilization
    from the kernel forwarding engine, exchanges measurements with iBGP
    peers over the existing TCP sessions, and updates the alternative
    ports in the FIB.  Here it is a pure epoch function over a {!Fib.t}
    plus callbacks, so the packet simulator and the testbed can run it
    at any cadence.

    Each epoch, for every FIB entry the daemon
    + refreshes the ranked alternative set (best spare capacity first,
      greedy rule).  The ramp state is {e per-set}: when at least one
      previously installed alternative survives the refresh, the
      accumulated deflection level is held — a congested or withdrawn
      slot drops out without resetting the others' ramp (the bucket→slot
      spread re-deals its share to the survivors instantly) — while a
      wholly fresh set is cold and possibly slower, so it must not
      inherit the share ramped up against the old one and the level
      resets to zero;
    + ramps the deflection level up while the default egress stays above
      the congestion threshold {e and the least-loaded alternative still
      has headroom} — once everything runs hot the split is held, and it
      ramps back down when the default drains below the clear threshold
      (hysteresis keeps path switching rare — Fig. 9).  The level is
      clamped to \[0, {!Fib.buckets}\] and the ramp counters account
      only buckets actually shifted: an entry already at an edge emits
      no spurious [daemon.ramp_up_buckets]/[daemon.ramp_down_buckets]
      count.

    The epoch is accounted in {!Mifo_util.Obs}: [daemon.alt_changed]
    (any change to the ranked set), [daemon.slots_rotated] (set changed
    but overlaps the old one — ramp held), [daemon.buckets_reset],
    [daemon.ramp_up_buckets] / [daemon.ramp_down_buckets] (total buckets
    shifted) and the [daemon.port_util.out] / [daemon.port_util.alt]
    utilization histograms. *)

type config = {
  congest_threshold : float;  (** egress utilization >= this = congested (default 0.9) *)
  clear_threshold : float;  (** utilization <= this = drained (default 0.6) *)
  ramp_up : int;  (** buckets added per congested epoch (default 2) *)
  ramp_down : int;  (** buckets removed per drained epoch (default 1) *)
}

val default_config : config

val epoch_ranked :
  ?config:config ->
  fib:Fib.t ->
  port_utilization:(int -> float) ->
  choose_alts:(Fib.t -> Fib.entry -> int array -> int) ->
  unit ->
  unit
(** One daemon tick over ranked sets.  [port_utilization p] is the
    smoothed utilization of egress port [p] in \[0, 1\];
    [choose_alts fib entry buf] writes the entry's ranked alternative
    ports into [buf] (best first; [buf] holds {!Fib.max_alts} ports and
    is owned by the daemon, reused across entries) and returns how many
    it wrote; {!Fib.set_alts} then installs them, dropping negatives.
    The chooser reads what it needs of the entry through [fib] — the
    destination through {!Fib.prefix_key}, the current set through
    {!Fib.alt_at} — so an epoch allocates nothing per entry beyond
    [port_utilization]'s floats.  Examples:
    {!Alt_select.ranked_alternatives} plus the router's port map, or the
    greedy rule [Mifo_netsim.As_network.build] installs on the packet
    networks' routers, which scans every RIB alternative.  A chooser
    that is not capped to the first [k] RIB alternatives is covered
    only by the unbounded static check. *)

val is_congested : ?config:config -> float -> bool
(** The congestion predicate on a utilization sample, shared with the
    engine's [is_congested] callback. *)
