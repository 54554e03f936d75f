(* Tests for the testbed emulation (Section V / Figs. 11-12), kept small
   enough for `dune runtest`: short flow chains, 2 MB flows. *)

module Testbed = Mifo_testbed.Testbed
module Packetsim = Mifo_netsim.Packetsim
module Fib = Mifo_core.Fib
module Prefix = Mifo_bgp.Prefix

let small_config =
  { Testbed.default_config with Testbed.flows_per_source = 3; flow_bytes = 2_000_000 }

let medium_config =
  { Testbed.default_config with Testbed.flows_per_source = 4; flow_bytes = 10_000_000 }

let test_build_structure () =
  let net = Testbed.build small_config Testbed.Mifo_routing in
  (* Rd's FIB toward AS5 must have the iBGP alternative installed *)
  let fib = Packetsim.fib net.Testbed.sim net.Testbed.rd in
  match Fib.find fib (Prefix.of_as 5) with
  | -1 -> Alcotest.fail "Rd has no route to AS5"
  | entry -> Alcotest.(check bool) "alt installed" true (Fib.alt_at fib entry 0 >= 0)

let test_build_bgp_has_no_alt () =
  let net = Testbed.build small_config Testbed.Bgp_routing in
  let fib = Packetsim.fib net.Testbed.sim net.Testbed.rd in
  match Fib.find fib (Prefix.of_as 5) with
  | -1 -> Alcotest.fail "Rd has no route to AS5"
  | entry -> Alcotest.(check bool) "no alt under BGP" true (Fib.alt_at fib entry 0 < 0)

let test_bgp_run_completes () =
  let r = Testbed.run ~config:small_config Testbed.Bgp_routing in
  Alcotest.(check int) "all flows finish" 6 (Array.length r.Testbed.fct);
  Alcotest.(check bool) "sane makespan" true (r.Testbed.makespan > 0.05 && r.Testbed.makespan < 10.);
  (* the shared bottleneck caps BGP near 1 Gbps *)
  Alcotest.(check bool) "bottlenecked aggregate" true (r.Testbed.mean_aggregate < 1.1e9);
  Alcotest.(check int) "nothing tunneled under BGP" 0
    r.Testbed.counters.Packetsim.encapsulated

let test_mifo_run_uses_alternative () =
  let r = Testbed.run ~config:small_config Testbed.Mifo_routing in
  Alcotest.(check int) "all flows finish" 6 (Array.length r.Testbed.fct);
  Alcotest.(check bool) "packets tunneled over iBGP" true
    (r.Testbed.counters.Packetsim.encapsulated > 0);
  Alcotest.(check int) "no valley drops in the testbed" 0
    r.Testbed.counters.Packetsim.dropped_valley

let test_mifo_beats_bgp () =
  (* with longer flows the adaptation amortizes: MIFO must deliver clearly
     higher aggregate throughput (paper: +81% with 100 MB flows) *)
  let bgp = Testbed.run ~config:medium_config Testbed.Bgp_routing in
  let mifo = Testbed.run ~config:medium_config Testbed.Mifo_routing in
  let gain = mifo.Testbed.mean_aggregate /. bgp.Testbed.mean_aggregate in
  Alcotest.(check bool)
    (Printf.sprintf "MIFO/BGP aggregate ratio %.2f > 1.1" gain)
    true (gain > 1.1);
  Alcotest.(check bool) "MIFO finishes sooner" true
    (mifo.Testbed.makespan < bgp.Testbed.makespan)

let test_deterministic () =
  let a = Testbed.run ~config:small_config Testbed.Mifo_routing in
  let b = Testbed.run ~config:small_config Testbed.Mifo_routing in
  Alcotest.(check (array (float 1e-12))) "same FCTs" a.Testbed.fct b.Testbed.fct

(* Outputs of [small_config]'s MIFO run, recorded while Rd and Ra still
   registered their choosers through the single-alternative (option
   returning) API.  The ranked choosers that replaced it return [[]] or
   [[p]] and must reproduce the run bit for bit. *)
let test_mifo_run_pinned () =
  let r = Testbed.run ~config:small_config Testbed.Mifo_routing in
  let bits = Array.map Int64.bits_of_float in
  Alcotest.(check (array int64)) "flow completion times"
    [|
      0x3fa08614d77d80c8L; 0x3fa19d1b843fec20L; 0x3fa0289c815581bcL;
      0x3fa170e6471c4980L; 0x3f9a86d9ce67f4e4L; 0x3f9b707939d2a8d0L;
    |]
    (bits r.Testbed.fct);
  Alcotest.(check int64) "makespan" 0x3fb8631f3422c504L (Int64.bits_of_float r.Testbed.makespan);
  Alcotest.(check int64) "mean aggregate" 0x41cc9c3800000000L
    (Int64.bits_of_float r.Testbed.mean_aggregate);
  Alcotest.(check (list (pair int int))) "path switches"
    [ (0, 18654); (1, 21667); (2, 18816); (3, 21499); (4, 18856); (5, 14503) ]
    r.Testbed.switches;
  let c = r.Testbed.counters in
  Alcotest.(check (list int)) "counters" [ 12000; 0; 0; 0; 0; 1396; 2792 ]
    Packetsim.
      [
        c.delivered_packets; c.dropped_queue; c.dropped_ttl; c.dropped_valley;
        c.dropped_no_route; c.encapsulated; c.deflected;
      ]

let test_encap_ablation_breaks_cycling () =
  (* without IP-in-IP, deflected packets ping-pong between Rd and Ra and
     die by TTL - the Fig. 2(b) failure mode *)
  let config =
    {
      small_config with
      Testbed.sim = { small_config.Testbed.sim with Packetsim.ibgp_encap = false };
    }
  in
  let r = Testbed.run ~config Testbed.Mifo_routing in
  Alcotest.(check bool) "TTL deaths without encapsulation" true
    (r.Testbed.counters.Packetsim.dropped_ttl > 0)

(* Packet conservation, checked between [Packetsim.run ~until] steps of
   one daemon period: every packet a host originated is delivered,
   absorbed as an ACK or a stray, dropped, or still in flight.  The
   ablation leg (no IP-in-IP: deflected packets cycle between Rd and Ra)
   exercises TTL and queue drops. *)
let conserved sim =
  let c = Packetsim.counters sim in
  Packetsim.originated sim
  = c.Packetsim.delivered_packets + Packetsim.acks_absorbed sim
    + Packetsim.strays_absorbed sim + c.dropped_queue + c.dropped_ttl + c.dropped_valley
    + c.dropped_no_route + Packetsim.in_flight sim

let test_conservation_every_period () =
  let config = { small_config with Testbed.flow_bytes = 10_000_000 } in
  List.iter
    (fun (label, config, drops) ->
      let net = Testbed.build config Testbed.Mifo_routing in
      let sim = net.Testbed.sim in
      let bytes = config.Testbed.flow_bytes in
      ignore (Packetsim.add_flow sim ~src:net.Testbed.s1 ~dst:net.Testbed.d1 ~bytes ~start:0.);
      ignore (Packetsim.add_flow sim ~src:net.Testbed.s2 ~dst:net.Testbed.d2 ~bytes ~start:0.);
      let period = (Packetsim.config sim).Packetsim.daemon_period in
      let finished () =
        Array.for_all
          (fun (r : Packetsim.flow_result) -> r.Packetsim.finish <> None)
          (Packetsim.flow_results sim)
      in
      let steps = ref 0 and broken = ref 0 in
      while !steps < 4000 && not (finished () && Packetsim.in_flight sim = 0) do
        incr steps;
        Packetsim.run ~until:(float_of_int !steps *. period) sim;
        if not (conserved sim) then incr broken
      done;
      Alcotest.(check bool) (label ^ ": flows finished") true (finished ());
      Packetsim.run sim;
      Alcotest.(check int) (label ^ ": periods violating conservation") 0 !broken;
      Alcotest.(check bool) (label ^ ": conserved at the end") true (conserved sim);
      Alcotest.(check int) (label ^ ": nothing left in flight") 0 (Packetsim.in_flight sim);
      Alcotest.(check bool) (label ^ ": traffic originated") true (Packetsim.originated sim > 0);
      let c = Packetsim.counters sim in
      Alcotest.(check bool) (label ^ ": drops exercised") drops
        (c.Packetsim.dropped_ttl > 0 && c.Packetsim.dropped_queue > 0))
    [
      ("MIFO", config, false);
      ( "MIFO without IP-in-IP",
        { config with Testbed.sim = { config.Testbed.sim with Packetsim.ibgp_encap = false } },
        true );
    ]

(* Allocation gate for the per-packet path: after a warm-up run, the
   MIFO testbed — every hop through [Engine.decide], the link trains,
   IP-in-IP tunnels and the hosts' TCP — allocates at most 150 minor
   words per delivered packet (build, daemon and results included). *)
let test_mifo_run_allocation_gate () =
  let config = { Testbed.default_config with Testbed.flows_per_source = 1 } in
  ignore (Testbed.run ~config Testbed.Mifo_routing);
  let w0 = Gc.minor_words () in
  let r = Testbed.run ~config Testbed.Mifo_routing in
  let words = Gc.minor_words () -. w0 in
  let delivered = r.Testbed.counters.Packetsim.delivered_packets in
  Alcotest.(check bool) "tunnels exercised" true (r.Testbed.counters.Packetsim.encapsulated > 0);
  let per_pkt = words /. float_of_int delivered in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per delivered packet <= 150" per_pkt)
    true (per_pkt <= 150.)

let () =
  Alcotest.run "mifo_testbed"
    [
      ( "build",
        [
          Alcotest.test_case "MIFO wiring" `Quick test_build_structure;
          Alcotest.test_case "BGP wiring" `Quick test_build_bgp_has_no_alt;
        ] );
      ( "runs",
        [
          Alcotest.test_case "BGP completes" `Quick test_bgp_run_completes;
          Alcotest.test_case "MIFO tunnels over iBGP" `Quick test_mifo_run_uses_alternative;
          Alcotest.test_case "MIFO beats BGP" `Slow test_mifo_beats_bgp;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "packet conservation every daemon period" `Quick
            test_conservation_every_period;
          Alcotest.test_case "allocation gate: <= 150 words per packet" `Quick
            test_mifo_run_allocation_gate;
          Alcotest.test_case "MIFO run matches the pinned k=1 outputs" `Quick
            test_mifo_run_pinned;
          Alcotest.test_case "encap ablation: cycling dies by TTL" `Quick
            test_encap_ablation_breaks_cycling;
        ] );
    ]
