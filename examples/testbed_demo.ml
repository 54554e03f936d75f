(* The prototype testbed of the paper's Section V (Fig. 11), scaled down
   to run in seconds: 6 ASes, 11 routers, 4 hosts, two groups of
   back-to-back TCP transfers whose default paths share the AS3->AS4
   bottleneck.  MIFO's border router Rd tunnels part of the traffic to
   its iBGP peer Ra, which exits through AS6.

   Run with: dune exec examples/testbed_demo.exe
   (use bin/mifo_sim.exe fig12 for the full-size run) *)

module Testbed = Mifo_testbed.Testbed
module Table = Mifo_util.Table

let () =
  let config =
    { Testbed.default_config with Testbed.flows_per_source = 8; flow_bytes = 20_000_000 }
  in
  Format.printf "running BGP baseline...@.";
  let bgp = Testbed.run ~config Testbed.Bgp_routing in
  Format.printf "running MIFO...@.";
  let mifo = Testbed.run ~config Testbed.Mifo_routing in
  let row label (r : Testbed.result) =
    [
      label;
      Table.fmt_float (r.Testbed.mean_aggregate /. 1e9) ^ " Gbps";
      Table.fmt_float r.Testbed.makespan ^ " s";
      string_of_int (Array.length r.Testbed.fct);
      Table.fmt_count r.Testbed.counters.Mifo_netsim.Packetsim.encapsulated;
    ]
  in
  print_string
    (Table.render
       ~header:[ "routing"; "aggregate"; "makespan"; "flows done"; "IP-in-IP packets" ]
       ~rows:[ row "BGP" bgp; row "MIFO" mifo ]);
  Format.printf "aggregate throughput improvement: %+.0f%%@."
    (100. *. ((mifo.Testbed.mean_aggregate /. bgp.Testbed.mean_aggregate) -. 1.));
  Format.printf "@.MIFO aggregate throughput over time (Fig. 12a):@.";
  Array.iter
    (fun (t, v) ->
      if t <= mifo.Testbed.makespan then
        Format.printf "  t=%4.1fs  %5.2f Gbps  %s@." t (v /. 1e9)
          (String.make (int_of_float (v /. 1e9 *. 24.)) '#'))
    mifo.Testbed.aggregate_series
