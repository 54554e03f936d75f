(* The control-plane / data-plane timescale gap, made concrete.

   The paper's introduction argues that interdomain traffic shifts much
   faster than BGP routes can converge.  This example runs the
   event-driven BGP protocol simulator on a small Internet: it announces
   one prefix, lets BGP converge, then cuts a link on a live default path
   and watches the UPDATE churn and the transient black-holing that
   follow - the window in which MIFO would already be forwarding via an
   alternative from the local RIB.

   Run with: dune exec examples/bgp_convergence.exe *)

module Generator = Mifo_topology.Generator
module As_graph = Mifo_topology.As_graph
module Routing = Mifo_bgp.Routing
module Bgp_proto = Mifo_bgp.Bgp_proto

let () =
  let params =
    {
      Generator.default_params with
      Generator.ases = 500;
      tier1 = 6;
      content_providers = 4;
      content_peer_span = (4, 12);
    }
  in
  let topo = Generator.generate ~params ~seed:3 () in
  let g = topo.Generator.graph in
  let origin = 0 in
  let proto = Bgp_proto.create g ~origin in
  let initial = Bgp_proto.run proto in
  Printf.printf "prefix of AS %d converged after %d UPDATE messages (%d ASes)\n\n"
    origin initial (As_graph.n g);

  (* cut the first link of a busy default path *)
  let rt = Routing.compute g origin in
  let path = Routing.default_path rt 400 in
  let u, v = (List.nth path 1, List.nth path 2) in
  Printf.printf "default path of AS 400: %s\n"
    (String.concat " -> " (List.map string_of_int path));
  Printf.printf "cutting the %d -- %d link...\n\n" u v;
  Bgp_proto.fail_link proto u v;

  let steps = ref 0 and peak = ref (Bgp_proto.unreachable_count proto) in
  let checkpoints = [ 1; 10; 100; 1_000; 10_000 ] in
  while not (Bgp_proto.converged proto) do
    ignore (Bgp_proto.step proto);
    incr steps;
    peak := max !peak (Bgp_proto.unreachable_count proto);
    if List.mem !steps checkpoints then
      Printf.printf "  after %6d messages: %4d ASes still without a route\n" !steps
        (Bgp_proto.unreachable_count proto)
  done;
  Printf.printf "\nre-converged after %d messages; peak black-holed ASes: %d\n" !steps !peak;
  (match Bgp_proto.selected_path proto 400 with
   | Some p ->
     Printf.printf "AS 400's new path: %s\n" (String.concat " -> " (List.map string_of_int p))
   | None -> Printf.printf "AS 400 is permanently disconnected\n");
  Printf.printf
    "\nMIFO's view of the same event: the failed egress looks fully congested,\n\
     so the border router deflects onto a RIB alternative at the very next\n\
     forwarding decision - zero messages, zero black-holing (see the\n\
     failure-recovery ablation: `dune exec bin/mifo_sim.exe -- ablations`).\n"
