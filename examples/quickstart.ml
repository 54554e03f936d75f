(* Quickstart: build a small Internet, look at BGP routing and the MIFO
   RIB, and push a packet through the MIFO forwarding engine.

   Run with: dune exec examples/quickstart.exe *)

module Generator = Mifo_topology.Generator
module As_graph = Mifo_topology.As_graph
module Relationship = Mifo_topology.Relationship
module Routing = Mifo_bgp.Routing
module Prefix = Mifo_bgp.Prefix
module Fib = Mifo_core.Fib
module Engine = Mifo_core.Engine
module Packet = Mifo_core.Packet

let () =
  (* 1. A 200-AS synthetic Internet with the paper's 69:31 P/C:peering mix. *)
  let params =
    {
      Generator.default_params with
      Generator.ases = 200;
      tier1 = 5;
      content_providers = 2;
      content_peer_span = (5, 15);
    }
  in
  let topo = Generator.generate ~params ~seed:1 () in
  let g = topo.Generator.graph in
  Format.printf "topology: %a@." Mifo_topology.Topo_stats.pp
    (Mifo_topology.Topo_stats.compute g);

  (* 2. Interdomain routing toward a destination AS: every AS gets its
     Gao-Rexford best route, and its local BGP RIB - the source of MIFO's
     alternative paths, at zero control-plane cost. *)
  let dst = 199 and src = 42 in
  let rt = Routing.compute g dst in
  let show_path path = String.concat " -> " (List.map string_of_int path) in
  Format.printf "default AS path %d => %d: %s@." src dst
    (show_path (Routing.default_path rt src));
  Format.printf "RIB at AS %d (first entry is the default):@." src;
  List.iter
    (fun (e : Routing.rib_entry) ->
      Format.printf "  via AS %-4d %-8s route, %d hops@." e.via
        (Relationship.to_string e.rel) e.len)
    (Routing.rib rt src);

  (* 3. A border router running the MIFO engine: the FIB carries a default
     and an alternative port; when the default egress is congested the
     engine deflects flows onto the alternative - at line speed, checking
     the one-bit valley-free tag. *)
  let fib = Fib.create () in
  let default_port = 0 and alt_port = 1 and upstream_port = 2 in
  Fib.insert fib (Prefix.of_as dst) ~out_port:default_port ~alt_port ();
  (* daemon: deflect everything *)
  Fib.set_deflect_buckets fib (Fib.find fib (Prefix.of_as dst)) Fib.buckets;
  let env =
    {
      Engine.router_id = 7;
      fib;
      port_kind =
        (fun p ->
          if p = upstream_port then
            Engine.Ebgp { neighbor_as = src; rel = Relationship.Customer }
          else if p = alt_port then
            Engine.Ebgp { neighbor_as = 9; rel = Relationship.Peer }
          else Engine.Ebgp { neighbor_as = 8; rel = Relationship.Provider });
      is_congested = (fun p -> p = default_port);
      next_hop_router = (fun _ -> -1);
      route_to_peer = (fun _ -> -1);
    }
  in
  let packet =
    Packet.make ~src:(Prefix.host_of_as src 1) ~dst:(Prefix.host_of_as dst 1) ~flow:99 ()
  in
  (match Engine.forward env ~ingress:(Some upstream_port) packet with
   | Engine.Send { port; packet; _ } ->
     Format.printf
       "engine: default egress congested -> packet deflected out port %d (tag=%b)@."
       port packet.Packet.vf_tag
   | Engine.Drop { reason; _ } ->
     Format.printf "engine: dropped (%s)@." (Engine.drop_reason_to_string reason));

  (* The same packet arriving from a PEER (tag = 0) may not exit through
     another peer - that is the Fig. 2(a) loop.  The Tag-Check refuses the
     alternative and the packet stays on the (congested but loop-free)
     default path. *)
  let env_peer_upstream =
    {
      env with
      Engine.port_kind =
        (fun p ->
          if p = upstream_port then Engine.Ebgp { neighbor_as = src; rel = Relationship.Peer }
          else if p = alt_port then Engine.Ebgp { neighbor_as = 9; rel = Relationship.Peer }
          else Engine.Ebgp { neighbor_as = 8; rel = Relationship.Provider });
    }
  in
  match Engine.forward env_peer_upstream ~ingress:(Some upstream_port) packet with
  | Engine.Send { port; packet = p; _ } when port = default_port ->
    Format.printf
      "engine: peer-to-peer deflection refused by the Tag-Check (tag=%b) -> stays on the default path@."
      p.Packet.vf_tag
  | Engine.Send { port; _ } ->
    Format.printf "engine: forwarded out port %d (unexpected)@." port
  | Engine.Drop { reason; _ } ->
    Format.printf "engine: dropped (%s)@." (Engine.drop_reason_to_string reason)
