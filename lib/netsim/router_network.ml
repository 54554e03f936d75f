module As_graph = Mifo_topology.As_graph
module Relationship = Mifo_topology.Relationship
module Router_level = Mifo_topology.Router_level
module Routing = Mifo_bgp.Routing
module Routing_table = Mifo_bgp.Routing_table
module Prefix = Mifo_bgp.Prefix
module Fib = Mifo_core.Fib
module Engine = Mifo_core.Engine
module Deployment = Mifo_core.Deployment

type t = {
  sim : Packetsim.t;
  expansion : Router_level.t;
  node_of_router : int array;
  host_of_as : (int, int) Hashtbl.t;
}

let host t as_id = Hashtbl.find t.host_of_as as_id

let build ?config ?(link_rate = 1e9) ?host_rate table ~expansion ~deployment ~hosts () =
  let host_rate = match host_rate with Some r -> r | None -> link_rate in
  let g = Routing_table.graph table in
  if g != expansion.Router_level.graph then
    invalid_arg "Router_network.build: expansion is over a different graph";
  let n = As_graph.n g in
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Router_network.build: host AS out of range")
    hosts;
  let sim = Packetsim.create ?config () in
  let nrouters = Router_level.router_count expansion in
  let node_of_router =
    Array.init nrouters (fun r ->
        Packetsim.add_router sim ~as_id:expansion.Router_level.as_of_router.(r))
  in
  (* eBGP links between the pinned border routers of adjacent ASes. *)
  let ebgp_port = Hashtbl.create (4 * As_graph.edge_count g) in
  (* (u_as, v_as) -> (node of u's border router, its port) *)
  ignore
    (As_graph.fold_edges g ~init:()
       ~f:(fun () u v kind ->
         let ru = expansion.Router_level.link_router (u, v) in
         let rv = expansion.Router_level.link_router (v, u) in
         let rel_uv, rel_vu =
           match kind with
           | As_graph.Provider_customer -> (Relationship.Customer, Relationship.Provider)
           | As_graph.Peer_peer -> (Relationship.Peer, Relationship.Peer)
         in
         let pu, pv =
           Packetsim.connect sim ~a:node_of_router.(ru) ~b:node_of_router.(rv)
             ~kind_ab:(Engine.Ebgp { neighbor_as = v; rel = rel_uv })
             ~kind_ba:(Engine.Ebgp { neighbor_as = u; rel = rel_vu })
             ~rate:link_rate ()
         in
         Hashtbl.replace ebgp_port (u, v) (node_of_router.(ru), pu);
         Hashtbl.replace ebgp_port (v, u) (node_of_router.(rv), pv)));
  (* iBGP full-mesh links. *)
  let ibgp_port = Hashtbl.create 256 in
  (* (router, router) -> port on the first *)
  List.iter
    (fun (a, b) ->
      let na = node_of_router.(a) and nb = node_of_router.(b) in
      let pa, pb =
        Packetsim.connect sim ~a:na ~b:nb
          ~kind_ab:(Engine.Ibgp { peer_router = nb })
          ~kind_ba:(Engine.Ibgp { peer_router = na })
          ~rate:link_rate ()
      in
      Hashtbl.replace ibgp_port (a, b) pa;
      Hashtbl.replace ibgp_port (b, a) pb)
    expansion.Router_level.ibgp_pairs;
  (* Hosts attach to the first router of their AS. *)
  let host_of_as = Hashtbl.create (List.length hosts) in
  let host_router = Hashtbl.create (List.length hosts) in
  let host_port = Hashtbl.create (List.length hosts) in
  List.iter
    (fun v ->
      if not (Hashtbl.mem host_of_as v) then begin
        let r = expansion.Router_level.routers_of_as.(v).(0) in
        let h = Packetsim.add_host sim ~addr:(Prefix.host_of_as v 1) in
        let _, router_side =
          Packetsim.connect sim ~a:h ~b:node_of_router.(r) ~kind_ab:Engine.Local
            ~kind_ba:Engine.Local ~rate:host_rate ()
        in
        Hashtbl.replace host_of_as v h;
        Hashtbl.replace host_router v r;
        Hashtbl.replace host_port v router_side
      end)
    hosts;
  (* FIBs per destination prefix; routing states fanned out over the
     shared domain pool first, the wiring below stays serial. *)
  Routing_table.precompute table (Array.of_list (List.sort_uniq Int.compare hosts));
  let alt_candidates = Hashtbl.create 1024 in
  (* (router, dest network) -> (owner router, port on this router,
     owner's ebgp port) candidates; for a local (same-router) candidate
     owner = the router itself *)
  List.iter
    (fun d ->
      let prefix = Prefix.of_as d in
      let rt = Routing_table.get table d in
      for v = 0 to n - 1 do
        let routers = expansion.Router_level.routers_of_as.(v) in
        if v = d then begin
          (* intra-AS delivery: the host-owning router delivers locally,
             the others forward to it over iBGP *)
          let hr = Hashtbl.find host_router v in
          Array.iter
            (fun r ->
              let fib = Packetsim.fib sim node_of_router.(r) in
              if r = hr then Fib.insert fib prefix ~out_port:(Hashtbl.find host_port v) ()
              else
                Fib.insert fib prefix ~out_port:(Hashtbl.find ibgp_port (r, hr)) ())
            routers
        end
        else begin
          match Routing.next_hop rt v with
          | None -> ()
          | Some nh ->
            let egress = expansion.Router_level.link_router (v, nh) in
            let _, egress_port = Hashtbl.find ebgp_port (v, nh) in
            let capable = Deployment.capable deployment v in
            let alts = if capable then Routing.alternatives rt v else [] in
            Array.iter
              (fun r ->
                let fib = Packetsim.fib sim node_of_router.(r) in
                let out_port =
                  if r = egress then egress_port else Hashtbl.find ibgp_port (r, egress)
                in
                let candidates =
                  List.map
                    (fun (e : Routing.rib_entry) ->
                      let owner = expansion.Router_level.link_router (v, e.via) in
                      let _, owner_port = Hashtbl.find ebgp_port (v, e.via) in
                      let local_port =
                        if owner = r then owner_port
                        else Hashtbl.find ibgp_port (r, owner)
                      in
                      (node_of_router.(owner), owner_port, local_port))
                    alts
                in
                if candidates <> [] then
                  Hashtbl.replace alt_candidates
                    (node_of_router.(r), prefix.Prefix.network)
                    candidates;
                match candidates with
                | (_, _, first) :: _ ->
                  Fib.insert fib prefix ~out_port ~alt_port:first ()
                | [] -> Fib.insert fib prefix ~out_port ())
              routers
        end
      done)
    hosts;
  (* Daemon choosers: greedy on the owning router's measured eBGP spare -
     the measurement border routers exchange over their iBGP sessions. *)
  Array.iter
    (fun node ->
      Packetsim.set_ranked_chooser sim node (fun prefix entry ->
          match Hashtbl.find_opt alt_candidates (node, prefix.Prefix.network) with
          | None | Some [] -> Fib.primary_alts entry
          | Some candidates ->
            let best = ref None in
            List.iter
              (fun (owner_node, owner_port, local_port) ->
                let s = Packetsim.spare_capacity sim owner_node owner_port in
                match !best with
                | Some (_, bs) when bs >= s -> ()
                | _ -> best := Some (local_port, s))
              candidates;
            (match !best with
             | Some (port, s) when s > 0. -> [ port ]
             | _ -> [])))
    node_of_router;
  { sim; expansion; node_of_router; host_of_as }

let add_transfer t ~src_as ~dst_as ~bytes ~start =
  Packetsim.add_flow t.sim ~src:(host t src_as) ~dst:(host t dst_as) ~bytes ~start

let run ?until t = Packetsim.run ?until t.sim
