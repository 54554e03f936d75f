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
  host_of_as : int array;
}

let host t as_id =
  if as_id < 0 || as_id >= Array.length t.host_of_as || t.host_of_as.(as_id) < 0 then
    invalid_arg (Printf.sprintf "Router_network.host: AS %d has no host" as_id);
  t.host_of_as.(as_id)

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
  (* eBGP links between the pinned border routers of adjacent ASes.
     Parallel to [As_graph.neighbors g u]: [owner_at.(u).(i)] is the node
     of [u]'s border router on the link to its [i]-th neighbour and
     [port_at.(u).(i)] that router's port on it. *)
  let owner_at = Array.init n (fun u -> Array.make (As_graph.degree g u) (-1)) in
  let port_at = Array.init n (fun u -> Array.make (As_graph.degree g u) (-1)) in
  ignore
    (As_graph.fold_edges g ~init:()
       ~f:(fun () u v kind ->
         let nu = node_of_router.(expansion.Router_level.link_router (u, v)) in
         let nv = node_of_router.(expansion.Router_level.link_router (v, u)) in
         let rel_uv, rel_vu =
           match kind with
           | As_graph.Provider_customer -> (Relationship.Customer, Relationship.Provider)
           | As_graph.Peer_peer -> (Relationship.Peer, Relationship.Peer)
         in
         let pu, pv =
           Packetsim.connect sim ~a:nu ~b:nv
             ~kind_ab:(Engine.Ebgp { neighbor_as = v; rel = rel_uv })
             ~kind_ba:(Engine.Ebgp { neighbor_as = u; rel = rel_vu })
             ~rate:link_rate ()
         in
         let iu = As_graph.neighbor_index g u v and iv = As_graph.neighbor_index g v u in
         owner_at.(u).(iu) <- nu;
         port_at.(u).(iu) <- pu;
         owner_at.(v).(iv) <- nv;
         port_at.(v).(iv) <- pv));
  (* iBGP full-mesh links; the simulator keeps each session's port. *)
  List.iter
    (fun (a, b) ->
      let na = node_of_router.(a) and nb = node_of_router.(b) in
      ignore
        (Packetsim.connect sim ~a:na ~b:nb
           ~kind_ab:(Engine.Ibgp { peer_router = nb })
           ~kind_ba:(Engine.Ibgp { peer_router = na })
           ~rate:link_rate ()))
    expansion.Router_level.ibgp_pairs;
  (* [node]'s port toward [peer]: the link itself when [node] owns it,
     else the iBGP session to the router that does. *)
  let port_via node peer port =
    if node = peer then port else Option.get (Packetsim.ibgp_route sim node peer)
  in
  (* Hosts attach to the first router of their AS. *)
  let host_of_as = Array.make n (-1) and host_port = Array.make n (-1) in
  List.iter
    (fun v ->
      if host_of_as.(v) < 0 then begin
        let r = expansion.Router_level.routers_of_as.(v).(0) in
        let h = Packetsim.add_host sim ~addr:(Prefix.host_of_as v 1) in
        let _, router_side =
          Packetsim.connect sim ~a:h ~b:node_of_router.(r) ~kind_ab:Engine.Local
            ~kind_ba:Engine.Local ~rate:host_rate ()
        in
        host_of_as.(v) <- h;
        host_port.(v) <- router_side
      end)
    hosts;
  (* FIBs per destination prefix; routing states fanned out over the
     shared domain pool first, the wiring below stays serial.  RIB cell 0
     is the default next hop and cells 1 .. the alternatives. *)
  Routing_table.precompute table (Array.of_list (List.sort_uniq Int.compare hosts));
  List.iter
    (fun d ->
      let prefix = Prefix.of_as d in
      let rt = Routing_table.get table d in
      for v = 0 to n - 1 do
        let routers = expansion.Router_level.routers_of_as.(v) in
        let size = Routing.rib_size rt v in
        if v = d then begin
          (* intra-AS delivery: the host-owning router delivers locally,
             the others forward to it over iBGP *)
          let hr = node_of_router.(routers.(0)) in
          Array.iter
            (fun r ->
              let node = node_of_router.(r) in
              Fib.insert (Packetsim.fib sim node) prefix
                ~out_port:(port_via node hr host_port.(v)) ())
            routers
        end
        else if size > 0 then begin
          let e = As_graph.neighbor_index g v (Routing.rib_via rt v 0) in
          let alt =
            if size > 1 && Deployment.capable deployment v then
              As_graph.neighbor_index g v (Routing.rib_via rt v 1)
            else -1
          in
          Array.iter
            (fun r ->
              let node = node_of_router.(r) in
              let fib = Packetsim.fib sim node in
              let out_port = port_via node owner_at.(v).(e) port_at.(v).(e) in
              if alt < 0 then Fib.insert fib prefix ~out_port ()
              else
                Fib.insert fib prefix ~out_port
                  ~alt_port:(port_via node owner_at.(v).(alt) port_at.(v).(alt))
                  ())
            routers
        end
      done)
    hosts;
  (* Daemon choosers on MIFO-capable ASes: greedy on the owning router's
     measured eBGP spare - the measurement border routers exchange over
     their iBGP sessions. *)
  Array.iteri
    (fun r node ->
      let v = expansion.Router_level.as_of_router.(r) in
      let owners = owner_at.(v) and ports = port_at.(v) in
      if Deployment.capable deployment v then
        Packetsim.set_ranked_chooser sim node
          (As_network.greedy_chooser table ~as_id:v
             ~spare:(fun i -> Packetsim.spare_capacity sim owners.(i) ports.(i))
             ~port:(fun i -> port_via node owners.(i) ports.(i))))
    node_of_router;
  { sim; expansion; node_of_router; host_of_as }

let add_transfer t ~src_as ~dst_as ~bytes ~start =
  Packetsim.add_flow t.sim ~src:(host t src_as) ~dst:(host t dst_as) ~bytes ~start

let run ?until t = Packetsim.run ?until t.sim
