module As_graph = Mifo_topology.As_graph
module Relationship = Mifo_topology.Relationship
module Routing = Mifo_bgp.Routing
module Routing_table = Mifo_bgp.Routing_table
module Prefix = Mifo_bgp.Prefix
module Fib = Mifo_core.Fib
module Engine = Mifo_core.Engine
module Deployment = Mifo_core.Deployment

type t = {
  sim : Packetsim.t;
  router_of_as : int array;
  host_of_as : (int, int) Hashtbl.t;
}

let host t as_id = Hashtbl.find t.host_of_as as_id
let router t as_id = t.router_of_as.(as_id)

let build ?config ?(link_rate = 1e9) ?host_rate table ~deployment ~hosts () =
  let host_rate = match host_rate with Some r -> r | None -> link_rate in
  let g = Routing_table.graph table in
  let n = As_graph.n g in
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "As_network.build: host AS out of range")
    hosts;
  (* One routing state per host prefix; the computations are independent
     so they fan out across the domain pool before the serial FIB fill. *)
  Routing_table.precompute table
    (Array.of_list (List.sort_uniq Int.compare hosts));
  let sim = Packetsim.create ?config () in
  let router_of_as = Array.init n (fun v -> Packetsim.add_router sim ~as_id:v) in
  (* Inter-AS links; remember the egress port of every directed pair. *)
  let port_of = Hashtbl.create (4 * As_graph.edge_count g) in
  ignore
    (As_graph.fold_edges g ~init:()
       ~f:(fun () u v kind ->
         let rel_uv, rel_vu =
           match kind with
           | As_graph.Provider_customer -> (Relationship.Customer, Relationship.Provider)
           | As_graph.Peer_peer -> (Relationship.Peer, Relationship.Peer)
         in
         let pu, pv =
           Packetsim.connect sim ~a:router_of_as.(u) ~b:router_of_as.(v)
             ~kind_ab:(Engine.Ebgp { neighbor_as = v; rel = rel_uv })
             ~kind_ba:(Engine.Ebgp { neighbor_as = u; rel = rel_vu })
             ~rate:link_rate ()
         in
         Hashtbl.replace port_of (u, v) pu;
         Hashtbl.replace port_of (v, u) pv));
  (* Hosts and their access links. *)
  let host_of_as = Hashtbl.create (List.length hosts) in
  let host_port = Hashtbl.create (List.length hosts) in
  List.iter
    (fun v ->
      if not (Hashtbl.mem host_of_as v) then begin
        let h = Packetsim.add_host sim ~addr:(Prefix.host_of_as v 1) in
        let _, router_side =
          Packetsim.connect sim ~a:h ~b:router_of_as.(v) ~kind_ab:Engine.Local
            ~kind_ba:Engine.Local ~rate:host_rate ()
        in
        Hashtbl.replace host_of_as v h;
        Hashtbl.replace host_port v router_side
      end)
    hosts;
  (* FIBs: one entry per host prefix in every router, from the analytic
     routing; alternatives live on MIFO-capable ASes and are refreshed by
     the per-router daemon chooser below. *)
  let alt_candidates = Hashtbl.create 256 in
  (* (as, dest) -> candidate (neighbor, port) list, precomputed once *)
  List.iter
    (fun d ->
      let prefix = Prefix.of_as d in
      let rt = Routing_table.get table d in
      for v = 0 to n - 1 do
        let fib = Packetsim.fib sim router_of_as.(v) in
        if v = d then
          Fib.insert fib prefix ~out_port:(Hashtbl.find host_port v) ()
        else begin
          match Routing.next_hop rt v with
          | None -> ()
          | Some nh ->
            let out_port = Hashtbl.find port_of (v, nh) in
            if Deployment.capable deployment v then begin
              let alts =
                (* RIB alternatives are cells 1 .. of the arena segment *)
                List.init (Routing.rib_size rt v - 1) (fun j ->
                    let via = Routing.rib_via rt v (j + 1) in
                    (via, Hashtbl.find port_of (v, via)))
              in
              Hashtbl.replace alt_candidates (v, prefix.Prefix.network) alts;
              match alts with
              | (_, first) :: _ -> Fib.insert fib prefix ~out_port ~alt_port:first ()
              | [] -> Fib.insert fib prefix ~out_port ()
            end
            else Fib.insert fib prefix ~out_port ()
        end
      done)
    hosts;
  (* Daemon choosers: the greedy rule - among the precomputed RIB
     alternatives, pick the port whose link has the most measured spare
     capacity.  Legacy ASes keep no alternative. *)
  for v = 0 to n - 1 do
    if Deployment.capable deployment v then begin
      let node = router_of_as.(v) in
      Packetsim.set_ranked_chooser sim node (fun prefix entry ->
          match Hashtbl.find_opt alt_candidates (v, prefix.Prefix.network) with
          | None | Some [] -> Fib.primary_alts entry
          | Some candidates ->
            let best = ref None in
            List.iter
              (fun (nb, port) ->
                let s = Packetsim.spare_capacity sim node port in
                match !best with
                | Some (_, _, bs) when bs >= s -> ()
                | _ -> best := Some (nb, port, s))
              candidates;
            (match !best with
             | Some (_, port, s) when s > 0. -> [ port ]
             | _ -> []))
    end
  done;
  { sim; router_of_as; host_of_as }

let add_transfer t ~src_as ~dst_as ~bytes ~start =
  let src = host t src_as and dst = host t dst_as in
  Packetsim.add_flow t.sim ~src ~dst ~bytes ~start

let run ?until t = Packetsim.run ?until t.sim
