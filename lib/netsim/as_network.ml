module As_graph = Mifo_topology.As_graph
module Relationship = Mifo_topology.Relationship
module Router_level = Mifo_topology.Router_level
module Routing = Mifo_bgp.Routing
module Routing_table = Mifo_bgp.Routing_table
module Prefix = Mifo_bgp.Prefix
module Fib = Mifo_core.Fib
module Engine = Mifo_core.Engine
module Deployment = Mifo_core.Deployment

type t = { sim : Packetsim.t; router_of_as : int array; host_of_as : int array }

let host t as_id =
  if as_id < 0 || as_id >= Array.length t.host_of_as || t.host_of_as.(as_id) < 0 then
    invalid_arg (Printf.sprintf "As_network.host: AS %d has no host" as_id);
  t.host_of_as.(as_id)

let router t as_id =
  if as_id < 0 || as_id >= Array.length t.router_of_as then
    invalid_arg (Printf.sprintf "As_network.router: AS %d out of range" as_id);
  t.router_of_as.(as_id)

(* The AS whose [Prefix.of_as] /24 a {!Fib.prefix_key} names, or -1:
   the int-level inverse of [Prefix.of_as], 10.x.y.0/24 for AS x.y. *)
let as_of_prefix_key k =
  let net = k lsr 6 in
  if k land 63 = 24 && net land 0xFF000000 = 0x0A000000 then (net lsr 8) land 0xFFFF else -1

(* The daemon chooser at router [node] of AS [v], the greedy rule: over
   the RIB alternatives toward the entry's destination, at neighbour
   index [i], the first with the most spare capacity [spare v i] gives
   [port node v i] (no alternative when that is not positive); no RIB
   alternative keeps the primary.  One port at most, written to slot 0
   of [buf]; a negative one is dropped by [Fib.set_alts], leaving the
   set empty.  [spare] and [port] are shared by every router, so a
   router's chooser is one partial application. *)
let greedy_chooser table ~as_id:v ~node ~spare ~port fib entry buf =
  let g = Routing_table.graph table in
  let d = as_of_prefix_key (Fib.prefix_key fib entry) in
  buf.(0) <-
    (if d >= 0 && d <> v && d < As_graph.n g then begin
       let rt = Routing_table.get table d in
       let best = ref (-1) and best_spare = ref neg_infinity in
       for j = 1 to Routing.rib_size rt v - 1 do
         let i = As_graph.neighbor_index g v (Routing.rib_via rt v j) in
         let s = spare v i in
         if s > !best_spare then begin
           best := i;
           best_spare := s
         end
       done;
       if !best < 0 then Fib.alt_at fib entry 0
       else if !best_spare > 0. then port node v !best
       else -1
     end
     else Fib.alt_at fib entry 0);
  1

let build ?config ?(link_rate = 1e9) ?host_rate ?expansion table ~deployment ~hosts () =
  let host_rate = match host_rate with Some r -> r | None -> link_rate in
  let g = Routing_table.graph table in
  let n = As_graph.n g in
  (match expansion with
  | Some e when e.Router_level.graph != g ->
    invalid_arg "As_network.build: expansion is over a different graph"
  | _ -> ());
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "As_network.build: host AS out of range")
    hosts;
  (* One routing state per host prefix; the computations are independent
     so they fan out across the domain pool before the serial FIB fill. *)
  let host_ases = Array.of_list (List.sort_uniq Int.compare hosts) in
  Routing_table.precompute table host_ases;
  let sim = Packetsim.create ?config () in
  (* Two port slots per inter-AS and host access link; an expansion's
     iBGP meshes grow the arena past that. *)
  Packetsim.reserve_ports sim (2 * (As_graph.edge_count g + Array.length host_ases));
  (* Routers, in AS order: router [r] of the expansion is node [r], and
     without one AS [v]'s single border router is node [v].  AS [v]'s
     routers are the nodes [router_of_as.(v) .. last_router v]; [owner u i]
     is the one holding [u]'s link to its [i]-th neighbour. *)
  let router_of_as =
    match expansion with
    | None -> Array.init n (fun v -> Packetsim.add_router sim ~as_id:v)
    | Some e ->
      Array.iter
        (fun v -> ignore (Packetsim.add_router sim ~as_id:v))
        e.Router_level.as_of_router;
      Array.sub e.Router_level.first_router 0 n
  in
  let last_router v =
    match expansion with None -> v | Some e -> e.Router_level.first_router.(v + 1) - 1
  in
  let owner u i =
    match expansion with None -> u | Some e -> e.Router_level.link_router.(u).(i)
  in
  (* Inter-AS links.  [port_at.(adj.(u) + i)] is [owner u i]'s port
     toward [u]'s [i]-th neighbour: one flat array, parallel to
     [As_graph.neighbors g u] from [adj.(u)] on. *)
  let adj = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    adj.(u + 1) <- adj.(u) + As_graph.degree g u
  done;
  let port_at = Array.make adj.(n) (-1) in
  (* One eBGP kind value per (neighbour AS, relationship), shared by
     every port that sees that neighbour in that role: the kinds scale
     with the ASes, not the links. *)
  let kinds = Array.make (3 * n) Engine.Local in
  let ebgp_kind v rel =
    let i =
      (3 * v) + match rel with Relationship.Customer -> 0 | Provider -> 1 | Peer -> 2
    in
    match kinds.(i) with
    | Engine.Local ->
      let k = Engine.Ebgp { neighbor_as = v; rel } in
      kinds.(i) <- k;
      k
    | k -> k
  in
  ignore
    (As_graph.fold_edges g ~init:()
       ~f:(fun () u v kind ->
         let rel_uv, rel_vu =
           match kind with
           | As_graph.Provider_customer -> (Relationship.Customer, Relationship.Provider)
           | As_graph.Peer_peer -> (Relationship.Peer, Relationship.Peer)
         in
         let iu = As_graph.neighbor_index g u v and iv = As_graph.neighbor_index g v u in
         let pu, pv =
           Packetsim.connect sim ~a:(owner u iu) ~b:(owner v iv)
             ~kind_ab:(ebgp_kind v rel_uv) ~kind_ba:(ebgp_kind u rel_vu)
             ~rate:link_rate ()
         in
         port_at.(adj.(u) + iu) <- pu;
         port_at.(adj.(v) + iv) <- pv));
  (* Full iBGP mesh inside every multi-router AS; the simulator keeps
     each session's port. *)
  for v = 0 to n - 1 do
    for a = router_of_as.(v) to last_router v do
      for b = a + 1 to last_router v do
        ignore
          (Packetsim.connect sim ~a ~b
             ~kind_ab:(Engine.Ibgp { peer_router = b })
             ~kind_ba:(Engine.Ibgp { peer_router = a })
             ~rate:link_rate ())
      done
    done
  done;
  (* [node]'s way out through [peer]'s port [p]: [p] itself when [node]
     is [peer], else the iBGP session to [peer].  [port_of node u i] is
     the way out over [u]'s link to its [i]-th neighbour. *)
  let port_via node peer p =
    if node = peer then p else Packetsim.ibgp_route sim node peer
  in
  let port_of node u i = port_via node (owner u i) port_at.(adj.(u) + i) in
  (* Hosts and their access links, on the first router of their AS. *)
  let host_of_as = Array.make n (-1) and host_port = Array.make n (-1) in
  List.iter
    (fun v ->
      if host_of_as.(v) < 0 then begin
        let h = Packetsim.add_host sim ~addr:(Prefix.host_of_as v 1) in
        let _, router_side =
          Packetsim.connect sim ~a:h ~b:router_of_as.(v) ~kind_ab:Engine.Local
            ~kind_ba:Engine.Local ~rate:host_rate ()
        in
        host_of_as.(v) <- h;
        host_port.(v) <- router_side
      end)
    hosts;
  (* FIBs: one entry per host prefix in every router, from the analytic
     routing.  RIB cell 0 is the default next hop and cells 1 .. the
     alternatives; a MIFO-capable AS starts on the first of them and the
     daemon chooser below refreshes it.  Every router of an AS sends a
     prefix's traffic to the AS's egress border router, over iBGP when
     that is another router.  Router-major, so each FIB takes its
     entries back to back, still in [hosts] order. *)
  let dests = Array.of_list hosts in
  let prefixes = Array.map Prefix.of_as dests in
  let rts = Array.map (Routing_table.get table) dests in
  for v = 0 to n - 1 do
    let capable = Deployment.capable deployment v in
    for node = router_of_as.(v) to last_router v do
      let fib = Packetsim.fib sim node in
      for k = 0 to Array.length dests - 1 do
        let rt = rts.(k) and prefix = prefixes.(k) in
        let size = Routing.rib_size rt v in
        if v = dests.(k) then
          let out_port = port_via node router_of_as.(v) host_port.(v) in
          Fib.insert_alt fib prefix ~out_port ~alt:(-1)
        else if size > 0 then
          let e = As_graph.neighbor_index g v (Routing.rib_via rt v 0) in
          let out_port = port_of node v e in
          let alt =
            if size > 1 && capable then
              port_of node v (As_graph.neighbor_index g v (Routing.rib_via rt v 1))
            else -1
          in
          Fib.insert_alt fib prefix ~out_port ~alt
      done
    done
  done;
  (* Daemon choosers on MIFO-capable ASes, greedy on the owning router's
     measured eBGP spare: the measurement border routers exchange over
     their iBGP sessions.  Legacy ASes keep no alternative. *)
  let spare v i = Packetsim.spare_capacity sim (owner v i) port_at.(adj.(v) + i) in
  for v = 0 to n - 1 do
    if Deployment.capable deployment v then
      for node = router_of_as.(v) to last_router v do
        Packetsim.set_ranked_chooser sim node
          (greedy_chooser table ~as_id:v ~node ~spare ~port:port_of)
      done
  done;
  { sim; router_of_as; host_of_as }

let add_transfer t ~src_as ~dst_as ~bytes ~start =
  let src = host t src_as and dst = host t dst_as in
  Packetsim.add_flow t.sim ~src ~dst ~bytes ~start

let run ?until t = Packetsim.run ?until t.sim
