(* Tests for the packet-network builder, at AS and at router
   granularity: the engine-in-the-loop counterparts of the flow-level
   experiments. *)

module As_graph = Mifo_topology.As_graph
module Router_level = Mifo_topology.Router_level
module Generator = Mifo_topology.Generator
module Routing_table = Mifo_bgp.Routing_table
module Prefix = Mifo_bgp.Prefix
module Deployment = Mifo_core.Deployment
module Engine = Mifo_core.Engine
module Packet = Mifo_core.Packet
module Packetsim = Mifo_netsim.Packetsim
module As_network = Mifo_netsim.As_network

(* The diamond where MIFO has something to do: both sources' default
   paths share the 3 -> 1 link while 3 -> 2 sits idle. *)
let diamond () =
  As_graph.create ~n:6
    ~edges:
      [
        (1, 0, As_graph.Provider_customer);
        (2, 0, As_graph.Provider_customer);
        (3, 1, As_graph.Provider_customer);
        (3, 2, As_graph.Provider_customer);
        (3, 4, As_graph.Provider_customer);
        (3, 5, As_graph.Provider_customer);
      ]

let finished results =
  Array.fold_left
    (fun acc (r : Packetsim.flow_result) -> if r.finish <> None then acc + 1 else acc)
    0 results

let makespan results =
  Array.fold_left
    (fun acc (r : Packetsim.flow_result) ->
      match r.finish with Some f -> Float.max acc f | None -> acc)
    0. results

let run_diamond deployment =
  let table = Routing_table.create (diamond ()) in
  let net = As_network.build table ~deployment ~host_rate:10e9 ~hosts:[ 0; 4; 5 ] () in
  ignore (As_network.add_transfer net ~src_as:4 ~dst_as:0 ~bytes:10_000_000 ~start:0.);
  ignore (As_network.add_transfer net ~src_as:5 ~dst_as:0 ~bytes:10_000_000 ~start:0.);
  As_network.run net;
  net

(* ---------- As_network ---------- *)

let test_as_network_bgp_baseline () =
  let net = run_diamond (Deployment.none ~n:6) in
  let results = Packetsim.flow_results net.As_network.sim in
  Alcotest.(check int) "both finish" 2 (finished results);
  let c = Packetsim.counters net.As_network.sim in
  Alcotest.(check int) "no deflection" 0 c.Packetsim.deflected;
  (* 2 x 80 Mbit sharing one 1 Gbps link: at least 160 ms *)
  Alcotest.(check bool) "bottleneck visible" true (makespan results > 0.16)

let test_as_network_mifo_relieves () =
  let bgp = run_diamond (Deployment.none ~n:6) in
  let mifo = run_diamond (Deployment.full ~n:6) in
  let bgp_time = makespan (Packetsim.flow_results bgp.As_network.sim) in
  let mifo_time = makespan (Packetsim.flow_results mifo.As_network.sim) in
  let c = Packetsim.counters mifo.As_network.sim in
  Alcotest.(check bool) "packets deflected" true (c.Packetsim.deflected > 0);
  Alcotest.(check int) "no valley drops (loop filter removed the bad alternates)" 0
    c.Packetsim.dropped_valley;
  Alcotest.(check bool)
    (Printf.sprintf "MIFO (%.3fs) faster than BGP (%.3fs)" mifo_time bgp_time)
    true
    (mifo_time < bgp_time *. 0.95)

(* Outputs of the full-MIFO diamond run, recorded while As_network still
   registered its greedy choosers through the single-alternative (option
   returning) API.  The ranked choosers that replaced it return [[]] or
   [[p]] and must reproduce the run bit for bit. *)
let test_as_network_mifo_pinned () =
  let net = run_diamond (Deployment.full ~n:6) in
  let sim = net.As_network.sim in
  Alcotest.(check int) "events" 201083 (Packetsim.events_processed sim);
  Alcotest.(check (array int64)) "finish times"
    [| 0x3fc421fe01a315c7L; 0x3fc1937d287d5171L |]
    (Array.map
       (fun (r : Packetsim.flow_result) ->
         Int64.bits_of_float (Option.value r.finish ~default:Float.nan))
       (Packetsim.flow_results sim));
  Alcotest.(check (list (pair int int))) "path switches" [ (0, 53331); (1, 61276) ]
    (Packetsim.path_switches sim);
  let c = Packetsim.counters sim in
  Alcotest.(check (list int)) "counters" [ 20091; 2; 0; 0; 0; 0; 2612 ]
    Packetsim.
      [
        c.delivered_packets; c.dropped_queue; c.dropped_ttl; c.dropped_valley;
        c.dropped_no_route; c.encapsulated; c.deflected;
      ]

let test_as_network_tracer_reconstructs_path () =
  let table = Routing_table.create (diamond ()) in
  let net =
    As_network.build table ~deployment:(Deployment.none ~n:6) ~host_rate:10e9
      ~hosts:[ 0; 4 ] ()
  in
  let hops = ref [] in
  Packetsim.set_tracer net.As_network.sim (fun _time node packet _action ->
      if packet.Packet.kind = Packet.Data && packet.Packet.seq = 0 && packet.Packet.flow = 0
      then hops := node :: !hops);
  ignore (As_network.add_transfer net ~src_as:4 ~dst_as:0 ~bytes:2_000 ~start:0.);
  As_network.run net;
  (* seq 0 of flow 0 crosses routers of 4, 3, 1, 0 in order *)
  let expected = List.map (fun v -> As_network.router net v) [ 4; 3; 1; 0 ] in
  Alcotest.(check (list int)) "hop sequence" expected (List.rev !hops)

let test_as_network_rejects_bad_host () =
  let table = Routing_table.create (diamond ()) in
  Alcotest.(check bool) "range check" true
    (match
       As_network.build table ~deployment:(Deployment.none ~n:6) ~hosts:[ 99 ] ()
     with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* An AS without a host is named in an [Invalid_argument], not a bare
   [Not_found]. *)
let check_missing_host name expected f =
  Alcotest.(check (option string)) name (Some expected)
    (match f () with exception Invalid_argument msg -> Some msg | _ -> None)

let test_as_network_missing_host () =
  let table = Routing_table.create (diamond ()) in
  let net =
    As_network.build table ~deployment:(Deployment.none ~n:6) ~hosts:[ 0; 4 ] ()
  in
  let msg = "As_network.host: AS 1 has no host" in
  check_missing_host "host" msg (fun () -> As_network.host net 1);
  check_missing_host "add_transfer" msg (fun () ->
      As_network.add_transfer net ~src_as:4 ~dst_as:1 ~bytes:1_000 ~start:0.);
  check_missing_host "out of range" "As_network.host: AS 6 has no host" (fun () ->
      As_network.host net 6)

(* [router] names an AS it has no router for, like [host]. *)
let test_as_network_router_range () =
  let table = Routing_table.create (diamond ()) in
  let net = As_network.build table ~deployment:(Deployment.none ~n:6) ~hosts:[ 0 ] () in
  Alcotest.(check int) "in range" 3 (As_network.router net 3);
  List.iter
    (fun v ->
      Alcotest.(check (option string)) (Printf.sprintf "AS %d" v)
        (Some (Printf.sprintf "As_network.router: AS %d out of range" v))
        (match As_network.router net v with exception Invalid_argument msg -> Some msg | _ -> None))
    [ 6; -1; 44_340 ]

(* The port map on a built network: every eBGP port leads to the router
   of the AS its kind names, and every FIB entry's out port faces the
   default next hop and its slot-0 alternative the first RIB
   alternative (legacy ASes: none). *)
let test_as_network_port_map () =
  let topo =
    Generator.generate
      ~params:
        {
          Generator.default_params with
          Generator.ases = 80;
          tier1 = 4;
          content_providers = 2;
          content_peer_span = (2, 5);
        }
      ~seed:11 ()
  in
  let g = topo.Generator.graph in
  let n = As_graph.n g in
  let table = Routing_table.create g in
  let deployment = Deployment.fraction ~n ~ratio:0.5 ~seed:3 in
  let hosts = [ 0; 17; 42; 79 ] in
  let net = As_network.build table ~deployment ~hosts () in
  let sim = net.As_network.sim in
  let facing node p =
    match Packetsim.port_kind sim node p with
    | Engine.Ebgp { neighbor_as; _ } -> neighbor_as
    | Engine.Ibgp _ | Engine.Local -> -1
  in
  for v = 0 to n - 1 do
    let node = As_network.router net v in
    for p = 0 to Packetsim.port_count sim node - 1 do
      let nb = facing node p in
      if nb >= 0 then
        Alcotest.(check int) "eBGP port lands on the neighbour's router"
          (As_network.router net nb)
          (fst (Packetsim.port_peer sim node p))
    done
  done;
  let with_alt = ref 0 in
  List.iter
    (fun d ->
      let rt = Routing_table.get table d in
      for v = 0 to n - 1 do
        let node = As_network.router net v in
        let fib = Packetsim.fib sim node in
        match (Mifo_core.Fib.find fib (Prefix.of_as d), v = d) with
        | -1, _ ->
          Alcotest.(check bool) "no entry only when unreachable" true
            (Mifo_bgp.Routing.rib_size rt v = 0 && v <> d)
        | e, true ->
          Alcotest.(check bool) "destination delivers locally" true
            (Packetsim.port_kind sim node (Mifo_core.Fib.out_port fib e) = Engine.Local)
        | e, false ->
          Alcotest.(check int) "out port faces the next hop"
            (Mifo_bgp.Routing.rib_via rt v 0)
            (facing node (Mifo_core.Fib.out_port fib e));
          let expected_alt =
            if Deployment.capable deployment v && Mifo_bgp.Routing.rib_size rt v > 1 then
              Mifo_bgp.Routing.rib_via rt v 1
            else -1
          in
          let alt = Mifo_core.Fib.alt_at fib e 0 in
          if alt >= 0 then incr with_alt;
          Alcotest.(check int) "slot-0 alt faces the first RIB alternative" expected_alt
            (if alt < 0 then -1 else facing node alt)
      done)
    hosts;
  Alcotest.(check bool) "some entries carry an alternative" true (!with_alt > 0)

(* ---------- Router_level ---------- *)

let routers_in (e : Router_level.t) v = e.first_router.(v + 1) - e.first_router.(v)

let test_router_level_structure () =
  let g = diamond () in
  let expansion = Router_level.expand ~links_per_router:1 ~max_routers:4 ~seed:3 g ~expand:[ 3 ] in
  Alcotest.(check int) "AS3 split into 4 routers (degree 4)" 4 (routers_in expansion 3);
  Alcotest.(check int) "others single-router" 1 (routers_in expansion 0);
  Alcotest.(check int) "total routers" 9 (Router_level.router_count expansion);
  (* every adjacency of AS3 is owned by one of its routers *)
  let owners = Array.to_list expansion.Router_level.link_router.(3) in
  List.iter
    (fun r -> Alcotest.(check int) "owner belongs to AS3" 3 expansion.Router_level.as_of_router.(r))
    owners;
  (* with links_per_router = 1, the 4 links of AS3 land on 4 distinct routers *)
  Alcotest.(check int) "distinct owners" 4 (List.length (List.sort_uniq compare owners));
  (* the built network meshes AS3's routers with iBGP and nothing else *)
  let net =
    As_network.build (Routing_table.create g) ~expansion ~deployment:(Deployment.none ~n:6)
      ~hosts:[] ()
  in
  let sim = net.As_network.sim in
  let ibgp = ref 0 in
  for node = 0 to Packetsim.node_count sim - 1 do
    for p = 0 to Packetsim.port_count sim node - 1 do
      match Packetsim.port_kind sim node p with
      | Engine.Ibgp { peer_router } ->
        Alcotest.(check (list int)) "iBGP inside AS3" [ 3; 3 ]
          (List.map (Array.get expansion.Router_level.as_of_router) [ node; peer_router ]);
        incr ibgp
      | Engine.Ebgp _ | Engine.Local -> ()
    done
  done;
  Alcotest.(check int) "full iBGP mesh of AS3 (both ends of 6 sessions)" 12 !ibgp

let test_router_level_rejects_bad_expand () =
  let g = diamond () in
  Alcotest.(check bool) "range check" true
    (match Router_level.expand ~seed:1 g ~expand:[ 42 ] with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_router_level_expand_tier1 () =
  let topo =
    Generator.generate
      ~params:
        {
          Generator.default_params with
          Generator.ases = 120;
          tier1 = 4;
          content_providers = 2;
          content_peer_span = (2, 5);
        }
      ~seed:5 ()
  in
  let expansion = Router_level.expand_tier1 ~seed:9 topo in
  (* exactly the tier-1s are multi-router (their degrees far exceed
     links_per_router) *)
  Array.iteri
    (fun v role ->
      let k = routers_in expansion v in
      match role with
      | Generator.Tier1 -> Alcotest.(check bool) "tier1 expanded" true (k >= 2)
      | Generator.Transit | Generator.Stub ->
        Alcotest.(check int) "others single" 1 k)
    topo.Generator.roles

(* ---------- router-level networks: As_network.build ~expansion ---------- *)

let test_expanded_tunnels () =
  let g = diamond () in
  let table = Routing_table.create g in
  let expansion = Router_level.expand ~links_per_router:1 ~max_routers:4 ~seed:5 g ~expand:[ 3 ] in
  let run dep =
    let net =
      As_network.build table ~expansion ~deployment:dep ~host_rate:10e9 ~hosts:[ 0; 4; 5 ] ()
    in
    ignore (As_network.add_transfer net ~src_as:4 ~dst_as:0 ~bytes:10_000_000 ~start:0.);
    ignore (As_network.add_transfer net ~src_as:5 ~dst_as:0 ~bytes:10_000_000 ~start:0.);
    As_network.run net;
    net
  in
  let bgp = run (Deployment.none ~n:6) in
  let mifo = run (Deployment.full ~n:6) in
  let cb = Packetsim.counters bgp.As_network.sim in
  let cm = Packetsim.counters mifo.As_network.sim in
  Alcotest.(check int) "BGP: both flows finish" 2
    (finished (Packetsim.flow_results bgp.As_network.sim));
  Alcotest.(check int) "MIFO: both flows finish" 2
    (finished (Packetsim.flow_results mifo.As_network.sim));
  Alcotest.(check int) "BGP never tunnels" 0 cb.Packetsim.encapsulated;
  (* the alternative egress lives on a different border router, so MIFO
     deflections must ride IP-in-IP across the iBGP mesh *)
  Alcotest.(check bool) "MIFO tunnels over iBGP" true (cm.Packetsim.encapsulated > 0);
  Alcotest.(check int) "no TTL deaths" 0 cm.Packetsim.dropped_ttl;

  (* The MIFO run's fingerprint, recorded while the builder still kept
     its eBGP ports in a (u, v)-keyed table and precomputed per-entry
     candidate lists; the neighbour-indexed ports and the choosers that
     read the routing arena must reproduce it bit for bit. *)
  let sim = mifo.As_network.sim in
  Alcotest.(check int) "MIFO events" 246054 (Packetsim.events_processed sim);
  Alcotest.(check (array int64)) "MIFO finish times"
    [| 0x3fc239a1d10f6a74L; 0x3fc1e9bf5471ced9L |]
    (Array.map
       (fun (r : Packetsim.flow_result) ->
         Int64.bits_of_float (Option.value r.finish ~default:Float.nan))
       (Packetsim.flow_results sim));
  Alcotest.(check (list (pair int int))) "MIFO path switches" [ (0, 68858); (1, 79187) ]
    (Packetsim.path_switches sim);
  Alcotest.(check (list int)) "MIFO counters" [ 20096; 2; 0; 0; 0; 4750; 9500 ]
    Packetsim.
      [
        cm.delivered_packets; cm.dropped_queue; cm.dropped_ttl; cm.dropped_valley;
        cm.dropped_no_route; cm.encapsulated; cm.deflected;
      ]

(* ---------- one builder, with and without an expansion ---------- *)

(* validate's 150-AS topology at seed 42. *)
let validate_topology () =
  (Generator.generate
     ~params:
       {
         Generator.default_params with
         Generator.ases = 150;
         tier1 = 4;
         content_providers = 2;
         content_peer_span = (3, 8);
       }
     ~seed:42 ())
    .Generator.graph

(* Every router's FIB entries, one line each, sorted. *)
let fib_dump sim =
  let acc = ref [] in
  for node = Packetsim.node_count sim - 1 downto 0 do
    match Packetsim.node_view sim node with
    | Packetsim.Host_view _ -> ()
    | Packetsim.Router_view { as_id } ->
      let fib = Packetsim.fib sim node in
      Mifo_core.Fib.iter fib (fun e ->
          acc :=
            Printf.sprintf "node %d (AS %d) %s out %d alts [%s] buckets %d" node as_id
              (Prefix.to_string (Mifo_core.Fib.prefix fib e))
              (Mifo_core.Fib.out_port fib e)
              (String.concat ";"
                 (List.init (Mifo_core.Fib.alt_count fib e) (fun i ->
                      string_of_int (Mifo_core.Fib.alt_at fib e i))))
              (Mifo_core.Fib.deflect_buckets fib e)
            :: !acc)
  done;
  List.sort compare !acc

(* Events, finish-time bits, path switches and counters of a finished run. *)
let fingerprint sim =
  let c = Packetsim.counters sim in
  ( Packetsim.events_processed sim,
    Array.to_list
      (Array.map
         (fun (r : Packetsim.flow_result) ->
           Int64.bits_of_float (Option.value r.finish ~default:Float.nan))
         (Packetsim.flow_results sim)),
    Packetsim.path_switches sim,
    Packetsim.
      [
        c.delivered_packets; c.dropped_queue; c.dropped_ttl; c.dropped_valley;
        c.dropped_no_route; c.encapsulated; c.deflected;
      ] )

(* validate's endpoint pool and transfers at seed 42 (8 sources, 16
   sinks), at a tenth of its flow size. *)
let equivalence_scenario () =
  let rng = Mifo_util.Prng.create ~seed:43 () in
  let pool = Mifo_util.Prng.sample_without_replacement rng 24 150 in
  let transfers =
    List.init 24 (fun i ->
        let src = pool.(Mifo_util.Prng.int rng 8) in
        let rec pick_dst () =
          let d = pool.(8 + Mifo_util.Prng.int rng 16) in
          if d = src then pick_dst () else d
        in
        (src, pick_dst (), 0.002 *. float_of_int i))
  in
  (Array.to_list pool, transfers)

(* The default build (one border router per AS) and a build over an
   expansion that splits no AS are the same network: the same FIB entry
   on every router, and a bit-identical packet run. *)
let test_unexpanded_matches_default () =
  let g = validate_topology () in
  let n = As_graph.n g in
  let table = Routing_table.create g in
  let expansion = Router_level.expand ~seed:5 g ~expand:[] in
  let hosts, scenario = equivalence_scenario () in
  let transfers add =
    List.iter
      (fun (src_as, dst_as, start) -> ignore (add ~src_as ~dst_as ~bytes:1_000_000 ~start))
      scenario
  in
  List.iter
    (fun (label, deployment) ->
      let a = As_network.build table ~deployment ~host_rate:20e9 ~hosts () in
      let b = As_network.build table ~expansion ~deployment ~host_rate:20e9 ~hosts () in
      Alcotest.(check int) (label ^ ": node count")
        (Packetsim.node_count a.As_network.sim)
        (Packetsim.node_count b.As_network.sim);
      Alcotest.(check (list string)) (label ^ ": FIB entries")
        (fib_dump a.As_network.sim) (fib_dump b.As_network.sim);
      transfers (As_network.add_transfer a);
      transfers (As_network.add_transfer b);
      As_network.run a;
      As_network.run b;
      let ea, fa, sa, ca = fingerprint a.As_network.sim in
      let eb, fb, sb, cb = fingerprint b.As_network.sim in
      Alcotest.(check int) (label ^ ": events") ea eb;
      Alcotest.(check (list int64)) (label ^ ": finish times") fa fb;
      Alcotest.(check (list (pair int int))) (label ^ ": path switches") sa sb;
      Alcotest.(check (list int)) (label ^ ": counters") ca cb;
      Alcotest.(check int) (label ^ ": every transfer finished")
        (List.length scenario)
        (finished (Packetsim.flow_results a.As_network.sim));
      Alcotest.(check bool) (label ^ ": deflects only under MIFO") (label = "MIFO")
        ((Packetsim.counters a.As_network.sim).Packetsim.deflected > 0))
    [ ("BGP", Deployment.none ~n); ("MIFO", Deployment.full ~n) ]

(* ---------- the wiring, pinned ---------- *)

(* A generated 2,000-AS network (seed 42), half the ASes MIFO-capable, 8
   host ASes: built once with one router per AS and once with every AS
   of degree >= 2 split into 2 routers. *)
let wiring_networks () =
  let g = (Generator.generate ~seed:42 ()).Generator.graph in
  let n = As_graph.n g in
  let table = Routing_table.create g in
  let deployment = Deployment.fraction ~n ~ratio:0.5 ~seed:3 in
  let hosts =
    Array.to_list
      (Mifo_util.Prng.sample_without_replacement (Mifo_util.Prng.create ~seed:59 ()) 8 n)
  in
  let expansion =
    Router_level.expand ~links_per_router:1 ~max_routers:2 ~seed:7 g
      ~expand:(List.init n Fun.id)
  in
  ( As_network.build table ~deployment ~hosts (),
    As_network.build table ~expansion ~deployment ~hosts () )

(* Everything the builder wired, in node order: each node's view and
   port count, each port's far end, kind and link parameters, and each
   router's FIB entries in [Fib.iter] order. *)
let wiring_digest sim =
  let module Fib = Mifo_core.Fib in
  let b = Buffer.create (1 lsl 20) in
  let add fmt = Printf.bprintf b fmt in
  for node = 0 to Packetsim.node_count sim - 1 do
    (match Packetsim.node_view sim node with
    | Packetsim.Router_view { as_id } -> add "R%d as%d" node as_id
    | Packetsim.Host_view { addr } -> add "H%d %ld" node addr);
    add " ports %d\n" (Packetsim.port_count sim node);
    for p = 0 to Packetsim.port_count sim node - 1 do
      let peer, peer_port = Packetsim.port_peer sim node p in
      add " %d->%d.%d " p peer peer_port;
      (match Packetsim.port_kind sim node p with
      | Engine.Local -> add "local"
      | Engine.Ibgp { peer_router } -> add "ibgp %d" peer_router
      | Engine.Ebgp { neighbor_as; rel } ->
        add "ebgp %d %s" neighbor_as (Mifo_topology.Relationship.to_string rel));
      add " %h %h %d\n" (Packetsim.port_rate sim node p) (Packetsim.port_delay sim node p)
        (Packetsim.port_queue_bits sim node p)
    done;
    if Packetsim.is_router sim node then begin
      let fib = Packetsim.fib sim node in
      Fib.iter fib (fun e ->
          add " fib %d out %d alts" (Fib.prefix_key fib e) (Fib.out_port fib e);
          for i = 0 to Fib.alt_count fib e - 1 do
            add " %d" (Fib.alt_at fib e i)
          done;
          add " buckets %d\n" (Fib.deflect_buckets fib e))
    end
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_wiring_pinned () =
  let flat, expanded = wiring_networks () in
  Alcotest.(check string) "one router per AS" "92154bcc23ba0902101f71647ddbf968"
    (wiring_digest flat.As_network.sim);
  Alcotest.(check string) "2 routers per AS" "21dc913ea321abf02ee1a40cae54a803"
    (wiring_digest expanded.As_network.sim)

let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Words one warmed [As_network.build] allocates, with the network's
   router, FIB entry and port counts.  The port map is built on the
   first port lookup after the last [connect], so the measurement ends
   with one lookup and counts it. *)
let build_words build =
  let build_and_look_up () =
    let net = build () in
    ignore (Packetsim.port_peer_node net.As_network.sim 0 0);
    net
  in
  ignore (build_and_look_up ());
  Gc.minor ();
  let w0 = allocated_words () in
  let net = build_and_look_up () in
  let words = allocated_words () -. w0 in
  let sim = net.As_network.sim in
  let routers = ref 0 and entries = ref 0 and ports = ref 0 in
  for node = 0 to Packetsim.node_count sim - 1 do
    ports := !ports + Packetsim.port_count sim node;
    if Packetsim.is_router sim node then begin
      incr routers;
      entries := !entries + Mifo_core.Fib.size (Packetsim.fib sim node)
    end
  done;
  (words, !routers, !entries, !ports)

(* A warmed build of the generated 2,000-AS network (8 host prefixes,
   every AS MIFO-capable) allocates per router, per FIB entry and per
   port, and nothing more per link.  Per port: the arena's 9.5 words
   (4 ints and 3 floats per slot, the kind, 3 floats per link) and one
   word of the builder's adjacency-indexed port table.  Per router: the
   node, router and empty FIB records, the daemon chooser, the
   per-(AS, relationship) eBGP kinds.  Per FIB entry: a 7-int arena
   cell and 2 index cells.  The port map the first lookup builds adds
   about one word per port and per node.  Measured 460,106 words for
   2,000 routers, 16,000 entries and 16,606 ports, against a budget of
   469,272 (441,530 without the port map).  With a 3-word record per
   port it read 507,956, and with a 7-word link record per port
   574,387, both without the port map. *)
let test_build_allocation_gate () =
  let g = (Generator.generate ~seed:42 ()).Generator.graph in
  let n = As_graph.n g in
  let table = Routing_table.create g in
  let hosts =
    Array.to_list
      (Mifo_util.Prng.sample_without_replacement (Mifo_util.Prng.create ~seed:59 ()) 8 n)
  in
  let words, routers, entries, ports =
    build_words (fun () -> As_network.build table ~deployment:(Deployment.full ~n) ~hosts ())
  in
  let budget = (50 * routers) + (10 * entries) + (12 * ports) + 10_000 in
  if words > float_of_int budget then
    Alcotest.failf
      "build allocated %.0f words for %d routers, %d FIB entries and %d ports (budget %d)"
      words routers entries ports budget

let test_expanded_missing_host () =
  let g = diamond () in
  let table = Routing_table.create g in
  let expansion = Router_level.expand ~seed:5 g ~expand:[ 3 ] in
  let net =
    As_network.build table ~expansion ~deployment:(Deployment.none ~n:6) ~hosts:[ 0; 4 ] ()
  in
  let msg = "As_network.host: AS 1 has no host" in
  check_missing_host "host" msg (fun () -> As_network.host net 1);
  check_missing_host "add_transfer" msg (fun () ->
      As_network.add_transfer net ~src_as:1 ~dst_as:0 ~bytes:1_000 ~start:0.)

let test_expanded_rejects_mismatched_graph () =
  let g1 = diamond () in
  let g2 = diamond () in
  let expansion = Router_level.expand ~seed:1 g1 ~expand:[ 3 ] in
  let table = Routing_table.create g2 in
  Alcotest.(check (option string)) "graph identity check"
    (Some "As_network.build: expansion is over a different graph")
    (match
       As_network.build table ~expansion ~deployment:(Deployment.none ~n:6) ~hosts:[ 0 ] ()
     with
     | exception Invalid_argument msg -> Some msg
     | _ -> None)

let () =
  Alcotest.run "mifo_network"
    [
      ( "as_network",
        [
          Alcotest.test_case "BGP baseline bottlenecks" `Quick test_as_network_bgp_baseline;
          Alcotest.test_case "MIFO relieves the bottleneck" `Slow test_as_network_mifo_relieves;
          Alcotest.test_case "MIFO diamond matches the pinned k=1 outputs" `Quick
            test_as_network_mifo_pinned;
          Alcotest.test_case "tracer reconstructs the path" `Quick
            test_as_network_tracer_reconstructs_path;
          Alcotest.test_case "host validation" `Quick test_as_network_rejects_bad_host;
          Alcotest.test_case "missing host is an Invalid_argument" `Quick
            test_as_network_missing_host;
          Alcotest.test_case "AS out of range is an Invalid_argument" `Quick
            test_as_network_router_range;
          Alcotest.test_case "ports and FIB entries face the routing" `Quick
            test_as_network_port_map;
        ] );
      ( "router_level",
        [
          Alcotest.test_case "expansion structure" `Quick test_router_level_structure;
          Alcotest.test_case "validation" `Quick test_router_level_rejects_bad_expand;
          Alcotest.test_case "tier-1 expansion" `Quick test_router_level_expand_tier1;
        ] );
      (* Router-level networks, built by [As_network.build ~expansion]. *)
      ( "router_network",
        [
          Alcotest.test_case "deflections tunnel over iBGP" `Slow test_expanded_tunnels;
          Alcotest.test_case "graph identity" `Quick test_expanded_rejects_mismatched_graph;
          Alcotest.test_case "missing host is an Invalid_argument" `Quick
            test_expanded_missing_host;
          Alcotest.test_case "an expansion that splits no AS is the default build"
            `Quick test_unexpanded_matches_default;
          Alcotest.test_case "2,000 ASes: the wiring is pinned" `Quick test_wiring_pinned;
          Alcotest.test_case "allocation gate: the build" `Quick test_build_allocation_gate;
        ] );
    ]
