module As_graph = Mifo_topology.As_graph
module Generator = Mifo_topology.Generator
module Routing_table = Mifo_bgp.Routing_table
module Deployment = Mifo_core.Deployment
module Flowsim = Mifo_netsim.Flowsim
module Packetsim = Mifo_netsim.Packetsim
module As_network = Mifo_netsim.As_network
module Table = Mifo_util.Table
module Obs = Mifo_util.Obs

type t = {
  flows : int;
  ases : int;
  bgp_correlation : float;
  bgp_mean_ratio : float;
  flowsim_speedup : float;
  packetsim_speedup : float;
  invariants : (string * bool) list;
  static_report : Mifo_analysis.Report.t;
      (** static data-plane verifier over the scenario's routing state
          and the MIFO packet network's installed FIBs *)
}

let makespan results =
  Array.fold_left
    (fun acc (r : Packetsim.flow_result) ->
      match r.finish with Some f -> Float.max acc f | None -> acc)
    0. results

(* Endpoints come from a pool of this many distinct ASes: 8 sources
   and 16 sinks. *)
let min_ases = 24

let run ?(ases = 150) ?(flows = 24) ?(flow_bytes = 10_000_000) ?(domains = 1) ~seed () =
  if ases < min_ases then invalid_arg "Validation.run: need at least 24 ASes";
  let params =
    {
      Generator.default_params with
      Generator.ases;
      tier1 = 4;
      content_providers = 2;
      content_peer_span = (3, 8);
    }
  in
  let topo = Generator.generate ~params ~seed () in
  let g = topo.Generator.graph in
  let table = Routing_table.create g in
  let rng = Mifo_util.Prng.create ~seed:(seed + 1) () in
  (* endpoints from a limited pool so the packet network stays small and
     flows actually contend *)
  let pool = Mifo_util.Prng.sample_without_replacement rng min_ases ases in
  let specs =
    Array.init flows (fun i ->
        let src = pool.(Mifo_util.Prng.int rng 8) in
        let rec pick_dst () =
          let d = pool.(8 + Mifo_util.Prng.int rng 16) in
          if d = src then pick_dst () else d
        in
        {
          Flowsim.src;
          dst = pick_dst ();
          size_bits = float_of_int (flow_bytes * 8);
          start = 0.002 *. float_of_int i;
        })
  in
  let hosts = Array.to_list pool in
  (* --- flow level --- *)
  let flow_params = { Flowsim.default_params with Flowsim.dt = 0.005 } in
  let flow_run deployment =
    let proto =
      if Deployment.count deployment = 0 then Flowsim.Bgp else Flowsim.Mifo deployment
    in
    Flowsim.run ~params:flow_params table proto specs
  in
  let fl_bgp = flow_run (Deployment.none ~n:ases) in
  let fl_mifo = flow_run (Deployment.full ~n:ases) in
  (* --- packet level --- *)
  let packet_run deployment =
    let config = { Packetsim.default_config with Packetsim.domains } in
    let net = As_network.build ~config table ~deployment ~host_rate:20e9 ~hosts () in
    Array.iter
      (fun (s : Flowsim.flow_spec) ->
        ignore
          (As_network.add_transfer net ~src_as:s.Flowsim.src ~dst_as:s.Flowsim.dst
             ~bytes:flow_bytes ~start:s.Flowsim.start))
      specs;
    As_network.run net;
    net
  in
  (* Engine counter deltas around the packet-level runs turn the global
     drop accounting into checkable invariants of this scenario. *)
  let engine_snap () =
    ( Obs.counter_value "engine.drop.valley_violation",
      Obs.counter_value "engine.drop.no_route",
      Obs.counter_value "engine.drop.ttl_expired",
      Obs.counter_value "engine.encap" )
  in
  let v0, n0, t0, e0 = engine_snap () in
  let pk_bgp = packet_run (Deployment.none ~n:ases) in
  let pk_mifo = packet_run (Deployment.full ~n:ases) in
  let v1, n1, t1, e1 = engine_snap () in
  (* Static data-plane verifier: the scenario's routing state must be
     loop-free and valley-free at the AS level, and the MIFO network's
     FIBs — including the alternative ports the daemon has been
     refreshing all run — must be consistent and loop-free for every
     deflection the engine could take. *)
  let static_report =
    let routing = List.map (fun d -> (d, Routing_table.get table d)) hosts in
    Mifo_analysis.Report.merge
      [
        Mifo_analysis.Verifier.verify_props ~props:[ Mifo_analysis.Props.Loops ] g ~table
          ~dests:hosts;
        Mifo_analysis.Verifier.verify_network pk_mifo.As_network.sim ~routing;
      ]
  in
  let c_bgp = Packetsim.counters pk_bgp.As_network.sim in
  let c_mifo = Packetsim.counters pk_mifo.As_network.sim in
  let invariants =
    [
      (* tag-check on, alternatives are eBGP ports chosen from the RIB:
         no packet may ever die to a valley violation *)
      ( "no valley-violation drops (tag-check on)",
        v1 - v0 = 0
        && c_bgp.Packetsim.dropped_valley = 0
        && c_mifo.Packetsim.dropped_valley = 0 );
      (* the AS-level network has one router per AS and no iBGP ports,
         so nothing can be tunneled *)
      ("no tunnels in an AS-level network", e1 - e0 = 0);
      (* FIBs are complete and forwarding is loop-free *)
      ( "no ttl or no-route drops",
        t1 - t0 = 0 && c_bgp.Packetsim.dropped_no_route = 0
        && c_mifo.Packetsim.dropped_no_route = 0 );
      (* the engine's global drop counters agree with the per-simulation
         accounting: every drop is attributed exactly once *)
      ( "engine drop accounting matches simulator counters",
        n1 - n0 = c_bgp.Packetsim.dropped_no_route + c_mifo.Packetsim.dropped_no_route
        && v1 - v0 = c_bgp.Packetsim.dropped_valley + c_mifo.Packetsim.dropped_valley );
      (* machine-checked: loop-freedom and valley-free compliance of
         every derivable path, plus FIB/RIB consistency of the built
         network *)
      ("static data-plane verifier clean", Mifo_analysis.Report.ok static_report);
      (* every packet a host sent is delivered, absorbed as an ACK or a
         stray, dropped, or still in flight — exactly once *)
      ( "packet conservation (both legs)",
        List.for_all
          (fun net ->
            let sim = net.As_network.sim in
            let c = Packetsim.counters sim in
            Packetsim.originated sim
            = c.Packetsim.delivered_packets + Packetsim.acks_absorbed sim
              + Packetsim.strays_absorbed sim + c.Packetsim.dropped_queue
              + c.Packetsim.dropped_ttl + c.Packetsim.dropped_valley
              + c.Packetsim.dropped_no_route + Packetsim.in_flight sim)
          [ pk_bgp; pk_mifo ] );
    ]
  in
  (* per-flow throughput comparison under BGP: packetsim flows were added
     in spec order, flowsim reports in spec order too *)
  let pk_tputs net =
    Array.map
      (fun (r : Packetsim.flow_result) ->
        match r.Packetsim.finish with
        | Some f when f > r.Packetsim.start ->
          float_of_int (r.Packetsim.bytes * 8) /. (f -. r.Packetsim.start)
        | _ -> 0.)
      (Packetsim.flow_results net.As_network.sim)
  in
  let fl_tputs (r : Flowsim.result) =
    (* Flowsim reports in arrival order; map back to input order through
       the start times, which are unique by construction *)
    let by_idx = Array.make (Array.length specs) 0. in
    let tbl = Hashtbl.create 64 in
    Array.iter
      (fun (s : Flowsim.flow_stats) -> Hashtbl.replace tbl s.Flowsim.spec.Flowsim.start s.Flowsim.throughput)
      r.Flowsim.flows;
    Array.iteri (fun i (s : Flowsim.flow_spec) -> by_idx.(i) <- Hashtbl.find tbl s.Flowsim.start) specs;
    by_idx
  in
  let a = fl_tputs fl_bgp and b = pk_tputs pk_bgp in
  let ratio = Mifo_util.Stats.create () in
  Array.iteri
    (fun i x -> if b.(i) > 0. then Mifo_util.Stats.add ratio (x /. b.(i)))
    a;
  let fl_makespan (r : Flowsim.result) =
    Array.fold_left
      (fun acc (s : Flowsim.flow_stats) -> Float.max acc s.Flowsim.finish)
      0. r.Flowsim.flows
  in
  let flowsim_speedup = fl_makespan fl_bgp /. Float.max 1e-9 (fl_makespan fl_mifo) in
  let packetsim_speedup =
    makespan (Packetsim.flow_results pk_bgp.As_network.sim)
    /. Float.max 1e-9 (makespan (Packetsim.flow_results pk_mifo.As_network.sim))
  in
  {
    flows;
    ases;
    bgp_correlation = Mifo_util.Stats.correlation a b;
    bgp_mean_ratio = Mifo_util.Stats.mean ratio;
    flowsim_speedup;
    packetsim_speedup;
    invariants;
    static_report;
  }

let render t =
  Printf.sprintf
    "== Validation: flow-level vs packet-level simulator (%d flows, %d ASes) ==\n"
    t.flows t.ases
  ^ Table.render
      ~header:[ "metric"; "value" ]
      ~rows:
        [
          [ "per-flow throughput correlation (BGP)"; Table.fmt_float ~decimals:3 t.bgp_correlation ];
          [ "mean throughput ratio flow/packet (BGP)"; Table.fmt_float ~decimals:3 t.bgp_mean_ratio ];
          [ "MIFO speedup, flow-level sim"; Table.fmt_float ~decimals:2 t.flowsim_speedup ^ "x" ];
          [ "MIFO speedup, packet-level sim"; Table.fmt_float ~decimals:2 t.packetsim_speedup ^ "x" ];
        ]
  ^ String.concat ""
      (List.map
         (fun (name, ok) ->
           Printf.sprintf "  invariant: %-48s %s\n" name (if ok then "ok" else "VIOLATED"))
         t.invariants)
  ^
  if Mifo_analysis.Report.ok t.static_report then ""
  else Mifo_analysis.Report.summary t.static_report ^ "\n"
