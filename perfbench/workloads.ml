(* The four benchmark workloads.  Each one covers one part of the paper's
   evaluation and loads a different set of layers:

   - flow-fig5: AS-scale flow simulation (Figs. 5-9); Flowsim and its
     max-min solver do the timed work, routing happens in set-up.
   - pkt-testbed: the Fig. 12 testbed; the per-packet Engine path with
     heavy IP-in-IP tunnelling on 11 routers, no topology or routing work.
   - pkt-as: the packet half of `mifo_sim validate`, scaled up; the same
     Packetsim/Engine/Eventq layers as pkt-testbed but hundreds of
     one-router ASes, many concurrent flows, eBGP-only deflection and
     queue drops.
   - check-44k: `mifo_sim check` on the paper's 44,340-AS topology;
     static analysis and the 44K network build, no events simulated.

   A workload does its set-up when [setup] is called and hands back the
   timed phase, the correctness outcome and the traced-only probes as
   closures over the prepared state. *)

module Generator = Mifo_topology.Generator
module As_graph = Mifo_topology.As_graph
module Routing_table = Mifo_bgp.Routing_table
module Deployment = Mifo_core.Deployment
module Flowsim = Mifo_netsim.Flowsim
module Packetsim = Mifo_netsim.Packetsim
module As_network = Mifo_netsim.As_network
module Testbed = Mifo_testbed.Testbed
module Context = Mifo_exp.Context
module Experiments = Mifo_exp.Experiments
module Verifier = Mifo_analysis.Verifier
module Props = Mifo_analysis.Props
module Report = Mifo_analysis.Report
module Parallel = Mifo_util.Parallel
module Prng = Mifo_util.Prng
module Obs = Mifo_util.Obs

type size = Full | Smoke

type outcome = {
  work : float;  (* deterministic work units behind work_per_s *)
  counts : (string * int) list;  (* deterministic work counts *)
  digest : string;  (* MD5 of the outputs, hex *)
  checks : (string * bool) list;  (* domain invariants *)
}

type run = {
  timed : unit -> unit;
  outcome : unit -> outcome;
  layer : unit -> (string * float) list;
      (* per-layer metrics, read from the spans; traced repetitions only,
         and may run probes after the timed phase *)
}

type t = { name : string; setup : size -> seed:int -> run }

let digest_of fill =
  let b = Buffer.create 4096 in
  fill b;
  Digest.to_hex (Digest.string (Buffer.contents b))

let add_int b i = Buffer.add_int64_le b (Int64.of_int i)
let add_float b x = Buffer.add_int64_le b (Int64.bits_of_float x)

let span = Trace.span

let heap_mb () = float_of_int (Gc.quick_stat ()).Gc.heap_words *. 8. /. 1e6

(* The AS topologies are generated from one fixed seed, the repository's
   default: the paper evaluates on a single Internet topology, and fixing
   it keeps the work a run does from swinging with --seed.  The seed draws
   what varies between experiments on that topology: traffic, endpoints
   and samples. *)
let topology_seed = 42

let generate params =
  span "topology.generate" (fun () -> Generator.generate ~params ~seed:topology_seed ())

let precompute table dests =
  span "bgp.precompute" (fun () -> Routing_table.precompute table dests)

(* For a workload whose timed phase is serial: shut the shared pool's
   worker domains down once set-up has used them.  An idle worker domain
   still joins every minor collection, which on a shared 2-core machine
   makes serial timings much noisier. *)
let release_pool () = Parallel.set_default_jobs 1

(* Rates of the set-up layers every AS-topology workload shares. *)
let setup_layers ~ases ~dests ~heap =
  [
    ("topology.ases_per_s", Trace.rate (float_of_int ases) "topology.generate");
    ("bgp.dests_per_s", Trace.rate (float_of_int dests) "bgp.precompute");
    ("bgp.heap_mb", heap);
  ]

let gauge name =
  let v = Obs.gauge_value name in
  if Float.is_finite v then v else 0.

let eventq_layers () =
  [ ("eventq.peak_len", gauge "eventq.peak_len");
    ("eventq.wheel.cascades", gauge "eventq.wheel.cascades") ]

let no_bad_drops (c : Packetsim.counters) =
  c.Packetsim.dropped_ttl = 0 && c.Packetsim.dropped_valley = 0
  && c.Packetsim.dropped_no_route = 0

let add_counters b (c : Packetsim.counters) =
  List.iter (add_int b)
    [ c.Packetsim.delivered_packets; c.dropped_queue; c.dropped_ttl; c.dropped_valley;
      c.dropped_no_route; c.encapsulated; c.deflected ]

(* --- flow-fig5 --------------------------------------------------------- *)

(* The Fig. 5 sweep at four times the default offered load: BGP, MIRO
   and MIFO at deployment ratios 1.0, 0.5 and 0.1 over one uniform flow
   set, as {!Experiments.Throughput.fig5} runs it. *)
let flow_fig5 size ~seed =
  let ases, flows, rate =
    match size with Full -> (2_000, 3_000, 4_000.) | Smoke -> (200, 300, 300.)
  in
  let params = { Generator.default_params with Generator.ases } in
  let ctx = Context.of_graph ~seed (generate params) in
  let specs =
    span "traffic.uniform" (fun () ->
        Mifo_traffic.Traffic.uniform (Context.rng ctx ~purpose:5) ~n_ases:ases ~count:flows
          ~rate ())
  in
  span "bgp.precompute" (fun () -> Experiments.precompute_flow_dests ctx.Context.table specs);
  release_pool ();
  let heap = heap_mb () in
  let dests = Routing_table.cached_count ctx.Context.table in
  let legs =
    List.concat_map
      (fun ratio ->
        let deployment = Context.deployment ctx ~ratio in
        [ ("bgp", Flowsim.Bgp);
          ("miro", Flowsim.Miro { deployment; cap = ctx.Context.scale.Context.miro_cap });
          ("mifo", Flowsim.Mifo deployment) ])
      [ 1.0; 0.5; 0.1 ]
  in
  let results = ref [] in
  let timed () =
    results :=
      List.map
        (fun (label, proto) ->
          ( label,
            span ("flowsim." ^ label) (fun () ->
                Flowsim.run ~params:ctx.Context.scale.Context.sim ctx.Context.table proto specs) ))
        legs
  in
  let total f = List.fold_left (fun acc (_, r) -> acc + f r) 0 !results in
  let epochs () = total (fun r -> r.Flowsim.epochs) in
  let solves () = total (fun r -> r.Flowsim.solves) in
  (* Flow-seconds simulated: each epoch costs in proportion to the flows
     active in it, so this tracks the work better than the epoch count,
     which the slowest flow of each run decides. *)
  let flow_seconds () =
    List.fold_left
      (fun acc (_, r) ->
        Array.fold_left
          (fun acc (s : Flowsim.flow_stats) ->
            acc +. (s.Flowsim.finish -. s.Flowsim.spec.Flowsim.start))
          acc r.Flowsim.flows)
      0. !results
  in
  let outcome () =
    let all p = List.for_all (fun (label, r) -> Array.for_all (p label) r.Flowsim.flows) !results in
    {
      work = flow_seconds ();
      counts =
        [ ("epochs", epochs ()); ("solves", solves ());
          ("completed",
           total (fun r ->
               Array.fold_left
                 (fun n s -> if s.Flowsim.completed then n + 1 else n)
                 0 r.Flowsim.flows)) ];
      digest =
        digest_of (fun b ->
            List.iter
              (fun (_, r) ->
                add_int b r.Flowsim.epochs;
                add_int b r.Flowsim.solves;
                Array.iter
                  (fun (s : Flowsim.flow_stats) ->
                    add_float b s.Flowsim.throughput;
                    add_float b s.Flowsim.finish;
                    add_int b s.Flowsim.switches)
                  r.Flowsim.flows)
              !results);
      checks =
        [ ("every flow reported",
           List.for_all (fun (_, r) -> Array.length r.Flowsim.flows = Array.length specs) !results);
          ("throughputs finite and non-negative",
           all (fun _ s -> Float.is_finite s.Flowsim.throughput && s.Flowsim.throughput >= 0.));
          ("BGP flows never leave the default path",
           all (fun label s ->
               label <> "bgp" || (s.Flowsim.switches = 0 && not s.Flowsim.used_alt))) ];
    }
  in
  let layer () =
    setup_layers ~ases ~dests ~heap
    @ [ ("flowsim.epochs_per_s", Trace.rate (float_of_int (epochs ())) "flowsim.");
        ("flowsim.solves", float_of_int (solves ()));
        ("flowsim.solve_ratio", float_of_int (solves ()) /. float_of_int (max 1 (epochs ())));
        ("flowsim.alloc_mwords", Trace.words "flowsim." /. 1e6) ]
  in
  { timed; outcome; layer }

(* --- pkt-testbed ------------------------------------------------------- *)

(* Fig. 12 on the 11-router testbed.  The testbed has no random input,
   so every seed runs the same network.  Set-up is a warm-up: one
   transfer per source under each protocol, so the timed phase starts
   with code paged in and the heap grown. *)
let pkt_testbed size ~seed:_ =
  let config =
    match size with
    | Full -> { Testbed.default_config with Testbed.flows_per_source = 10 }
    | Smoke -> { Testbed.default_config with Testbed.flows_per_source = 2 }
  in
  span "testbed.warmup" (fun () ->
      let warm = { config with Testbed.flows_per_source = 1 } in
      ignore (Testbed.run ~config:warm Testbed.Bgp_routing);
      ignore (Testbed.run ~config:warm Testbed.Mifo_routing));
  let bgp = ref None and mifo = ref None in
  let timed () =
    bgp := Some (span "testbed.run.bgp" (fun () -> Testbed.run ~config Testbed.Bgp_routing));
    mifo := Some (span "testbed.run.mifo" (fun () -> Testbed.run ~config Testbed.Mifo_routing))
  in
  let results () = match (!bgp, !mifo) with Some b, Some m -> (b, m) | _ -> assert false in
  let delivered () =
    let b, m = results () in
    b.Testbed.counters.Packetsim.delivered_packets + m.Testbed.counters.Packetsim.delivered_packets
  in
  let outcome () =
    let b, m = results () in
    let transfers = 2 * config.Testbed.flows_per_source in
    {
      work = float_of_int (delivered ());
      counts =
        [ ("delivered", delivered ());
          ("encapsulated", m.Testbed.counters.Packetsim.encapsulated);
          ("deflected", m.Testbed.counters.Packetsim.deflected) ];
      digest =
        digest_of (fun buf ->
            List.iter
              (fun (r : Testbed.result) ->
                Array.iter (add_float buf) r.Testbed.fct;
                Array.iter
                  (fun (t, v) -> add_float buf t; add_float buf v)
                  r.Testbed.aggregate_series;
                add_counters buf r.Testbed.counters;
                List.iter (fun (f, n) -> add_int buf f; add_int buf n) r.Testbed.switches)
              [ b; m ]);
      checks =
        [ ("every transfer completes",
           Array.length b.Testbed.fct = transfers && Array.length m.Testbed.fct = transfers);
          ("no ttl, valley or no-route drops",
           no_bad_drops b.Testbed.counters && no_bad_drops m.Testbed.counters);
          ("BGP never deflects or tunnels",
           b.Testbed.counters.Packetsim.deflected = 0
           && b.Testbed.counters.Packetsim.encapsulated = 0);
          ("MIFO tunnels deflected traffic", m.Testbed.counters.Packetsim.encapsulated > 0) ];
    }
  in
  let layer () =
    [ ("packetsim.pkts_per_s", Trace.rate (float_of_int (delivered ())) "testbed.run");
      ("packetsim.alloc_words_per_pkt",
       Trace.words "testbed.run" /. float_of_int (max 1 (delivered ()))) ]
    @ eventq_layers ()
  in
  { timed; outcome; layer }

(* --- pkt-as ------------------------------------------------------------ *)

(* Validation's generator parameters and endpoint sampling
   ({!Mifo_exp.Validation.run}): 24 host ASes, 8 sources and 16 sinks. *)
let validation_params ases =
  { Generator.default_params with
    Generator.ases; tier1 = 4; content_providers = 2; content_peer_span = (3, 8) }

let packet_fingerprint (net : As_network.t) =
  let sim = net.As_network.sim in
  ( Packetsim.events_processed sim,
    Array.map
      (fun (r : Packetsim.flow_result) ->
        match r.Packetsim.finish with Some f -> Int64.bits_of_float f | None -> -1L)
      (Packetsim.flow_results sim),
    Packetsim.counters sim )

let pkt_as size ~seed =
  let ases, transfers, bytes =
    match size with Full -> (400, 96, 1_500_000) | Smoke -> (60, 8, 200_000)
  in
  let g = (generate (validation_params ases)).Generator.graph in
  let table = Routing_table.create g in
  (* The host ASes are part of the network, so they are fixed with the
     topology; the seed draws the transfers between them. *)
  let pool =
    Prng.sample_without_replacement (Prng.create ~seed:(topology_seed + 1) ()) 24 ases
  in
  let rng = Prng.create ~seed:(seed + 1) () in
  let specs =
    Array.init transfers (fun i ->
        let src = pool.(Prng.int rng 8) in
        let dst = pool.(8 + Prng.int rng 16) in
        (src, dst, 0.002 *. float_of_int i))
  in
  let hosts = Array.to_list pool in
  let dests = List.sort_uniq Int.compare hosts in
  precompute table (Array.of_list dests);
  release_pool ();
  let heap = heap_mb () in
  let build ?(config = Packetsim.default_config) deployment =
    let net =
      span "as_network.build" (fun () ->
          As_network.build ~config table ~deployment ~host_rate:20e9 ~hosts ())
    in
    span "as_network.add_transfer" (fun () ->
        Array.iter
          (fun (src_as, dst_as, start) ->
            ignore (As_network.add_transfer net ~src_as ~dst_as ~bytes ~start))
          specs);
    net
  in
  let legs = [ ("bgp", Deployment.none ~n:ases); ("mifo", Deployment.full ~n:ases) ] in
  let nets = ref [] in
  let timed () =
    nets :=
      List.map
        (fun (label, deployment) ->
          let net = build deployment in
          span ("packetsim." ^ label) (fun () -> As_network.run net);
          (label, net))
        legs
  in
  let counters label = Packetsim.counters (List.assoc label !nets).As_network.sim in
  let sum f = List.fold_left (fun acc (_, net) -> acc + f net.As_network.sim) 0 !nets in
  let delivered () = sum (fun sim -> (Packetsim.counters sim).Packetsim.delivered_packets) in
  let events () = sum Packetsim.events_processed in
  let outcome () =
    {
      work = float_of_int (delivered ());
      counts =
        [ ("events", events ()); ("delivered", delivered ());
          ("deflected", (counters "mifo").Packetsim.deflected);
          ("dropped_queue", sum (fun sim -> (Packetsim.counters sim).Packetsim.dropped_queue)) ];
      digest =
        digest_of (fun b ->
            List.iter
              (fun (_, net) ->
                let events, finishes, c = packet_fingerprint net in
                add_int b events;
                Array.iter (Buffer.add_int64_le b) finishes;
                add_counters b c)
              !nets);
      checks =
        [ ("no ttl, valley or no-route drops",
           no_bad_drops (counters "bgp") && no_bad_drops (counters "mifo"));
          ("every transfer completes",
           List.for_all
             (fun (_, net) ->
               Array.for_all
                 (fun (r : Packetsim.flow_result) -> r.Packetsim.finish <> None)
                 (Packetsim.flow_results net.As_network.sim))
             !nets);
          ("no tunnels in an AS-level network",
           (counters "bgp").Packetsim.encapsulated = 0
           && (counters "mifo").Packetsim.encapsulated = 0);
          ("BGP never deflects", (counters "bgp").Packetsim.deflected = 0) ];
    }
  in
  (* Sharding probe on the MIFO leg at two domains, once on the bench pool
     and once on a one-job pool, against the serial run just timed.  The
     sharded result must not depend on the pool size, so [identical]
     compares the two sharded runs; it is not compared with the serial
     run, which As_network's uniform link delays let differ on exact
     timestamp ties. *)
  let shard_probe () =
    let serial = Trace.wall "packetsim.mifo" in
    let jobs = Parallel.default_jobs () in
    let sharded pool_jobs =
      Parallel.set_default_jobs pool_jobs;
      let net =
        build
          ~config:{ Packetsim.default_config with Packetsim.domains = 2 }
          (Deployment.full ~n:ases)
      in
      let wall = span "shard.run" (fun () ->
          let t0 = Trace.now () in
          As_network.run net;
          Trace.now () -. t0)
      in
      (wall, net)
    in
    let wall_bench, net = sharded jobs in
    let wall_one, net_one = sharded 1 in
    let st = Packetsim.shard_stats net.As_network.sim in
    [ ("packetsim.shard.wall_ratio", wall_bench /. serial);
      ("packetsim.shard.sync_overhead", (wall_one -. serial) /. serial);
      ("packetsim.shard.events_per_window",
       float_of_int (Packetsim.events_processed net.As_network.sim)
       /. float_of_int (max 1 st.Packetsim.windows));
      ("packetsim.shard.identical",
       if packet_fingerprint net = packet_fingerprint net_one then 1. else 0.) ]
  in
  let layer () =
    let measured =
      setup_layers ~ases ~dests:(List.length dests) ~heap
      @ [ ("as_network.routers_per_s", Trace.rate (float_of_int (2 * ases)) "as_network.build");
          ("packetsim.events_per_s", Trace.rate (float_of_int (events ())) "packetsim.");
          ("packetsim.pkts_per_s", Trace.rate (float_of_int (delivered ())) "packetsim.");
          ("packetsim.alloc_words_per_pkt",
           Trace.words "packetsim." /. float_of_int (max 1 (delivered ()))) ]
      @ eventq_layers ()
    in
    measured @ shard_probe ()
  in
  { timed; outcome; layer }

(* --- check-44k --------------------------------------------------------- *)

(* `mifo_sim check` at paper scale: the full property suite over sampled
   destinations, then the network build and its router-level audit.
   Destinations and hosts come from the CLI's sampler. *)
let check_44k size ~seed =
  let params, ndests, nhosts, fail_links =
    match size with
    | Full -> (Generator.paper_scale_params, 16, 8, 64)
    | Smoke -> ({ Generator.paper_scale_params with Generator.ases = 1_500 }, 8, 6, 8)
  in
  let g = (generate params).Generator.graph in
  let n = As_graph.n g in
  let table = Routing_table.create g in
  let rng = Prng.create ~seed:(seed + 17) () in
  let sample k = Array.to_list (Prng.sample_without_replacement rng k n) in
  let as_dests = sample ndests in
  let hosts = sample nhosts in
  let dests = List.sort_uniq Int.compare (as_dests @ hosts) in
  precompute table (Array.of_list dests);
  let heap = heap_mb () in
  let verify props =
    Verifier.verify_props ~props ~fail_links ~seed g ~table ~dests:as_dests
  in
  let as_report = ref Report.empty and net_report = ref Report.empty in
  let timed () =
    as_report := span "analysis.verify_props" (fun () -> verify Props.all);
    let net =
      span "as_network.build" (fun () ->
          As_network.build table ~deployment:(Deployment.full ~n) ~hosts ())
    in
    let routing = List.map (fun d -> (d, Routing_table.get table d)) hosts in
    net_report :=
      span "analysis.verify_network" (fun () ->
          Verifier.verify_network net.As_network.sim ~routing)
  in
  let states (s : Report.stats) =
    s.Report.states_explored + s.Report.delivery_states + s.Report.stretch_states
  in
  let outcome () =
    let s = !as_report.Report.stats in
    {
      work = float_of_int (states s);
      counts =
        [ ("states", states s); ("failed_links", s.Report.failed_links);
          ("paths_checked", s.Report.paths_checked);
          ("fib_entries_checked", !net_report.Report.stats.Report.fib_entries_checked) ];
      digest =
        digest_of (fun b ->
            Buffer.add_string b (Report.to_json_string !as_report);
            Buffer.add_string b (Report.to_json_string !net_report));
      checks =
        [ ("AS-level property suite clean", Report.ok !as_report);
          ("router-level audit clean", Report.ok !net_report) ];
    }
  in
  (* Each property alone on the warm table. *)
  let property_probe () =
    List.map
      (fun (prop, name, work) ->
        let label = "analysis.probe." ^ name in
        let r = span label (fun () -> verify [ prop ]) in
        (Printf.sprintf "analysis.%s_per_s" name,
         Trace.rate (float_of_int (work r.Report.stats)) label))
      [ (Props.Loops, "loops_states", fun s -> s.Report.states_explored);
        (Props.Delivery, "delivery_states", fun s -> s.Report.delivery_states);
        (Props.Stretch, "stretch_states", fun s -> s.Report.stretch_states);
        (Props.Resilience, "resilience_links", fun s -> s.Report.failed_links) ]
  in
  let layer () =
    let measured =
      setup_layers ~ases:n ~dests:(List.length dests) ~heap
      @ [ ("analysis.states_per_s",
           Trace.rate (float_of_int (states !as_report.Report.stats)) "analysis.verify_props");
          ("as_network.routers_per_s", Trace.rate (float_of_int n) "as_network.build");
          ("analysis.fib_entries_per_s",
           Trace.rate
             (float_of_int !net_report.Report.stats.Report.fib_entries_checked)
             "analysis.verify_network") ]
    in
    measured @ property_probe ()
  in
  { timed; outcome; layer }

let all =
  [
    { name = "flow-fig5"; setup = flow_fig5 };
    { name = "pkt-testbed"; setup = pkt_testbed };
    { name = "pkt-as"; setup = pkt_as };
    { name = "check-44k"; setup = check_44k };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
