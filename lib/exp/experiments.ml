module As_graph = Mifo_topology.As_graph
module Generator = Mifo_topology.Generator
module Topo_stats = Mifo_topology.Topo_stats
module Routing_table = Mifo_bgp.Routing_table
module Deployment = Mifo_core.Deployment
module Flowsim = Mifo_netsim.Flowsim
module Traffic = Mifo_traffic.Traffic
module Miro = Mifo_miro.Miro
module Automaton = Mifo_analysis.Automaton
module Testbed = Mifo_testbed.Testbed
module Table = Mifo_util.Table
module Dist = Mifo_util.Dist
module Parallel = Mifo_util.Parallel
module Obs = Mifo_util.Obs

(* Warm the routing cache for every destination a flow set touches: the
   per-destination computations are independent, so they fan out across
   the domain pool while the simulation itself stays serial (and its
   output therefore byte-identical to a serial run). *)
let precompute_flow_dests table (flows : Flowsim.flow_spec array) =
  let seen = Hashtbl.create 97 in
  Array.iter (fun (s : Flowsim.flow_spec) -> Hashtbl.replace seen s.Flowsim.dst ()) flows;
  let dests = Hashtbl.fold (fun d () acc -> d :: acc) seen [] in
  Routing_table.precompute table (Array.of_list (List.sort compare dests))

module Table1 = struct
  type t = Topo_stats.t

  let run ctx = Obs.time_phase "table1" (fun () -> Topo_stats.compute (Context.graph ctx))

  let render stats =
    let header = [ "Date"; "# of Nodes"; "# of Links"; "P/C Links"; "Peering Links" ] in
    "== Table I: Attributes of Data-set ==\n"
    ^ Table.render ~header ~rows:(Topo_stats.table1_rows stats)
    ^ Printf.sprintf "(paper, 11/2014 trace: 44,340 nodes, 109,360 links, 75,046 P/C, 34,314 peering)\n"
end

let series_csv ~x_label ~columns rows = Mifo_util.Csv.of_series ~x_label ~columns ~rows

module Fig7 = struct
  type series = { label : string; percentile_counts : (float * float) array }
  type t = { series : series list; pairs : int }

  (* Path counts from every source toward a sample of destinations, then
     the count at each percentile of (sorted descending) node pairs. *)
  let percentiles = Array.init 11 (fun i -> 10. *. float_of_int i)

  let summarize counts =
    let sorted = Array.copy counts in
    Array.sort (fun a b -> compare b a) sorted;
    let n = Array.length sorted in
    Array.map
      (fun p ->
        let i = Stdlib.min (n - 1) (int_of_float (p /. 100. *. float_of_int (n - 1))) in
        (p, sorted.(i)))
      percentiles

  let run ctx =
    Obs.time_phase "fig7" @@ fun () ->
    let g = Context.graph ctx in
    let n = As_graph.n g in
    let rng = Context.rng ctx ~purpose:7 in
    let k = Stdlib.min ctx.Context.scale.dest_samples n in
    let dests = Mifo_util.Prng.sample_without_replacement rng k n in
    let dep50 = Context.deployment ctx ~ratio:0.5 in
    let dep100 = Context.deployment ctx ~ratio:1.0 in
    Routing_table.precompute ctx.Context.table dests;
    (* Both counters fan out one task per destination, each returning
       the counts from every source but the destination, and then
       flatten the slots in destination order, so the sample stream is
       byte-identical to a serial loop. *)
    let pair_counts count_from =
      Parallel.parallel_map (Parallel.get_default ())
        (fun d ->
          let count = count_from (Routing_table.get ctx.Context.table d) in
          Array.init (n - 1) (fun j -> count (if j < d then j else j + 1)))
        dests
      |> Array.to_list |> Array.concat
    in
    let mifo_counts deployment =
      pair_counts (fun rt -> Array.get (Automaton.path_counts (Automaton.create ~deployment g rt)))
    in
    let miro_counts deployment =
      let config = { Miro.cap = ctx.Context.scale.miro_cap } in
      pair_counts (fun rt src ->
          float_of_int (Miro.available_path_count ~config rt ~deployment ~src))
    in
    let series =
      [
        { label = "50% Deployed MIRO"; percentile_counts = summarize (miro_counts dep50) };
        { label = "100% Deployed MIRO"; percentile_counts = summarize (miro_counts dep100) };
        { label = "50% Deployed MIFO"; percentile_counts = summarize (mifo_counts dep50) };
        { label = "100% Deployed MIFO"; percentile_counts = summarize (mifo_counts dep100) };
      ]
    in
    { series; pairs = Array.length dests * (n - 1) }

  let render t =
    let columns = List.map (fun s -> s.label) t.series in
    let rows =
      Array.to_list
        (Array.mapi
           (fun i (p, _) ->
             (p, List.map (fun s -> snd s.percentile_counts.(i)) t.series))
           (List.hd t.series).percentile_counts)
    in
    Table.render_series
      ~title:(Printf.sprintf "Fig. 7: Available Paths Comparison (%d AS pairs)" t.pairs)
      ~x_label:"% of node pairs" ~columns ~rows

  let to_csv t =
    let columns = List.map (fun s -> s.label) t.series in
    let rows =
      Array.to_list
        (Array.mapi
           (fun i (p, _) -> (p, List.map (fun s -> snd s.percentile_counts.(i)) t.series))
           (List.hd t.series).percentile_counts)
    in
    series_csv ~x_label:"percent_of_node_pairs" ~columns rows

  let median_of t label =
    let s = List.find (fun s -> s.label = label) t.series in
    let _, v = s.percentile_counts.(Array.length s.percentile_counts / 2) in
    v
end

module Throughput = struct
  type curve = {
    label : string;
    cdf : (float * float) array;
    at_least_500m : float;
    median_mbps : float;
    offload : float;
    mean_completion : float;
  }

  let xs = Dist.evenly_spaced ~lo:0. ~hi:1000. ~n:21

  let curve_of_result label (r : Flowsim.result) =
    let tputs_mbps = Array.map (fun t -> t /. 1e6) (Flowsim.throughputs r) in
    let cdf = Dist.cdf_of_samples tputs_mbps in
    let completion = Mifo_util.Stats.create () in
    Array.iter
      (fun (s : Flowsim.flow_stats) ->
        if s.completed then
          Mifo_util.Stats.add completion (s.finish -. s.spec.Flowsim.start))
      r.Flowsim.flows;
    {
      label;
      cdf = Dist.cdf_series cdf ~xs;
      at_least_500m = Dist.fraction_at_least cdf 500.;
      median_mbps = (if Dist.cdf_size cdf = 0 then 0. else Dist.percentile cdf 50.);
      offload = r.Flowsim.offload_fraction;
      mean_completion = Mifo_util.Stats.mean completion;
    }

  let protocols ctx ~ratio =
    let deployment = Context.deployment ctx ~ratio in
    [
      ("BGP", Flowsim.Bgp);
      ( Printf.sprintf "%.0f%% Deployed MIRO" (100. *. ratio),
        Flowsim.Miro { deployment; cap = ctx.Context.scale.miro_cap } );
      (Printf.sprintf "%.0f%% Deployed MIFO" (100. *. ratio), Flowsim.Mifo deployment);
    ]

  let run_traffic ctx flows ~ratio =
    precompute_flow_dests ctx.Context.table flows;
    List.map
      (fun (label, proto) ->
        curve_of_result label
          (Flowsim.run ~params:ctx.Context.scale.sim ctx.Context.table proto flows))
      (protocols ctx ~ratio)

  let fig5 ?(ratios = [ 1.0; 0.5; 0.1 ]) ctx =
    Obs.time_phase "fig5" @@ fun () ->
    let flows =
      Traffic.uniform
        (Context.rng ctx ~purpose:5)
        ~n_ases:(Context.n_ases ctx) ~count:ctx.Context.scale.flows
        ~rate:ctx.Context.scale.arrival_rate ()
    in
    List.map (fun ratio -> (ratio, run_traffic ctx flows ~ratio)) ratios

  let fig6 ?(alphas = [ 0.8; 1.0; 1.2 ]) ctx =
    Obs.time_phase "fig6" @@ fun () ->
    let g = Context.graph ctx in
    let providers = Traffic.content_provider_ranking g in
    List.map
      (fun alpha ->
        let flows =
          Traffic.power_law
            (Context.rng ctx ~purpose:6)
            g ~alpha ~providers ~count:ctx.Context.scale.flows
            ~rate:ctx.Context.scale.arrival_rate ()
        in
        (alpha, run_traffic ctx flows ~ratio:0.5))
      alphas

  let render_panel title curves =
    let columns = List.map (fun c -> c.label) curves in
    let rows =
      Array.to_list
        (Array.mapi
           (fun i (x, _) -> (x, List.map (fun c -> snd c.cdf.(i)) curves))
           (List.hd curves).cdf)
    in
    Table.render_series ~title ~x_label:"Throughput (Mbps) | CDF (%)" ~columns ~rows
    ^ String.concat ""
        (List.map
           (fun c ->
             Printf.sprintf "  %-22s >=500 Mbps: %s   median: %s Mbps   offload: %s\n"
               c.label
               (Table.fmt_percent c.at_least_500m)
               (Table.fmt_float c.median_mbps)
               (Table.fmt_percent c.offload))
           curves)

  let panel_csv curves =
    let columns = List.map (fun c -> c.label) curves in
    let rows =
      Array.to_list
        (Array.mapi
           (fun i (x, _) -> (x, List.map (fun c -> snd c.cdf.(i)) curves))
           (List.hd curves).cdf)
    in
    series_csv ~x_label:"throughput_mbps" ~columns rows

  let fig5_to_csv panels =
    List.map
      (fun (ratio, curves) ->
        (Printf.sprintf "fig5_deploy%.0f.csv" (100. *. ratio), panel_csv curves))
      panels

  let fig6_to_csv panels =
    List.map
      (fun (alpha, curves) ->
        (Printf.sprintf "fig6_alpha%.1f.csv" alpha, panel_csv curves))
      panels

  let render_fig5 panels =
    String.concat "\n"
      (List.map
         (fun (ratio, curves) ->
           render_panel
             (Printf.sprintf "Fig. 5: Throughput CDF, uniform traffic, %.0f%% deployment"
                (100. *. ratio))
             curves)
         panels)

  let render_fig6 panels =
    String.concat "\n"
      (List.map
         (fun (alpha, curves) ->
           render_panel
             (Printf.sprintf
                "Fig. 6: Throughput CDF, power-law traffic (alpha = %.1f), 50%% deployment"
                alpha)
             curves)
         panels)
end

module Fig8 = struct
  type t = (float * float) array

  let run ?(ratios = [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]) ctx =
    Obs.time_phase "fig8" @@ fun () ->
    let flows =
      Traffic.uniform
        (Context.rng ctx ~purpose:8)
        ~n_ases:(Context.n_ases ctx) ~count:ctx.Context.scale.flows
        ~rate:ctx.Context.scale.arrival_rate ()
    in
    precompute_flow_dests ctx.Context.table flows;
    Array.of_list
      (List.map
         (fun ratio ->
           let deployment = Context.deployment ctx ~ratio in
           let r =
             Flowsim.run ~params:ctx.Context.scale.sim ctx.Context.table
               (Flowsim.Mifo deployment) flows
           in
           (ratio, r.Flowsim.offload_fraction))
         ratios)

  let to_csv t =
    series_csv ~x_label:"deployment_ratio" ~columns:[ "offloaded_fraction" ]
      (Array.to_list (Array.map (fun (r, f) -> (r, [ f ])) t))

  let render t =
    Table.render_series ~title:"Fig. 8: Traffic Offload on Alternative Paths"
      ~x_label:"Deployment ratio" ~columns:[ "Traffic on alternative paths (%)" ]
      ~rows:(Array.to_list (Array.map (fun (r, f) -> (r, [ 100. *. f ])) t))
end

module Fig9 = struct
  type t = { fractions : float array; switched_flows : int; total_flows : int }

  let max_bucket = 5

  let run ctx =
    Obs.time_phase "fig9" @@ fun () ->
    let flows =
      Traffic.uniform
        (Context.rng ctx ~purpose:9)
        ~n_ases:(Context.n_ases ctx) ~count:ctx.Context.scale.flows
        ~rate:ctx.Context.scale.arrival_rate ()
    in
    precompute_flow_dests ctx.Context.table flows;
    let deployment = Context.deployment ctx ~ratio:1.0 in
    let r =
      Flowsim.run ~params:ctx.Context.scale.sim ctx.Context.table
        (Flowsim.Mifo deployment) flows
    in
    let switched =
      Array.of_list
        (List.filter_map
           (fun (s : Flowsim.flow_stats) -> if s.switches > 0 then Some s.switches else None)
           (Array.to_list r.Flowsim.flows))
    in
    let counts = Dist.counts_of_ints ~max_value:max_bucket switched in
    let total_switched = Stdlib.max 1 (Array.length switched) in
    (* bucket 0 is empty by construction; report 1 .. 5+ *)
    let fractions =
      Array.init max_bucket (fun i ->
          float_of_int counts.(i + 1) /. float_of_int total_switched)
    in
    {
      fractions;
      switched_flows = Array.length switched;
      total_flows = Array.length r.Flowsim.flows;
    }

  let to_csv t =
    Mifo_util.Csv.of_table ~header:[ "switches"; "fraction_of_switched_flows" ]
      ~rows:
        (Array.to_list
           (Array.mapi
              (fun i f ->
                [ (if i + 1 = max_bucket then "5+" else string_of_int (i + 1));
                  Printf.sprintf "%.6g" f ])
              t.fractions))

  let render t =
    let rows =
      Array.to_list
        (Array.mapi
           (fun i f ->
             let label = if i + 1 = max_bucket then "5+" else string_of_int (i + 1) in
             [ label; Table.fmt_percent f ])
           t.fractions)
    in
    Printf.sprintf
      "== Fig. 9: Path Switch Distribution (%d of %d flows switched) ==\n%s"
      t.switched_flows t.total_flows
      (Table.render ~header:[ "# of switches"; "% of switched flows" ] ~rows)
end

module Fig12 = struct
  type t = { bgp : Testbed.result; mifo : Testbed.result; improvement : float }

  let run ?(config = Testbed.default_config) () =
    Obs.time_phase "fig12" @@ fun () ->
    let bgp = Testbed.run ~config Testbed.Bgp_routing in
    let mifo = Testbed.run ~config Testbed.Mifo_routing in
    let improvement =
      if bgp.Testbed.mean_aggregate <= 0. then 0.
      else (mifo.Testbed.mean_aggregate /. bgp.Testbed.mean_aggregate) -. 1.
    in
    { bgp; mifo; improvement }

  let fct_cdf fct =
    let cdf = Dist.cdf_of_samples fct in
    let hi =
      Array.fold_left Stdlib.max 0.1 fct |> fun m -> Float.max 0.2 (m *. 1.05)
    in
    Dist.cdf_series cdf ~xs:(Dist.evenly_spaced ~lo:0. ~hi ~n:13)

  let to_csv t =
    let series label (r : Testbed.result) =
      series_csv ~x_label:"time_s" ~columns:[ label ^ "_gbps" ]
        (Array.to_list
           (Array.map (fun (time, v) -> (time, [ v /. 1e9 ])) r.Testbed.aggregate_series))
    in
    let fct label (r : Testbed.result) =
      Mifo_util.Csv.of_table ~header:[ label ^ "_fct_s" ]
        ~rows:
          (List.map
             (fun f -> [ Printf.sprintf "%.6g" f ])
             (List.sort compare (Array.to_list r.Testbed.fct)))
    in
    [
      ("fig12a_bgp.csv", series "bgp" t.bgp);
      ("fig12a_mifo.csv", series "mifo" t.mifo);
      ("fig12b_bgp.csv", fct "bgp" t.bgp);
      ("fig12b_mifo.csv", fct "mifo" t.mifo);
    ]

  let render t =
    let series_rows =
      let take r =
        Array.to_list r.Testbed.aggregate_series
        |> List.filter (fun (time, _) -> time <= r.Testbed.makespan)
      in
      let bgp = take t.bgp and mifo = take t.mifo in
      let len = Stdlib.max (List.length bgp) (List.length mifo) in
      List.init len (fun i ->
          let get l =
            match List.nth_opt l i with Some (_, v) -> v /. 1e9 | None -> 0.
          in
          (float_of_int i *. 0.1, [ get bgp; get mifo ]))
    in
    let a =
      Table.render_series ~title:"Fig. 12(a): Aggregate Throughput (Gbps)"
        ~x_label:"Time (s)" ~columns:[ "BGP"; "MIFO" ] ~rows:series_rows
    in
    let fct_table label r =
      Table.render_series
        ~title:(Printf.sprintf "Fig. 12(b): Flow Transfer Time CDF - %s" label)
        ~x_label:"Transfer time (s)" ~columns:[ "CDF (%)" ]
        ~rows:(Array.to_list (Array.map (fun (x, y) -> (x, [ y ])) (fct_cdf r.Testbed.fct)))
    in
    Printf.sprintf
      "%s\n%s\n%s\nBGP aggregate: %.2f Gbps  MIFO aggregate: %.2f Gbps  improvement: %+.0f%%\nBGP makespan: %.1fs  MIFO makespan: %.1fs\n"
      a
      (fct_table "BGP" t.bgp)
      (fct_table "MIFO" t.mifo)
      (t.bgp.Testbed.mean_aggregate /. 1e9)
      (t.mifo.Testbed.mean_aggregate /. 1e9)
      (100. *. t.improvement) t.bgp.Testbed.makespan t.mifo.Testbed.makespan
end
