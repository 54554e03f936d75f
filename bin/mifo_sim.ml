(* mifo-sim: command-line driver for the MIFO reproduction.

   Every experiment of the paper is exposed as a subcommand with the
   scale knobs as flags, so any figure can be regenerated at any size:

     mifo-sim table1 --ases 44340
     mifo-sim fig5 --flows 10000 --rate 4000
     mifo-sim fig12 --megabytes 100 --flows-per-source 30
     mifo-sim topo --out topo.as-rel
     mifo-sim paths --src 100 --dst 7 *)

open Cmdliner
module Exp = Mifo_exp.Experiments
module Ablations = Mifo_exp.Ablations
module Context = Mifo_exp.Context
module Generator = Mifo_topology.Generator
module Obs = Mifo_util.Obs

(* ---- common options ---------------------------------------------------- *)

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let jobs_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs" ]
        ~env:(Cmd.Env.info "MIFO_JOBS" ~doc:"Same as $(b,--jobs).")
        ~docv:"N"
        ~doc:
          "Size of the shared worker-domain pool used by parallel phases (route \
           computation, experiment fan-outs, sharded simulation windows).  \
           Default: all cores.")

(* A flag value the command cannot run with is a usage error: name the
   flag and exit 2, before any work starts. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "mifo-sim: %s\n" msg;
      exit 2)
    fmt

let apply_jobs = function
  | None -> ()
  | Some n when n >= 1 -> Mifo_util.Parallel.set_default_jobs n
  | Some n -> usage_error "--jobs must be >= 1 (got %d)" n

let check_domains n =
  if n < 1 then usage_error "--domains (or MIFO_SIM_DOMAINS) must be >= 1 (got %d)" n

let domains_t =
  Arg.(
    value & opt int 1
    & info [ "domains" ]
        ~env:
          (Cmd.Env.info "MIFO_SIM_DOMAINS"
             ~doc:"Same as $(b,--domains); the flag wins when both are given.")
        ~docv:"N"
        ~doc:
          "Shard the packet-level simulator across $(docv) per-domain event loops \
           synchronized by conservative time windows.  $(docv)=1 (the default) is \
           the serial oracle; every other value is bit-identical to it.")

let ases_t =
  Arg.(
    value
    & opt int Generator.default_params.Generator.ases
    & info [ "ases" ] ~docv:"N" ~doc:"Number of ASes in the generated topology.")

let topo_file_t =
  Arg.(
    value
    & opt (some file) None
    & info [ "topo" ] ~docv:"FILE"
        ~doc:"Load the AS topology from a CAIDA as-rel file instead of generating one.")

let flows_t =
  Arg.(
    value
    & opt int Context.default_scale.Context.flows
    & info [ "flows" ] ~docv:"N" ~doc:"Number of flows in throughput experiments.")

let rate_t =
  Arg.(
    value
    & opt float Context.default_scale.Context.arrival_rate
    & info [ "rate" ] ~docv:"R" ~doc:"Poisson flow arrival rate (flows/second).")

let dests_t =
  Arg.(
    value
    & opt int Context.default_scale.Context.dest_samples
    & info [ "dests" ] ~docv:"N" ~doc:"Destinations sampled for Fig. 7 path counts.")

(* The generator rejects sizes it cannot realize with the default
   parameters; from the command line that is a bad --ases. *)
let generate_topology ~seed ases =
  let params = { Generator.default_params with Generator.ases } in
  match Generator.generate ~params ~seed () with
  | topo -> topo
  | exception Invalid_argument msg -> usage_error "--ases %d: %s" ases msg

let make_context seed ases topo_file flows rate dests =
  let scale =
    {
      Context.default_scale with
      Context.flows;
      arrival_rate = rate;
      dest_samples = dests;
    }
  in
  match topo_file with
  | Some path ->
    let loaded = Mifo_topology.As_rel_io.load path in
    let topo =
      {
        Generator.graph = loaded.Mifo_topology.As_rel_io.graph;
        roles =
          Array.make (Mifo_topology.As_graph.n loaded.Mifo_topology.As_rel_io.graph)
            Generator.Stub;
        content = [||];
      }
    in
    Context.of_graph ~scale ~seed topo
  | None -> Context.of_graph ~scale ~seed (generate_topology ~seed ases)

(* Lazy, so a subcommand rejects its own bad flags before the topology
   and its routes are built. *)
let context_t =
  Term.(
    const (fun seed ases topo_file flows rate dests ->
        lazy (make_context seed ases topo_file flows rate dests))
    $ seed_t $ ases_t $ topo_file_t $ flows_t $ rate_t $ dests_t)

let csv_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"DIR"
        ~doc:"Also dump the figure's raw data as CSV files into $(docv).")

let write_csv dir files =
  match dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    List.iter
      (fun (name, contents) ->
        let path = Filename.concat dir name in
        Mifo_util.Csv.write_file path contents;
        Printf.printf "wrote %s
" path)
      files

let run_and_print render = print_string render

(* ---- observability ----------------------------------------------------- *)

let obs_t =
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write a JSON snapshot of all counters, gauges and histograms to $(docv) \
             when the command finishes.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record forwarding/daemon events in a bounded ring and write them as JSONL \
             to $(docv) when the command finishes.")
  in
  Term.(const (fun m t -> (m, t)) $ metrics $ trace)

(* Runs [f] with tracing enabled if requested, then flushes the metrics
   snapshot and trace to the requested files. *)
let with_obs (metrics, trace) f =
  (match trace with Some _ -> Obs.set_trace_capacity 65536 | None -> ());
  let finally () =
    (match metrics with
    | Some path ->
      Obs.write_metrics path;
      Printf.printf "wrote %s\n" path
    | None -> ());
    match trace with
    | Some path ->
      Obs.write_trace path;
      Printf.printf "wrote %s\n" path
    | None -> ()
  in
  Fun.protect ~finally f

(* ---- subcommands ------------------------------------------------------- *)

let cmd_of name ~doc f =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (fun jobs obs ctx ->
          apply_jobs jobs;
          let ctx = Lazy.force ctx in
          with_obs obs (fun () -> run_and_print (f ctx)))
      $ jobs_t $ obs_t $ context_t)

(* a figure command with CSV export: [f ctx] returns (rendered, csv files) *)
let fig_cmd name ~doc f =
  let run jobs obs ctx csv =
    apply_jobs jobs;
    let ctx = Lazy.force ctx in
    with_obs obs @@ fun () ->
    let rendered, files = f ctx in
    print_string rendered;
    write_csv csv files
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ jobs_t $ obs_t $ context_t $ csv_t)

let table1_cmd =
  cmd_of "table1" ~doc:"Regenerate Table I (topology attributes)." (fun ctx ->
      Exp.Table1.render (Exp.Table1.run ctx))

let fig5_cmd =
  fig_cmd "fig5" ~doc:"Regenerate Fig. 5 (throughput CDFs, uniform traffic)." (fun ctx ->
      let panels = Exp.Throughput.fig5 ctx in
      (Exp.Throughput.render_fig5 panels, Exp.Throughput.fig5_to_csv panels))

let fig6_cmd =
  fig_cmd "fig6" ~doc:"Regenerate Fig. 6 (throughput CDFs, power-law traffic)."
    (fun ctx ->
      let panels = Exp.Throughput.fig6 ctx in
      (Exp.Throughput.render_fig6 panels, Exp.Throughput.fig6_to_csv panels))

let fig7_cmd =
  fig_cmd "fig7" ~doc:"Regenerate Fig. 7 (available paths per AS pair)." (fun ctx ->
      let t = Exp.Fig7.run ctx in
      (Exp.Fig7.render t, [ ("fig7.csv", Exp.Fig7.to_csv t) ]))

let fig8_cmd =
  fig_cmd "fig8" ~doc:"Regenerate Fig. 8 (traffic offload vs deployment)." (fun ctx ->
      let t = Exp.Fig8.run ctx in
      (Exp.Fig8.render t, [ ("fig8.csv", Exp.Fig8.to_csv t) ]))

let fig9_cmd =
  fig_cmd "fig9" ~doc:"Regenerate Fig. 9 (path-switch distribution)." (fun ctx ->
      let t = Exp.Fig9.run ctx in
      (Exp.Fig9.render t, [ ("fig9.csv", Exp.Fig9.to_csv t) ]))

let fig12_cmd =
  let mb_t =
    Arg.(value & opt int 10 & info [ "megabytes" ] ~docv:"MB" ~doc:"Flow size (paper: 100).")
  in
  let fps_t =
    Arg.(
      value & opt int 30
      & info [ "flows-per-source" ] ~docv:"N" ~doc:"Back-to-back flows per source (paper: 30).")
  in
  let run jobs obs mb fps domains csv =
    apply_jobs jobs;
    check_domains domains;
    let t0 = Mifo_testbed.Testbed.default_config in
    with_obs obs @@ fun () ->
    let config =
      {
        t0 with
        Mifo_testbed.Testbed.flow_bytes = mb * 1_000_000;
        flows_per_source = fps;
        sim = { t0.Mifo_testbed.Testbed.sim with Mifo_netsim.Packetsim.domains };
      }
    in
    let t = Exp.Fig12.run ~config () in
    print_string (Exp.Fig12.render t);
    write_csv csv (Exp.Fig12.to_csv t)
  in
  Cmd.v
    (Cmd.info "fig12" ~doc:"Regenerate Fig. 12 (testbed: aggregate throughput and FCT).")
    Term.(const run $ jobs_t $ obs_t $ mb_t $ fps_t $ domains_t $ csv_t)

let ablations_cmd =
  cmd_of "ablations" ~doc:"Run the design-choice ablation benches." (fun ctx ->
      String.concat "\n"
        [
          Ablations.Tag_check.render ~label:"Fig. 2(a) gadget" (Ablations.Tag_check.run_gadget ());
          Ablations.Tag_check.render ~label:"generated topology" (Ablations.Tag_check.run ctx);
          Ablations.Selection.render (Ablations.Selection.run ctx);
          Ablations.Overhead.render (Ablations.Overhead.run ctx);
          Ablations.Convergence.render (Ablations.Convergence.run ctx);
          Ablations.Failure.render (Ablations.Failure.run ctx);
          Ablations.Threshold.render (Ablations.Threshold.run ctx);
        ])

let validate_cmd =
  let run jobs obs seed ases flows domains =
    apply_jobs jobs;
    check_domains domains;
    if ases < Mifo_exp.Validation.min_ases then
      usage_error "--ases must be >= %d for validate (got %d)" Mifo_exp.Validation.min_ases
        ases;
    if flows < 1 then usage_error "--flows must be >= 1 (got %d)" flows;
    with_obs obs @@ fun () ->
    let v = Mifo_exp.Validation.run ~ases ~flows ~domains ~seed () in
    print_string (Mifo_exp.Validation.render v);
    if List.exists (fun (_, ok) -> not ok) v.Mifo_exp.Validation.invariants then exit 1
  in
  let v_ases = Arg.(value & opt int 150 & info [ "ases" ] ~docv:"N" ~doc:"Topology size.") in
  let v_flows = Arg.(value & opt int 24 & info [ "flows" ] ~docv:"N" ~doc:"Flows.") in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Cross-validate the flow-level and packet-level simulators on one scenario. \
          Exits non-zero if a forwarding invariant is violated.")
    Term.(const run $ jobs_t $ obs_t $ seed_t $ v_ases $ v_flows $ domains_t)

let check_cmd =
  let gadget_t =
    Arg.(
      value & flag
      & info [ "gadget" ]
          ~doc:"Check the Fig. 2(a) gadget instead of a generated topology.")
  in
  let k2_gadget_t =
    Arg.(
      value & flag
      & info [ "k2-gadget" ]
          ~doc:
            "Check the k-alternative gadget: loop-free at $(b,--k 1), loops at \
             $(b,--k 2) when the Tag-Check is ablated.")
  in
  let bh_gadget_t =
    Arg.(
      value & flag
      & info [ "bh-gadget" ]
          ~doc:
            "Check the black-hole gadget: all properties verify on the healthy \
             topology, but $(b,--fail-link 2:0) strands AS 2 — the delivery check \
             must fail with a counterexample that replays stranded.")
  in
  let stretch_gadget_t =
    Arg.(
      value & flag
      & info [ "stretch-gadget" ]
          ~doc:
            "Check the bounded-stretch gadget: deflections toward AS 0 realise a \
             worst-case stretch of 2, so the stretch check fails under \
             $(b,--stretch-bound 1) while every other property verifies.")
  in
  let props_t =
    let props_conv =
      let parse s =
        match Mifo_analysis.Props.parse_props s with
        | Ok ps -> Ok ps
        | Error e -> Error (`Msg e)
      in
      let print fmt ps =
        Format.pp_print_string fmt
          (String.concat "," (List.map Mifo_analysis.Props.prop_to_string ps))
      in
      Arg.conv (parse, print)
    in
    Arg.(
      value
      & opt props_conv [ Mifo_analysis.Props.Loops ]
      & info [ "props" ] ~docv:"LIST"
          ~doc:
            "Comma-separated properties to verify statically: any of $(b,loops), \
             $(b,delivery), $(b,stretch), $(b,resilience).  Default: loops only \
             (the historical behaviour).")
  in
  let stretch_bound_t =
    Arg.(
      value
      & opt int Mifo_analysis.Props.default_stretch_bound
      & info [ "stretch-bound" ] ~docv:"B"
          ~doc:
            "Maximum tolerated stretch: worst deliverable deflection-path length \
             minus default-path length, per source.")
  in
  let fail_link_t =
    (* Parsed in [run], so a malformed value is a usage error (exit 2)
       like every other bad flag value. *)
    Arg.(
      value
      & opt (some string) None
      & info [ "fail-link" ] ~docv:"U:V"
          ~doc:
            "Verify under a single-link-failure overlay: the AS-level link \
             $(docv) is down in both directions and the endpoint whose default \
             route used it locally repairs onto its next surviving RIB route.")
  in
  let fail_links_t =
    Arg.(
      value & opt int 0
      & info [ "fail-links" ] ~docv:"N"
          ~doc:
            "Cap the resilience sweep to a seeded sample of $(docv) default-tree \
             links per destination (0, the default, sweeps all of them).")
  in
  let k_t =
    Arg.(
      value & opt int 0
      & info [ "k" ] ~docv:"K"
          ~doc:
            "Verify the k-alternative data plane: deflections bounded to the first \
             $(docv) RIB alternatives (the automaton keeps its (AS, tag) states).  \
             0 (the default) = the unbounded automaton.")
  in
  let no_tag_t =
    Arg.(
      value & flag
      & info [ "no-tag-check" ]
          ~doc:
            "Verify the ablated data plane (Tag-Check off); loop counterexamples are \
             expected and reported with their concrete cycle.")
  in
  let check_dests_t =
    Arg.(
      value & opt int 200
      & info [ "dests" ] ~docv:"N"
          ~doc:
            "Destinations verified at the AS level (all of them when the topology is \
             smaller, a seeded sample otherwise).")
  in
  let hosts_t =
    Arg.(
      value & opt int 24
      & info [ "hosts" ] ~docv:"N"
          ~doc:"Host ASes wired into the packet-level network audit.")
  in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the JSON report to $(docv) instead of stdout.")
  in
  let run obs seed ases topo_file gadget k2_gadget bh_gadget stretch_gadget no_tag
      k props stretch_bound fail_link fail_links dests hosts out =
    List.iter
      (fun (flag, v) -> if v < 0 then usage_error "%s must be >= 0 (got %d)" flag v)
      [
        ("-k", k); ("--stretch-bound", stretch_bound); ("--fail-links", fail_links);
        ("--dests", dests); ("--hosts", hosts);
      ];
    with_obs obs @@ fun () ->
    let module Report = Mifo_analysis.Report in
    let module Props = Mifo_analysis.Props in
    let tag_check = not no_tag in
    let fail_link =
      Option.map
        (fun s ->
          match List.map Mifo_util.Decimal.of_string_opt (String.split_on_char ':' s) with
          | [ Some u; Some v ] -> (u, v)
          | _ -> usage_error "--fail-link %s: want U:V with decimal AS ids" s)
        fail_link
    in
    let g =
      if gadget then Generator.fig2a_gadget ()
      else if k2_gadget then Generator.k2_gadget ()
      else if bh_gadget then Generator.black_hole_gadget ()
      else if stretch_gadget then Generator.stretch_gadget ()
      else
        match topo_file with
        | Some path -> (Mifo_topology.As_rel_io.load path).Mifo_topology.As_rel_io.graph
        | None -> (generate_topology ~seed ases).Generator.graph
    in
    let n = Mifo_topology.As_graph.n g in
    (match fail_link with
    | Some (u, v) when u >= n || v >= n ->
      usage_error "--fail-link %d:%d names an AS outside 0..%d" u v (n - 1)
    | Some (u, v) when Mifo_topology.As_graph.rel g u v = None ->
      usage_error "--fail-link %d:%d is not an AS link" u v
    | _ -> ());
    let table = Mifo_bgp.Routing_table.create g in
    let rng = Mifo_util.Prng.create ~seed:(seed + 17) () in
    let sample k =
      if n <= k then List.init n (fun i -> i)
      else Array.to_list (Mifo_util.Prng.sample_without_replacement rng k n)
    in
    let as_dests = sample dests in
    let host_ases = sample hosts in
    Mifo_bgp.Routing_table.precompute table (Array.of_list as_dests);
    let as_report =
      Mifo_analysis.Verifier.verify_props ~tag_check
        ?k:(if k > 0 then Some k else None)
        ~stretch_bound ?fail_link ~fail_links ~seed ~props g ~table ~dests:as_dests
    in
    (* Machine-check every delivery/stretch counterexample against the
       dynamic walker before reporting: a static finding that does not
       replay is a verifier bug, reported as exit 2. *)
    let replayed_ok = ref 0 and replay_bad = ref 0 in
    List.iter
      (fun v ->
        match v with
        | Report.Black_hole { dest; path; moves; failed_link; at; _ } -> (
          let rt = Mifo_bgp.Routing_table.get table dest in
          match Props.replay_stranded ~tag_check g rt ~path ~moves ~failed_link with
          | Mifo_core.Loop_walk.Dropped _ -> incr replayed_ok
          | _ ->
            incr replay_bad;
            Printf.eprintf
              "replay MISMATCH: black-hole at AS %d toward AS %d did not strand\n"
              at dest)
        | Report.Stretch_exceeded { dest; src; actual_len; path; moves; _ } -> (
          let rt = Mifo_bgp.Routing_table.get table dest in
          match Props.replay_stretch ~tag_check g rt ~path ~moves with
          | Mifo_core.Loop_walk.Delivered p when List.length p - 1 = actual_len ->
            incr replayed_ok
          | _ ->
            incr replay_bad;
            Printf.eprintf
              "replay MISMATCH: stretch path from AS %d toward AS %d did not \
               deliver in %d hops\n"
              src dest actual_len)
        | _ -> ())
      as_report.Report.violations;
    if !replayed_ok > 0 then
      Printf.eprintf "replayed %d static counterexample(s) through the dynamic walker\n"
        !replayed_ok;
    let config =
      { Mifo_netsim.Packetsim.default_config with Mifo_netsim.Packetsim.tag_check }
    in
    let net =
      Mifo_netsim.As_network.build ~config table
        ~deployment:(Mifo_core.Deployment.full ~n) ~hosts:host_ases ()
    in
    let routing = List.map (fun d -> (d, Mifo_bgp.Routing_table.get table d)) host_ases in
    let net_report =
      Mifo_analysis.Verifier.verify_network net.Mifo_netsim.As_network.sim ~routing
    in
    let report = Report.merge [ as_report; net_report ] in
    let json = Report.to_json_string report in
    (match out with
    | Some path ->
      let oc = open_out path in
      output_string oc json;
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" path
    | None -> print_endline json);
    prerr_endline (Report.summary report);
    if !replay_bad > 0 then exit 2;
    if not (Report.ok report) then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically verify the data plane: loop-freedom of the deflection automaton \
          (plus, with $(b,--props), black-hole freedom, bounded stretch and \
          single-link-failure resilience), valley-free compliance of every RIB path, \
          and FIB/RIB consistency of the built packet network.  Emits a JSON report; \
          exits non-zero on any violation.")
    Term.(
      const run $ obs_t $ seed_t $ ases_t $ topo_file_t $ gadget_t $ k2_gadget_t
      $ bh_gadget_t $ stretch_gadget_t $ no_tag_t $ k_t $ props_t $ stretch_bound_t
      $ fail_link_t $ fail_links_t $ check_dests_t $ hosts_t $ out_t)

let topo_cmd =
  let out_t =
    Arg.(required & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"Output path.")
  in
  let run seed ases out =
    let topo = generate_topology ~seed ases in
    Mifo_topology.As_rel_io.save out topo.Generator.graph;
    Printf.printf "wrote %s: %s\n" out
      (Format.asprintf "%a" Mifo_topology.Topo_stats.pp
         (Mifo_topology.Topo_stats.compute topo.Generator.graph))
  in
  Cmd.v
    (Cmd.info "topo" ~doc:"Generate a topology and save it in as-rel format.")
    Term.(const run $ seed_t $ ases_t $ out_t)

(* ---- path-diversity probe ----------------------------------------------

   Counts the distinct AS paths a k-alternative data plane can realize
   toward one destination by replaying {!Mifo_core.Loop_walk} walks under
   prime-spaced flow-id variations: each variation hashes (flow, AS) into
   a choice over the default and the first [k] ranked RIB alternatives —
   the same bucket->slot spreading the engine applies — and delivered
   paths are deduplicated.  A probe stops once [max_paths] distinct paths
   are on record or [early_stop] consecutive variations found nothing
   new (the SwiftFTR-style budget). *)

let c_path_probes = Obs.counter "paths.probes"
let c_path_distinct = Obs.counter "paths.distinct"
let c_path_early = Obs.counter "paths.early_stopped"

let probe_paths g rt ~src ~k ~max_paths ~early_stop =
  let module Fib = Mifo_core.Fib in
  let module Loop_walk = Mifo_core.Loop_walk in
  let early_stop = max 1 early_stop in
  let rec take n l =
    match l with [] -> [] | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl
  in
  let seen = Hashtbl.create 16 in
  let ordered = ref [] in
  let no_new = ref 0 in
  let variation = ref 0 in
  let early = ref false in
  while (not !early) && Hashtbl.length seen < max_paths do
    (* prime stride decorrelates successive variations under the bucket hash *)
    let flow = 1 + (7919 * !variation) in
    Obs.add c_path_probes 1;
    let decide ~as_id ~upstream:_ ~entries =
      match entries with
      | [] | [ _ ] -> Loop_walk.Default
      | _default :: alternatives ->
        let pool = take k alternatives in
        let m = List.length pool in
        let c = Fib.flow_bucket (flow + (8191 * as_id)) mod (m + 1) in
        if c = 0 then Loop_walk.Default
        else Loop_walk.Deflect (List.nth pool (c - 1)).Mifo_bgp.Routing.via
    in
    (match Loop_walk.walk g rt ~decide ~src with
    | Loop_walk.Delivered path ->
      let key = String.concat "," (List.map string_of_int path) in
      if Hashtbl.mem seen key then incr no_new
      else begin
        Hashtbl.replace seen key ();
        ordered := path :: !ordered;
        no_new := 0
      end
    | Loop_walk.Dropped _ | Loop_walk.Looped _ -> incr no_new);
    incr variation;
    if !no_new >= early_stop then begin
      early := true;
      Obs.add c_path_early 1
    end
  done;
  Obs.add c_path_distinct (Hashtbl.length seen);
  (List.rev !ordered, !variation, !early)

let paths_cmd =
  let src_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "src" ] ~docv:"AS"
          ~doc:
            "Source AS: inspect its RIB and probe from it alone.  Omitted, the probe \
             runs from every AS toward the destination and reports the aggregate.")
  in
  let dst_t =
    Arg.(
      required
      & opt (some int) None
      & info [ "dst"; "dest" ] ~docv:"AS" ~doc:"Destination AS.")
  in
  let limit_t = Arg.(value & opt int 10 & info [ "limit" ] ~docv:"N" ~doc:"Paths to list.") in
  let max_paths_t =
    Arg.(
      value & opt int 16
      & info [ "max-paths" ] ~docv:"N"
          ~doc:"Probe budget: stop once $(docv) distinct deflection paths are found.")
  in
  let early_stop_t =
    Arg.(
      value & opt int 3
      & info [ "early-stop" ] ~docv:"T"
          ~doc:
            "Stop a probe after $(docv) consecutive flow variations that discover no \
             new path.")
  in
  let k_t =
    Arg.(
      value
      & opt int Mifo_core.Fib.max_alts
      & info [ "k" ] ~docv:"K"
          ~env:
            (Cmd.Env.info "MIFO_K_ALT"
               ~doc:"Same as $(b,-k); the flag wins when both are given.")
          ~doc:
            (Printf.sprintf
               "Ranked alternatives considered per hop, in 1..%d (the FIB's ranked \
                slots)."
               Mifo_core.Fib.max_alts))
  in
  let run obs ctx src dst limit max_paths early_stop k =
    if k < 1 || k > Mifo_core.Fib.max_alts then
      usage_error "-k (or MIFO_K_ALT) must be in 1..%d (got %d)" Mifo_core.Fib.max_alts k;
    let ctx = Lazy.force ctx in
    let g = Context.graph ctx in
    let n = Mifo_topology.As_graph.n g in
    let check_as flag v =
      if v < 0 || v >= n then usage_error "%s must be an AS in 0..%d (got %d)" flag (n - 1) v
    in
    check_as "--dst" dst;
    Option.iter (check_as "--src") src;
    with_obs obs @@ fun () ->
    let rt = Mifo_bgp.Routing_table.get ctx.Context.table dst in
    let show path = String.concat " -> " (List.map string_of_int path) in
    match src with
    | Some src ->
      Printf.printf "default path: %s\n" (show (Mifo_bgp.Routing.default_path rt src));
      Printf.printf "local RIB at AS %d toward AS %d:\n" src dst;
      List.iter
        (fun (e : Mifo_bgp.Routing.rib_entry) ->
          Printf.printf "  via AS %-6d (%s route, %d AS hops)\n" e.via
            (Mifo_topology.Relationship.to_string e.rel)
            e.len)
        (Mifo_bgp.Routing.rib rt src);
      let a = Mifo_analysis.Automaton.create g rt in
      let walks = Mifo_analysis.Automaton.enumerate a ~src ~limit in
      Printf.printf "first %d MIFO forwarding paths (of %.0f):\n" (List.length walks)
        (Mifo_analysis.Automaton.path_counts a).(src);
      List.iter
        (fun moves ->
          let vias = Array.to_list (Array.map (fun m -> m.Mifo_analysis.Automaton.via) moves) in
          Printf.printf "  %s\n" (show (src :: vias)))
        walks;
      let distinct, probes, early = probe_paths g rt ~src ~k ~max_paths ~early_stop in
      Printf.printf "deflection probe (k=%d): %d distinct paths in %d flow variations%s:\n"
        k (List.length distinct) probes
        (if early then ", early-stopped" else "");
      List.iter (fun p -> Printf.printf "  %s\n" (show p)) distinct
    | None ->
      let n = Mifo_topology.As_graph.n g in
      let sources = ref 0 in
      let probes = ref 0 in
      let total = ref 0 in
      let max_distinct = ref 0 in
      let early_stopped = ref 0 in
      for s = 0 to n - 1 do
        if s <> dst then begin
          incr sources;
          let distinct, p, early = probe_paths g rt ~src:s ~k ~max_paths ~early_stop in
          let d = List.length distinct in
          probes := !probes + p;
          total := !total + d;
          if d > !max_distinct then max_distinct := d;
          if early then incr early_stopped
        end
      done;
      Printf.printf "deflection probe toward AS %d (k=%d, max-paths %d, early-stop %d):\n"
        dst k max_paths early_stop;
      Printf.printf "  sources probed  : %d\n" !sources;
      Printf.printf "  flow variations : %d\n" !probes;
      Printf.printf "  distinct paths  : %d (mean %.2f per source, max %d)\n" !total
        (if !sources = 0 then 0. else float_of_int !total /. float_of_int !sources)
        !max_distinct;
      Printf.printf "  early-stopped   : %d sources\n" !early_stopped
  in
  Cmd.v
    (Cmd.info "paths"
       ~doc:
         "Probe the deflection path diversity toward a destination: enumerate the \
          distinct AS paths a k-alternative data plane realizes under flow-hash \
          spreading, with deduplication and early stopping.  With $(b,--src), also \
          inspect that AS's RIB.")
    Term.(
      const run $ obs_t $ context_t $ src_t $ dst_t $ limit_t $ max_paths_t
      $ early_stop_t $ k_t)

let main_cmd =
  Cmd.group
    (Cmd.info "mifo-sim" ~version:"1.0.0"
       ~doc:"Multi-path Interdomain Forwarding (MIFO, ICPP 2015) - simulation driver.")
    [
      table1_cmd; fig5_cmd; fig6_cmd; fig7_cmd; fig8_cmd; fig9_cmd; fig12_cmd;
      ablations_cmd; validate_cmd; check_cmd; topo_cmd; paths_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
