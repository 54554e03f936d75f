module As_graph = Mifo_topology.As_graph
module Routing_table = Mifo_bgp.Routing_table
module Packetsim = Mifo_netsim.Packetsim
module Parallel = Mifo_util.Parallel

(* One destination: the requested property suite plus the RIB path
   audit.  Pure per-destination; the fan-out below runs it on the
   domain pool with slot-indexed result writes, so the merged report is
   bit-identical at any MIFO_JOBS. *)
let verify_dest ?tag_check ?k ?stretch_bound ?fail_link ?fail_links ?seed ~props g
    ~table d =
  let rt = Routing_table.get table d in
  let prop_report =
    Props.verify_dest ?tag_check ?k ?stretch_bound ?fail_link ?fail_links ?seed
      ~props g rt
  in
  let path_viols, paths_checked = As_check.check_paths g rt in
  {
    Report.violations = prop_report.Report.violations @ path_viols;
    stats = { prop_report.Report.stats with Report.paths_checked };
  }

let verify_props ?tag_check ?k ?stretch_bound ?fail_link ?fail_links ?seed
    ?(props = Props.all) g ~table ~dests =
  let reports =
    Parallel.parallel_map (Parallel.get_default ())
      (verify_dest ?tag_check ?k ?stretch_bound ?fail_link ?fail_links ?seed ~props g
         ~table)
      (Array.of_list dests)
  in
  (* Merge in destination order — independent of domain scheduling. *)
  Report.merge (Array.to_list reports)

let verify_network sim ~routing =
  let fib_viols, fib_entries_checked = Net_check.audit_fibs sim ~routing in
  let loop_viols, states_explored = Net_check.find_loops sim ~routing in
  {
    Report.violations = fib_viols @ loop_viols;
    stats =
      {
        Report.empty_stats with
        Report.dests_checked = List.length routing;
        states_explored;
        fib_entries_checked;
      };
  }
