module Prefix = Mifo_bgp.Prefix
module Fib = Mifo_core.Fib
module Engine = Mifo_core.Engine
module Packetsim = Mifo_netsim.Packetsim
module Relationship = Mifo_topology.Relationship

type protocol = Bgp_routing | Mifo_routing

type config = {
  flows_per_source : int;
  flow_bytes : int;
  link_rate : float;
  sim : Packetsim.config;
}

let default_config =
  {
    flows_per_source = 30;
    flow_bytes = 10_000_000;
    link_rate = 1e9;
    sim = Packetsim.default_config;
  }

type result = {
  protocol : protocol;
  aggregate_series : (float * float) array;
  fct : float array;
  makespan : float;
  mean_aggregate : float;
  counters : Packetsim.counters;
  switches : (int * int) list;
}

type network = {
  sim : Packetsim.t;
  s1 : int;
  s2 : int;
  d1 : int;
  d2 : int;
  rd : int;
  ra : int;
  rd_ebgp : int;
  ra_ebgp : int;
}

let build (config : config) protocol =
  let sim = Packetsim.create ~config:config.sim () in
  let rate = config.link_rate in
  (* Routers: 11 machines as in the paper. *)
  let r1 = Packetsim.add_router sim ~as_id:1 in
  let r2 = Packetsim.add_router sim ~as_id:2 in
  let rb = Packetsim.add_router sim ~as_id:3 in  (* ingress from AS1 *)
  let rc = Packetsim.add_router sim ~as_id:3 in  (* ingress from AS2 *)
  let rd = Packetsim.add_router sim ~as_id:3 in  (* default egress, to AS4 *)
  let ra = Packetsim.add_router sim ~as_id:3 in  (* alternative egress, to AS6 *)
  let r4a = Packetsim.add_router sim ~as_id:4 in
  let r4b = Packetsim.add_router sim ~as_id:4 in
  let r5a = Packetsim.add_router sim ~as_id:5 in  (* ingress from AS4; D1 *)
  let r5b = Packetsim.add_router sim ~as_id:5 in  (* ingress from AS6; D2 *)
  let r6 = Packetsim.add_router sim ~as_id:6 in
  (* Hosts. *)
  let s1_addr = Prefix.host_of_as 1 1 and s2_addr = Prefix.host_of_as 2 1 in
  let d1_addr = Prefix.host_of_as 5 1 and d2_addr = Prefix.host_of_as 5 2 in
  let s1 = Packetsim.add_host sim ~addr:s1_addr in
  let s2 = Packetsim.add_host sim ~addr:s2_addr in
  let d1 = Packetsim.add_host sim ~addr:d1_addr in
  let d2 = Packetsim.add_host sim ~addr:d2_addr in
  let local = Engine.Local in
  let ebgp as_ rel = Engine.Ebgp { neighbor_as = as_; rel } in
  let ibgp peer = Engine.Ibgp { peer_router = peer } in
  let link ?rate:(r = rate) a b ka kb =
    Packetsim.connect sim ~a ~b ~kind_ab:ka ~kind_ba:kb ~rate:r ()
  in
  (* Host links (the host side's port kind is never consulted). *)
  let _, r1_s1 = link s1 r1 local local in
  let _, r2_s2 = link s2 r2 local local in
  let _, r5a_d1 = link d1 r5a local local in
  let _, r5b_d2 = link d2 r5b local local in
  (* eBGP links; relationships as seen by each side.  AS1 and AS2 are
     customers of AS3; AS3 is a customer of AS4 and AS6; AS5 is a customer
     of AS4 and AS6. *)
  let r1_rb, rb_r1 = link r1 rb (ebgp 3 Relationship.Provider) (ebgp 1 Relationship.Customer) in
  let r2_rc, rc_r2 = link r2 rc (ebgp 3 Relationship.Provider) (ebgp 2 Relationship.Customer) in
  let rd_r4a, r4a_rd = link rd r4a (ebgp 4 Relationship.Provider) (ebgp 3 Relationship.Customer) in
  let ra_r6, r6_ra = link ra r6 (ebgp 6 Relationship.Provider) (ebgp 3 Relationship.Customer) in
  let r4b_r5a, r5a_r4b = link r4b r5a (ebgp 5 Relationship.Customer) (ebgp 4 Relationship.Provider) in
  let r6_r5b, _r5b_r6 = link r6 r5b (ebgp 5 Relationship.Customer) (ebgp 6 Relationship.Provider) in
  (* iBGP full mesh inside AS3, plus intra-AS links in AS4 and AS5. *)
  let rb_rd, rd_rb = link rb rd (ibgp rd) (ibgp rb) in
  let rc_rd, rd_rc = link rc rd (ibgp rd) (ibgp rc) in
  let rb_ra, _ra_rb = link rb ra (ibgp ra) (ibgp rb) in
  let rc_ra, _ra_rc = link rc ra (ibgp ra) (ibgp rc) in
  let rd_ra, ra_rd = link rd ra (ibgp ra) (ibgp rd) in
  let r4a_r4b, r4b_r4a = link r4a r4b (ibgp r4b) (ibgp r4a) in
  let r5a_r5b, r5b_r5a = link r5a r5b (ibgp r5b) (ibgp r5a) in
  ignore rb_ra;
  ignore rc_ra;
  (* Prefixes. *)
  let p1 = Prefix.of_as 1 and p2 = Prefix.of_as 2 and p5 = Prefix.of_as 5 in
  let d1_pfx = Prefix.make d1_addr 32 and d2_pfx = Prefix.make d2_addr 32 in
  let add node prefix out = Fib.insert (Packetsim.fib sim node) prefix ~out_port:out () in
  let add_alt node prefix out alt =
    Fib.insert (Packetsim.fib sim node) prefix ~out_port:out ~alt_port:alt ()
  in
  (* Routes toward AS5 (the data direction). *)
  add r1 p5 r1_rb;
  add r2 p5 r2_rc;
  add rb p5 rb_rd;
  add rc p5 rc_rd;
  (match protocol with
   | Mifo_routing ->
     add_alt rd p5 rd_r4a rd_ra;
     add_alt ra p5 ra_rd ra_r6
   | Bgp_routing ->
     add rd p5 rd_r4a;
     add ra p5 ra_rd);
  add r4a p5 r4a_r4b;
  add r4b p5 r4b_r5a;
  add r6 p5 r6_r5b;
  (* Host routes inside AS5 (more specific than p5). *)
  add r5a d1_pfx r5a_d1;
  add r5a d2_pfx r5a_r5b;
  add r5b d2_pfx r5b_d2;
  add r5b d1_pfx r5b_r5a;
  (* Reverse routes for the ACK stream (5 -> 4 -> 3 -> 1/2). *)
  add r5a p1 r5a_r4b;
  add r5a p2 r5a_r4b;
  add r5b p1 r5b_r5a;
  add r5b p2 r5b_r5a;
  add r4b p1 r4b_r4a;
  add r4b p2 r4b_r4a;
  add r4a p1 r4a_rd;
  add r4a p2 r4a_rd;
  add rd p1 rd_rb;
  add rd p2 rd_rc;
  add ra p1 ra_rd;
  add ra p2 ra_rd;
  add r6 p1 r6_ra;
  add r6 p2 r6_ra;
  add rb p1 rb_r1;
  add rb p2 rb_rd;
  add rc p2 rc_r2;
  add rc p1 rc_rd;
  add r1 p1 r1_s1;
  add r2 p2 r2_s2;
  (* The MIFO daemon's greedy alternative selection: Rd's alternative (the
     iBGP peer Ra) is only worth using while Ra's own exit link has spare
     capacity — the measurement Ra shares over the iBGP session. *)
  (match protocol with
   | Mifo_routing ->
     (* Each chooser writes one port (a negative one leaves the set
        empty); entries other than AS5's keep their slot-0 alternative. *)
     let rd_p5 = Fib.find (Packetsim.fib sim rd) p5 in
     Packetsim.set_ranked_chooser sim rd (fun fib entry buf ->
         buf.(0) <-
           (if entry = rd_p5 then
              (* greedy link monitoring: the alternative is withdrawn only
                 when Ra's exit link is fully busy AND nothing is currently
                 deflected (i.e. it would start at zero benefit) *)
              if
                Fib.deflect_buckets fib entry = 0
                && Packetsim.spare_capacity sim ra ra_r6 < 0.02 *. rate
              then -1
              else rd_ra
            else Fib.alt_at fib entry 0);
         1);
     let ra_p5 = Fib.find (Packetsim.fib sim ra) p5 in
     Packetsim.set_ranked_chooser sim ra (fun fib entry buf ->
         buf.(0) <- (if entry = ra_p5 then ra_r6 else Fib.alt_at fib entry 0);
         1)
   | Bgp_routing -> ());
  ignore r5a_r5b;
  { sim; s1; s2; d1; d2; rd; ra; rd_ebgp = rd_r4a; ra_ebgp = ra_r6 }

let run ?(config = default_config) protocol =
  let net = build config protocol in
  let sim = net.sim in
  (* Two chains of back-to-back flows: S1 -> D1 and S2 -> D2. *)
  let remaining = Hashtbl.create 4 in
  let start_next src dst =
    let id = Packetsim.add_flow sim ~src ~dst ~bytes:config.flow_bytes
        ~start:(Float.max 0. (Packetsim.now sim)) in
    Hashtbl.replace remaining id (src, dst)
  in
  let counts = Hashtbl.create 4 in
  Hashtbl.replace counts net.s1 (config.flows_per_source - 1);
  Hashtbl.replace counts net.s2 (config.flows_per_source - 1);
  Packetsim.set_completion_hook sim (fun flow ->
      match Hashtbl.find_opt remaining flow with
      | None -> ()
      | Some (src, dst) ->
        let left = Option.value ~default:0 (Hashtbl.find_opt counts src) in
        if left > 0 then begin
          Hashtbl.replace counts src (left - 1);
          start_next src dst
        end);
  start_next net.s1 net.d1;
  start_next net.s2 net.d2;
  Packetsim.run sim;
  let results = Packetsim.flow_results sim in
  let fct =
    Array.of_list
      (List.filter_map
         (fun (r : Packetsim.flow_result) ->
           match r.finish with Some f -> Some (f -. r.start) | None -> None)
         (Array.to_list results))
  in
  let makespan =
    Array.fold_left
      (fun acc (r : Packetsim.flow_result) ->
        match r.finish with Some f -> Float.max acc f | None -> acc)
      0. results
  in
  let series = Packetsim.throughput_series sim in
  let active = Array.of_list (List.filter (fun (t, _) -> t <= makespan) (Array.to_list series)) in
  let mean_aggregate =
    if Array.length active = 0 then 0.
    else
      Array.fold_left (fun acc (_, v) -> acc +. v) 0. active
      /. float_of_int (Array.length active)
  in
  {
    protocol;
    aggregate_series = series;
    fct;
    makespan;
    mean_aggregate;
    counters = Packetsim.counters sim;
    switches = Packetsim.path_switches sim;
  }
