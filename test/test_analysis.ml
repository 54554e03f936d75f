(* Tests for Mifo_analysis: the AS-level deflection product automaton,
   the router-level FIB audits and tunnel-aware loop search, the report
   serialisation, and the agreement between the static verdicts and the
   dynamic Loop_walk / Packetsim behaviours. *)

module As_graph = Mifo_topology.As_graph
module Generator = Mifo_topology.Generator
module Relationship = Mifo_topology.Relationship
module Routing = Mifo_bgp.Routing
module Routing_table = Mifo_bgp.Routing_table
module Prefix = Mifo_bgp.Prefix
module Policy = Mifo_core.Policy
module Loop_walk = Mifo_core.Loop_walk
module Deployment = Mifo_core.Deployment
module Engine = Mifo_core.Engine
module Fib = Mifo_core.Fib
module Packetsim = Mifo_netsim.Packetsim
module As_network = Mifo_netsim.As_network
module As_check = Mifo_analysis.As_check
module Net_check = Mifo_analysis.Net_check
module Report = Mifo_analysis.Report
module Verifier = Mifo_analysis.Verifier
module Automaton = Mifo_analysis.Automaton
module Props = Mifo_analysis.Props
module Jobs = Mifo_oracle.Jobs
module Json = Mifo_util.Obs.Json

let gadget = lazy (let g = Generator.fig2a_gadget () in (g, Routing.compute g 0))

(* A ranked set from a list, through the production array writer. *)
let set_alts fib e ports =
  let a = Array.of_list ports in
  Fib.set_alts fib e a (Array.length a)

(* ---------- AS-level automaton ---------- *)

let test_gadget_loop_free_with_check () =
  let g, rt = Lazy.force gadget in
  let r = As_check.find_loop ~tag_check:true g rt in
  Alcotest.(check bool) "no counterexample" true (r.As_check.counterexample = None);
  Alcotest.(check bool) "explored something" true (r.As_check.states_explored > 0)

let test_gadget_counterexample_without_check () =
  let g, rt = Lazy.force gadget in
  let r = As_check.find_loop ~tag_check:false g rt in
  match r.As_check.counterexample with
  | None -> Alcotest.fail "the ablated gadget must loop"
  | Some cx ->
    Alcotest.(check int) "toward the gadget origin" 0 cx.As_check.dest;
    Alcotest.(check bool) "cycle closes on its head" true
      (List.length cx.As_check.cycle >= 2
      && List.hd cx.As_check.cycle = List.nth cx.As_check.cycle (List.length cx.As_check.cycle - 1));
    (* the machine check: the counterexample's decision script drives the
       dynamic walker into the same loop *)
    (match As_check.replay ~tag_check:false g rt cx with
     | Loop_walk.Looped _ -> ()
     | _ -> Alcotest.fail "replay did not loop")

let test_gadget_paths_valley_free () =
  let g, rt = Lazy.force gadget in
  let violations, checked = As_check.check_paths g rt in
  Alcotest.(check int) "no violations" 0 (List.length violations);
  Alcotest.(check bool) "paths audited" true (checked > 0)

let test_verify_as_level_generated () =
  (* a generated topology, several destinations: clean with the check on,
     and loop counterexamples appear with the check off *)
  let topo =
    Generator.generate
      ~params:{ Generator.default_params with Generator.ases = 80; tier1 = 4;
                content_providers = 2; content_peer_span = (3, 8) }
      ~seed:42 ()
  in
  let g = topo.Generator.graph in
  let table = Routing_table.create g in
  let dests = [ 0; 7; 23; 41; 55; 79 ] in
  let verify ~tag_check = Verifier.verify_props ~tag_check ~props:[ Props.Loops ] g ~table ~dests in
  let on = verify ~tag_check:true in
  Alcotest.(check bool) "tag-check on: clean" true (Report.ok on);
  Alcotest.(check int) "every destination checked" (List.length dests)
    on.Report.stats.Report.dests_checked;
  Alcotest.(check bool) "paths audited" true (on.Report.stats.Report.paths_checked > 0);
  let off = verify ~tag_check:false in
  Alcotest.(check bool) "tag-check off: loops found" true
    (List.exists
       (function Report.Forwarding_loop { level = Report.As_level; _ } -> true | _ -> false)
       off.Report.violations)

(* Static verdict vs dynamic walker, on random topologies: with the
   tag-check the automaton is acyclic AND no adversarial walk loops;
   without it, any counterexample found must replay to a dynamic loop. *)
let prop_static_matches_dynamic =
  let topo =
    lazy
      (Generator.generate
         ~params:{ Generator.default_params with Generator.ases = 120; tier1 = 4;
                   content_providers = 2; content_peer_span = (3, 8) }
         ~seed:99 ())
  in
  QCheck2.Test.make
    ~name:"static loop-freedom verdict agrees with the dynamic walker" ~count:80
    QCheck2.Gen.(triple (int_bound 119) (int_bound 119) (int_bound 1_000_000))
    (fun (dst, src, salt) ->
      QCheck2.assume (dst <> src);
      let t = Lazy.force topo in
      let g = t.Generator.graph in
      let rt = Routing.compute g dst in
      let static_on = As_check.find_loop ~tag_check:true g rt in
      (* adversarial dynamic strategy: pseudo-randomly deflect anywhere *)
      let decide ~as_id ~upstream:_ ~entries =
        match entries with
        | [] -> Loop_walk.Default
        | entries ->
          let k = Hashtbl.hash (as_id, salt) mod (List.length entries + 1) in
          if k = 0 then Loop_walk.Default
          else Loop_walk.Deflect (List.nth entries (k - 1)).Routing.via
      in
      let dynamic_ok =
        match Loop_walk.walk ~tag_check:true g rt ~decide ~src with
        | Loop_walk.Looped _ -> false
        | _ -> true
      in
      let replay_ok =
        match (As_check.find_loop ~tag_check:false g rt).As_check.counterexample with
        | None -> true
        | Some cx -> (
          match As_check.replay ~tag_check:false g rt cx with
          | Loop_walk.Looped _ -> true
          | _ -> false)
      in
      static_on.As_check.counterexample = None && dynamic_ok && replay_ok)

(* ---------- the k-alternative automaton ---------- *)

let test_k2_gadget () =
  let g = Generator.k2_gadget () in
  let rt = Routing.compute g 0 in
  (* with the Tag-Check the gadget is clean at any k *)
  let on = As_check.find_loop ~tag_check:true g rt in
  Alcotest.(check bool) "tag-check on: clean (unbounded)" true
    (on.As_check.counterexample = None);
  (* ablated: the single-alternative data plane is loop-free (each AS's
     first alternative is the direct peer link to the destination)... *)
  let k1 = As_check.find_loop ~tag_check:false ~k:1 g rt in
  Alcotest.(check bool) "ablated k=1: clean" true (k1.As_check.counterexample = None);
  (* ...but the second-ranked alternatives 1->2 and 2->1 close a cycle *)
  let k2 = As_check.find_loop ~tag_check:false ~k:2 g rt in
  (match k2.As_check.counterexample with
   | None -> Alcotest.fail "ablated k=2 gadget must loop"
   | Some cx ->
     Alcotest.(check bool) "a second-ranked slot closes the cycle" true
       (List.exists
          (fun (m : As_check.move) -> m.As_check.slot >= 2)
          cx.As_check.cycle_moves);
     (* the machine check: the counterexample replays to a dynamic loop *)
     (match As_check.replay ~tag_check:false g rt cx with
      | Loop_walk.Looped _ -> ()
      | _ -> Alcotest.fail "k=2 replay did not loop"))

(* One (AS, tag) state space at every bound: [?k] only removes
   deflection edges. *)
let test_k_states () =
  let g = Generator.k2_gadget () in
  let rt = Routing.compute g 0 in
  List.iter
    (fun k ->
      Alcotest.(check int) (Printf.sprintf "n_states at k=%d" k) (2 * As_graph.n g)
        (Automaton.n_states (Automaton.create ~k g rt)))
    [ 1; 2; 4 ];
  Alcotest.(check int) "n_states unbounded" (2 * As_graph.n g)
    (Automaton.n_states (Automaton.create g rt))

let rec take n = function
  | [] -> []
  | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

(* k-bounded static verdicts vs a dynamic walker restricted to the
   first k RIB alternatives — the pool Alt_select.ranked_alternatives
   draws from, so a clean bounded verdict must cover every ranked-set
   strategy; and any ablated counterexample must replay dynamically. *)
let prop_ranked_static_matches_dynamic =
  let topo =
    lazy
      (Generator.generate
         ~params:{ Generator.default_params with Generator.ases = 120; tier1 = 4;
                   content_providers = 2; content_peer_span = (3, 8) }
         ~seed:5 ())
  in
  QCheck2.Test.make
    ~name:"k-bounded static verdict agrees with the ranked dynamic walker" ~count:60
    QCheck2.Gen.(
      quad (int_range 1 4) (int_bound 119) (int_bound 119) (int_bound 1_000_000))
    (fun (k, dst, src, salt) ->
      QCheck2.assume (dst <> src);
      let t = Lazy.force topo in
      let g = t.Generator.graph in
      let rt = Routing.compute g dst in
      let static_on = As_check.find_loop ~tag_check:true ~k g rt in
      (* adversarial ranked strategy: pseudo-randomly deflect onto any of
         the first k alternatives (preference order), like a random
         bucket landing on a random slot of a ranked set *)
      let decide ~as_id ~upstream:_ ~entries =
        match entries with
        | [] | [ _ ] -> Loop_walk.Default
        | _ :: alternatives -> (
          let pool = take k alternatives in
          let c = Hashtbl.hash (as_id, salt, k) mod (List.length pool + 1) in
          if c = 0 then Loop_walk.Default
          else Loop_walk.Deflect (List.nth pool (c - 1)).Routing.via)
      in
      let dynamic_ok =
        match Loop_walk.walk ~tag_check:true g rt ~decide ~src with
        | Loop_walk.Looped _ -> false
        | _ -> true
      in
      let replay_ok =
        match (As_check.find_loop ~tag_check:false ~k g rt).As_check.counterexample with
        | None -> true
        | Some cx -> (
          match As_check.replay ~tag_check:false g rt cx with
          | Loop_walk.Looped _ -> true
          | _ -> false)
      in
      static_on.As_check.counterexample = None && dynamic_ok && replay_ok)

(* ---------- report serialisation ---------- *)

let test_report_json () =
  let v =
    Report.Forwarding_loop
      { dest = 0; level = Report.As_level; entry = [ 3 ]; cycle = [ 1; 2; 1 ] }
  in
  let r =
    {
      Report.violations = [ v ];
      stats =
        {
          Report.empty_stats with
          Report.dests_checked = 1;
          states_explored = 7;
          paths_checked = 5;
        };
    }
  in
  Alcotest.(check bool) "not ok" false (Report.ok r);
  let j = Json.parse (Report.to_json_string r) in
  Alcotest.(check bool) "ok field false" true (Json.member "ok" j = Some (Json.Bool false));
  (match Json.member "violations" j with
   | Some (Json.Arr [ first ]) ->
     Alcotest.(check bool) "kind discriminator" true
       (Json.member "kind" first = Some (Json.Str "forwarding-loop"))
   | _ -> Alcotest.fail "expected one serialised violation");
  (match Json.member "stats" j with
   | Some stats ->
     Alcotest.(check bool) "stats carried" true
       (Json.member "paths_checked" stats = Some (Json.Num 5.))
   | None -> Alcotest.fail "missing stats");
  let clean = Report.merge [ Report.empty ] in
  let j = Json.parse (Report.to_json_string clean) in
  Alcotest.(check bool) "clean report is ok" true
    (Json.member "ok" j = Some (Json.Bool true))

(* ---------- router-level network verification ---------- *)

let gadget_network ?config () =
  let g = Generator.fig2a_gadget () in
  let table = Routing_table.create g in
  let hosts = [ 0; 1; 2; 3 ] in
  let net = As_network.build ?config table ~deployment:(Deployment.full ~n:4) ~hosts () in
  let routing = List.map (fun d -> (d, Routing_table.get table d)) hosts in
  (net, routing)

let test_network_gadget_clean () =
  let net, routing = gadget_network () in
  let r = Verifier.verify_network net.As_network.sim ~routing in
  Alcotest.(check bool) "clean" true (Report.ok r);
  Alcotest.(check bool) "FIB entries audited" true
    (r.Report.stats.Report.fib_entries_checked > 0);
  Alcotest.(check bool) "states explored" true (r.Report.stats.Report.states_explored > 0)

let test_network_gadget_tag_check_off_loops () =
  let config = { Packetsim.default_config with Packetsim.tag_check = false } in
  let net, routing = gadget_network ~config () in
  let r = Verifier.verify_network net.As_network.sim ~routing in
  Alcotest.(check bool) "violations found" false (Report.ok r);
  match
    List.find_opt
      (function Report.Forwarding_loop { level = Report.Router_level; _ } -> true | _ -> false)
      r.Report.violations
  with
  | Some (Report.Forwarding_loop { cycle; _ }) ->
    Alcotest.(check bool) "concrete cycle" true (List.length cycle >= 2)
  | _ -> Alcotest.fail "expected a router-level forwarding loop"

(* The router-level diamond: AS 3 expanded into four border routers, one
   per link, so the default and the alternative egress toward AS 0 sit
   on different routers of AS 3 and a deflection crosses its iBGP mesh.
   IP-in-IP between iBGP peers (Fig. 2(b)) keeps that crossing from
   cycling; without it, the routers of AS 3 bounce the packet between
   themselves. *)
let expanded_diamond_network ~ibgp_encap =
  let g =
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
  in
  let table = Routing_table.create g in
  let expansion =
    Mifo_topology.Router_level.expand ~links_per_router:1 ~max_routers:4 ~seed:5 g
      ~expand:[ 3 ]
  in
  let config = { Packetsim.default_config with Packetsim.ibgp_encap } in
  let hosts = [ 0; 4; 5 ] in
  let net =
    As_network.build ~config ~expansion table ~deployment:(Deployment.full ~n:6) ~hosts ()
  in
  let routing = List.map (fun d -> (d, Routing_table.get table d)) hosts in
  (Verifier.verify_network net.As_network.sim ~routing, net.As_network.sim)

let test_network_ibgp_encap () =
  let r, _ = expanded_diamond_network ~ibgp_encap:true in
  Alcotest.(check (list string)) "encapsulation on: clean" []
    (List.map Report.violation_to_string r.Report.violations);
  Alcotest.(check bool) "FIB entries audited" true
    (r.Report.stats.Report.fib_entries_checked > 0);
  let r, sim = expanded_diamond_network ~ibgp_encap:false in
  let as_of node =
    match Packetsim.node_view sim node with
    | Packetsim.Router_view { as_id } -> as_id
    | Packetsim.Host_view _ -> -1
  in
  match
    List.find_opt
      (function Report.Forwarding_loop { level = Report.Router_level; _ } -> true | _ -> false)
      r.Report.violations
  with
  | Some (Report.Forwarding_loop { cycle; _ }) ->
    Alcotest.(check (list int)) "encapsulation off: the cycle" [ 3; 5; 3 ] cycle;
    Alcotest.(check (list int)) "only AS 3's routers cycle" [ 3; 3; 3 ] (List.map as_of cycle)
  | _ -> Alcotest.fail "expected a router-level forwarding loop"

let test_network_dangling_alt_port () =
  (* corrupt one installed FIB entry: an alternative pointing at a port
     that does not exist *)
  let net, routing = gadget_network () in
  let r1 = net.As_network.router_of_as.(1) in
  let fib = Packetsim.fib net.As_network.sim r1 in
  set_alts fib (Fib.find fib (Prefix.of_as 0)) [ 999 ];
  let violations, _ = Net_check.audit_fibs net.As_network.sim ~routing in
  match
    List.find_opt
      (function Report.Dangling_fib_port { node; _ } -> node = r1 | _ -> false)
      violations
  with
  | Some (Report.Dangling_fib_port { port; _ }) ->
    Alcotest.(check int) "the bogus port" 999 port
  | _ -> Alcotest.fail "expected a dangling-FIB-port violation"

(* Every [Dangling_fib_port] verdict of the FIB audit, pinned line by
   line.  The fixture wires one audited router r1 (AS 1) with one port
   per way a FIB port can be wrong, plus a clean Local default (port 0)
   and a clean eBGP alternative (port 1); each row installs r1's entry
   for 10.0.0.0/24 and must produce exactly its lines, in order.  The
   destination is AS 0 of the fig2a gadget, where AS 1 holds routes via
   0, 2 and 3 — so an eBGP port toward AS 1 itself is unbacked.  rz
   (AS 3) holds the prefix as well, so an iBGP port toward it has a
   route at the endpoint.

   Ten of the audit's eleven reasons are raised here: "tunnel endpoint
   is not an iBGP peer" cannot be, since [Packetsim.connect] records an
   iBGP session for every iBGP port, so the wired peer of such a port
   always has one. *)
type audit_fixture = { sim : Packetsim.t; r1 : int; rz : int; routing : (int * Routing.t) list }

let audit_fixture () =
  let sim = Packetsim.create () in
  let r1 = Packetsim.add_router sim ~as_id:1 in
  let r2 = Packetsim.add_router sim ~as_id:1 in
  let r3 = Packetsim.add_router sim ~as_id:1 in
  let rx = Packetsim.add_router sim ~as_id:0 in
  let rw = Packetsim.add_router sim ~as_id:2 in
  let rz = Packetsim.add_router sim ~as_id:3 in
  let rs = Packetsim.add_router sim ~as_id:1 in
  let h0 = Packetsim.add_host sim ~addr:(Prefix.host_of_as 0 1) in
  let h3 = Packetsim.add_host sim ~addr:(Prefix.host_of_as 3 1) in
  let hz = Packetsim.add_host sim ~addr:(Prefix.host_of_as 0 2) in
  let he = Packetsim.add_host sim ~addr:(Prefix.host_of_as 0 3) in
  let hi = Packetsim.add_host sim ~addr:(Prefix.host_of_as 0 4) in
  let wire b kind =
    ignore
      (Packetsim.connect sim ~a:r1 ~b ~kind_ab:kind ~kind_ba:Engine.Local ~rate:1e9 ())
  in
  let ebgp neighbor_as = Engine.Ebgp { neighbor_as; rel = Relationship.Customer } in
  let ibgp peer_router = Engine.Ibgp { peer_router } in
  wire h0 Engine.Local (* 0: clean default *);
  wire rx (ebgp 0) (* 1: clean alternative *);
  wire h3 Engine.Local (* 2: host outside the prefix *);
  wire r3 Engine.Local (* 3: Local port to a router *);
  wire rw (ebgp 0) (* 4: peer sits in AS 2, not AS 0 *);
  wire he (ebgp 0) (* 5: eBGP port to a host *);
  wire rs (ebgp 1) (* 6: no RIB route via AS 1 *);
  wire r3 (ibgp r2) (* 7: names r2, wired to r3 *);
  wire rz (ibgp rz) (* 8: iBGP session into AS 3 *);
  wire r2 (ibgp r2) (* 9: r2 has no route for the prefix *);
  wire hi (ibgp hi) (* 10: iBGP port to a host *);
  let rz_h, _ =
    Packetsim.connect sim ~a:rz ~b:hz ~kind_ab:Engine.Local ~kind_ba:Engine.Local ~rate:1e9 ()
  in
  Fib.insert (Packetsim.fib sim rz) (Prefix.of_as 0) ~out_port:rz_h ();
  let g = Generator.fig2a_gadget () in
  { sim; r1; rz; routing = [ (0, Routing.compute g 0) ] }

(* (label, r1's default port, r1's ranked alternatives, expected lines) *)
let audit_rows =
  let at port reason =
    Printf.sprintf "dangling FIB port at node 0 for 10.0.0.0/24 (port %d): %s" port reason
  in
  [
    ("clean", 0, [ 1 ], []);
    ("default out of range", 999, [], [ at 999 "default port out of range" ]);
    ("alt out of range", 0, [ 1; 999 ], [ at 999 "alt[1] port out of range" ]);
    ( "default host outside",
      2,
      [],
      [ at 2 "default local port's host lies outside the prefix" ] );
    ("alt host outside", 0, [ 2 ], [ at 2 "alt[0] local port's host lies outside the prefix" ]);
    ("default local to router", 3, [], [ at 3 "default local port wired to a router" ]);
    ("alt local to router", 0, [ 1; 1; 3 ], [ at 3 "alt[2] local port wired to a router" ]);
    ("default peer AS", 4, [], [ at 4 "default eBGP port's peer AS mismatches the wiring" ]);
    ( "alt peer AS",
      0,
      [ 1; 1; 1; 4 ],
      [ at 4 "alt[3] eBGP port's peer AS mismatches the wiring" ] );
    ("default eBGP to host", 5, [], [ at 5 "default eBGP port wired to a host" ]);
    ("alt eBGP to host", 0, [ 5 ], [ at 5 "alt[0] eBGP port wired to a host" ]);
    ("default unbacked", 6, [], [ at 6 "default eBGP port not backed by a RIB route via AS 1" ]);
    ("alt unbacked", 0, [ 1; 6 ], [ at 6 "alt[1] eBGP port not backed by a RIB route via AS 1" ]);
    ("default iBGP misrouted", 7, [], [ at 7 "default iBGP port wired to a different router" ]);
    ("alt iBGP misrouted", 0, [ 7 ], [ at 7 "alt[0] iBGP port wired to a different router" ]);
    ("default iBGP into AS 3", 8, [], [ at 8 "default iBGP session crosses an AS boundary" ]);
    ("alt iBGP into AS 3", 0, [ 1; 8 ], [ at 8 "alt[1] iBGP session crosses an AS boundary" ]);
    ( "default endpoint unrouted",
      9,
      [],
      [ at 9 "default tunnel endpoint has no route for the prefix" ] );
    ( "alt endpoint unrouted",
      0,
      [ 1; 1; 9 ],
      [ at 9 "alt[2] tunnel endpoint has no route for the prefix" ] );
    ("default iBGP to host", 10, [], [ at 10 "default iBGP port wired to a host" ]);
    ("alt iBGP to host", 0, [ 1; 1; 1; 10 ], [ at 10 "alt[3] iBGP port wired to a host" ]);
    ( "every slot at once",
      999,
      [ 3; 5; 7; 10 ],
      [
        at 999 "default port out of range";
        at 3 "alt[0] local port wired to a router";
        at 5 "alt[1] eBGP port wired to a host";
        at 7 "alt[2] iBGP port wired to a different router";
        at 10 "alt[3] iBGP port wired to a host";
      ] );
  ]

let test_network_audit_verdicts () =
  List.iter
    (fun (label, out_port, alts, expected) ->
      let fx = audit_fixture () in
      let fib = Packetsim.fib fx.sim fx.r1 in
      Fib.insert fib (Prefix.of_as 0) ~out_port ();
      set_alts fib (Fib.find fib (Prefix.of_as 0)) alts;
      let violations, checked = Net_check.audit_fibs fx.sim ~routing:fx.routing in
      Alcotest.(check (list string)) label expected
        (List.map Report.violation_to_string violations);
      Alcotest.(check int) (label ^ ": entries checked") 2 checked)
    audit_rows;
  (* Order across entries and routers: router by router, and within a
     FIB in insertion order; an unrouted prefix (10.0.3.0/24) skips the
     RIB-backing check only. *)
  let fx = audit_fixture () in
  let fib = Packetsim.fib fx.sim fx.r1 in
  Fib.insert fib (Prefix.of_as 0) ~out_port:6 ~alt_port:8 ();
  Fib.insert fib (Prefix.of_as 3) ~out_port:6 ~alt_port:0 ();
  Fib.insert (Packetsim.fib fx.sim fx.rz) (Prefix.of_as 0) ~out_port:7 ();
  let violations, checked = Net_check.audit_fibs fx.sim ~routing:fx.routing in
  Alcotest.(check (list string)) "two entries, two routers"
    [
      "dangling FIB port at node 0 for 10.0.0.0/24 (port 6): default eBGP port not backed \
       by a RIB route via AS 1";
      "dangling FIB port at node 0 for 10.0.0.0/24 (port 8): alt[0] iBGP session crosses \
       an AS boundary";
      "dangling FIB port at node 0 for 10.0.3.0/24 (port 0): alt[0] local port's host lies \
       outside the prefix";
      "dangling FIB port at node 5 for 10.0.0.0/24 (port 7): default port out of range";
    ]
    (List.map Report.violation_to_string violations);
  Alcotest.(check int) "two entries, two routers: entries checked" 3 checked

(* The audit against its reference ([Mifo_oracle.Fib_audit_ref]) on
   random router-level networks: a 40-AS generated topology with a few
   ASes split into border routers (so iBGP ports are audited too), hosts
   at random ASes, then random FIB corruptions — ranked sets of random
   ports, some out of range or negative, and retargeted defaults.  The
   routing list repeats one destination under another's routing state,
   so the first-match lookup of an eBGP port's destination is exercised
   as well. *)
let prop_audit_matches_reference =
  QCheck2.Test.make ~name:"net_check: audit_fibs matches the reference audit" ~count:40
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (topo_seed, seed) ->
      let g =
        (Generator.generate
           ~params:
             { Generator.default_params with Generator.ases = 40; tier1 = 3;
               content_providers = 2; content_peer_span = (3, 8) }
           ~seed:topo_seed ())
          .Generator.graph
      in
      let n = As_graph.n g in
      let rng = Mifo_util.Prng.create ~seed () in
      let pick () = Mifo_util.Prng.int rng n in
      let expansion =
        Mifo_topology.Router_level.expand ~links_per_router:2 ~max_routers:4 ~seed g
          ~expand:[ pick (); pick (); pick () ]
      in
      let table = Routing_table.create g in
      let hosts = List.sort_uniq Int.compare [ pick (); pick (); pick (); pick () ] in
      let deployment = Deployment.fraction ~n ~ratio:0.7 ~seed in
      let net = As_network.build ~expansion table ~deployment ~hosts () in
      let sim = net.As_network.sim in
      let routing = List.map (fun d -> (d, Routing_table.get table d)) hosts in
      let routing = routing @ [ (List.hd hosts, Routing_table.get table (pick ())) ] in
      let routers = Mifo_topology.Router_level.router_count expansion in
      for _ = 1 to 12 do
        let r = Mifo_util.Prng.int rng routers in
        let fib = Packetsim.fib sim r in
        let prefix = Prefix.of_as (List.nth hosts (Mifo_util.Prng.int rng (List.length hosts))) in
        let port () = Mifo_util.Prng.int_in rng (-2) (Packetsim.port_count sim r + 2) in
        match Fib.find fib prefix with
        | -1 -> ()
        | entry ->
          if Mifo_util.Prng.bool rng then
            set_alts fib entry (List.init (Mifo_util.Prng.int rng 5) (fun _ -> port ()))
          else Fib.insert fib prefix ~out_port:(max 0 (port ())) ()
      done;
      Net_check.audit_fibs sim ~routing = Mifo_oracle.Fib_audit_ref.audit_fibs sim ~routing)

(* The allocation gates' fixture: a clean 2,000-AS network with 8 host
   prefixes, one router per AS (16,000 FIB entries), every AS
   MIFO-capable so each entry carries a slot-0 alternative.  Gates
   measure a second, warmed run with [Gc.minor_words] —
   [Gc.quick_stat]'s minor count only advances at collections. *)
let alloc_fixture =
  lazy
    (let g = (Generator.generate ~seed:42 ()).Generator.graph in
     let n = As_graph.n g in
     let table = Routing_table.create g in
     let hosts = [ 3; 250; 511; 777; 1_024; 1_300; 1_666; 1_999 ] in
     let net = As_network.build table ~deployment:(Deployment.full ~n) ~hosts () in
     let routing = List.map (fun d -> (d, Routing_table.get table d)) hosts in
     (n, net.As_network.sim, routing))

(* Minor words [f ()] allocates on its second run. *)
let minor_words_warm f =
  ignore (f ());
  let before = Gc.minor_words () in
  let r = f () in
  (Gc.minor_words () -. before, r)

(* The audit allocates nothing per FIB entry: [Fib.iter] hands it an
   int handle, and strings, closures and destination lookups wait for a
   violation.  A whole audit stays under 1,000 words. *)
let test_audit_allocation_gate () =
  let n, sim, routing = Lazy.force alloc_fixture in
  let words, (violations, checked) =
    minor_words_warm (fun () -> Net_check.audit_fibs sim ~routing)
  in
  Alcotest.(check int) "clean" 0 (List.length violations);
  Alcotest.(check int) "every router's 8 entries" (8 * n) checked;
  if words > 1_000. then
    Alcotest.failf "audit_fibs allocated %.0f minor words over %d entries (budget 1,000)" words
      checked

(* Iterating a FIB hands out int handles: a no-op walk over every
   router's table allocates nothing per entry. *)
let test_fib_iter_allocation_gate () =
  let n, sim, _ = Lazy.force alloc_fixture in
  let count = ref 0 in
  let visit _ = incr count in
  let words, () =
    minor_words_warm (fun () ->
        count := 0;
        for r = 0 to n - 1 do
          Fib.iter (Packetsim.fib sim r) visit
        done)
  in
  Alcotest.(check int) "every router's 8 entries" (8 * n) !count;
  if words >= 1_000. then
    Alcotest.failf "Fib.iter allocated %.0f minor words over %d entries (budget < 1,000)" words
      !count

(* A daemon epoch writes each entry's ranked set through a buffer it
   owns: one [Daemon.epoch_ranked] per router with the chooser that
   keeps slot 0 allocates at most 3 words per entry.  [Obs.observe]
   adds its histogram sums unboxed, so what remains is per router (the
   two buffers and the entry closure): 38,000 words measured, 59,530
   with a float ref for the least slot utilization, 102,590 with a
   boxing CAS for the sums. *)
let test_daemon_epoch_allocation_gate () =
  let n, sim, _ = Lazy.force alloc_fixture in
  let keep_slot0 fib e buf =
    buf.(0) <- Fib.alt_at fib e 0;
    1
  in
  let port_utilization p = if p land 1 = 0 then 0.25 else 0.5 in
  let words, () =
    minor_words_warm (fun () ->
        for r = 0 to n - 1 do
          Mifo_core.Daemon.epoch_ranked ~fib:(Packetsim.fib sim r) ~port_utilization
            ~choose_alts:keep_slot0 ()
        done)
  in
  let entries = 8 * n in
  let budget = 3. *. float_of_int entries in
  if words > budget then
    Alcotest.failf "daemon epochs allocated %.0f minor words over %d entries (budget %.0f)" words
      entries budget

let test_network_ebgp_tunnel_egress () =
  (* AS 1: r1 tunnels its deflections to border router r3, but the only
     physical path crosses r2 — which has NO iBGP route to r3 and whose
     FIB fallback for the destination is an eBGP port.  An encapsulated
     packet could leave the AS mid-tunnel: the verifier must flag it. *)
  let sim = Packetsim.create () in
  let h1 = Packetsim.add_host sim ~addr:(Prefix.host_of_as 1 1) in
  let h2 = Packetsim.add_host sim ~addr:(Prefix.host_of_as 2 1) in
  let r1 = Packetsim.add_router sim ~as_id:1 in
  let r2 = Packetsim.add_router sim ~as_id:1 in
  let r3 = Packetsim.add_router sim ~as_id:1 in
  let rx = Packetsim.add_router sim ~as_id:2 in
  let rate = 1e9 in
  let _, r1h = Packetsim.connect sim ~a:h1 ~b:r1 ~kind_ab:Engine.Local ~kind_ba:Engine.Local ~rate () in
  let _, rxh = Packetsim.connect sim ~a:h2 ~b:rx ~kind_ab:Engine.Local ~kind_ba:Engine.Local ~rate () in
  (* r1 sees iBGP peer r3 through the port toward r2; r2's own end of
     that wire only peers back to r1, so r2 cannot route the tunnel on *)
  let r1_r2, r2_r1 =
    Packetsim.connect sim ~a:r1 ~b:r2
      ~kind_ab:(Engine.Ibgp { peer_router = r3 })
      ~kind_ba:(Engine.Ibgp { peer_router = r1 })
      ~rate ()
  in
  let r1_rx, _ =
    Packetsim.connect sim ~a:r1 ~b:rx
      ~kind_ab:(Engine.Ebgp { neighbor_as = 2; rel = Relationship.Customer })
      ~kind_ba:(Engine.Ebgp { neighbor_as = 1; rel = Relationship.Provider })
      ~rate ()
  in
  let r2_rx, _ =
    Packetsim.connect sim ~a:r2 ~b:rx
      ~kind_ab:(Engine.Ebgp { neighbor_as = 2; rel = Relationship.Customer })
      ~kind_ba:(Engine.Ebgp { neighbor_as = 1; rel = Relationship.Provider })
      ~rate ()
  in
  ignore r3;
  ignore r2_r1;
  ignore r1h;
  let dst = Prefix.of_as 2 in
  Fib.insert (Packetsim.fib sim r1) dst ~out_port:r1_rx ~alt_port:r1_r2 ();
  Fib.insert (Packetsim.fib sim r2) dst ~out_port:r2_rx ();
  Fib.insert (Packetsim.fib sim rx) dst ~out_port:rxh ();
  let g = Generator.fig2a_gadget () in
  let routing = [ (2, Routing.compute g 2) ] in
  let violations, _ = Net_check.find_loops sim ~routing in
  match
    List.find_opt
      (function Report.Ebgp_tunnel_egress _ -> true | _ -> false)
      violations
  with
  | Some (Report.Ebgp_tunnel_egress { node; endpoint; port; _ }) ->
    Alcotest.(check int) "flagged mid-tunnel at r2" r2 node;
    Alcotest.(check int) "tunnel endpoint" r3 endpoint;
    Alcotest.(check int) "the leaking eBGP port" r2_rx port
  | _ -> Alcotest.fail "expected an eBGP-tunnel-egress violation"

(* ---------- the property suite ---------- *)

let all_props = Props.all

(* The black-hole gadget: every property clean when healthy; failing
   the default-tree link 2-0 strands AS 2 (single-route node, so it is
   unprotectable and its packets die at the cut), and every static
   counterexample must replay [Dropped] through the dynamic walker. *)
let test_black_hole_gadget () =
  let g = Generator.black_hole_gadget () in
  let table = Routing_table.create g in
  let dests = [ 0; 1; 2; 3 ] in
  let healthy = Verifier.verify_props ~props:all_props g ~table ~dests in
  Alcotest.(check bool) "healthy gadget: all properties clean" true (Report.ok healthy);
  let rt = Routing_table.get table 0 in
  let broken = Props.verify_dest ~props:[ Props.Delivery ] ~fail_link:(2, 0) g rt in
  Alcotest.(check bool) "failed link 2-0: delivery violated" false (Report.ok broken);
  Alcotest.(check bool) "every violation is a black hole" true
    (broken.Report.violations <> []
    && List.for_all
         (function Report.Black_hole _ -> true | _ -> false)
         broken.Report.violations);
  Alcotest.(check bool) "AS 2 is stranded toward 0" true
    (List.exists
       (function Report.Black_hole { at = 2; dest = 0; _ } -> true | _ -> false)
       broken.Report.violations);
  Alcotest.(check bool) "stats count the stranded states" true
    (broken.Report.stats.Report.stranded_states > 0);
  List.iter
    (function
      | Report.Black_hole { path; moves; failed_link; _ } -> (
        match Props.replay_stranded g rt ~path ~moves ~failed_link with
        | Loop_walk.Dropped _ -> ()
        | _ -> Alcotest.fail "black-hole counterexample did not strand dynamically")
      | _ -> ())
    broken.Report.violations

(* The stretch gadget: the bounce 2 -> 1 -> 2 -> 3 -> 0 is deliverable
   at length 4 against a default of 2, so the gadget is clean at the
   default bound (and reports max stretch 2) but must fail at bound 1,
   with worst paths that replay [Delivered] at exactly the claimed
   length. *)
let test_stretch_gadget () =
  let g = Generator.stretch_gadget () in
  let table = Routing_table.create g in
  let dests = [ 0; 1; 2; 3 ] in
  let healthy = Verifier.verify_props ~props:all_props g ~table ~dests in
  Alcotest.(check bool) "healthy gadget: clean at the default bound" true
    (Report.ok healthy);
  let rt = Routing_table.get table 0 in
  let relaxed = Props.verify_dest ~props:[ Props.Stretch ] g rt in
  Alcotest.(check bool) "clean at the default bound toward 0" true (Report.ok relaxed);
  Alcotest.(check int) "worst stretch toward 0 is 2" 2
    relaxed.Report.stats.Report.max_stretch;
  let tight = Props.verify_dest ~props:[ Props.Stretch ] ~stretch_bound:1 g rt in
  Alcotest.(check bool) "bound 1: stretch violated" false (Report.ok tight);
  Alcotest.(check bool) "every violation is a stretch excess" true
    (tight.Report.violations <> []
    && List.for_all
         (function Report.Stretch_exceeded _ -> true | _ -> false)
         tight.Report.violations);
  Alcotest.(check bool) "the source of the bounce is reported" true
    (List.exists
       (function
         | Report.Stretch_exceeded { src = 2; default_len = 2; actual_len = 4; _ } ->
           true
         | _ -> false)
       tight.Report.violations);
  List.iter
    (function
      | Report.Stretch_exceeded { path; moves; actual_len; _ } -> (
        match Props.replay_stretch g rt ~path ~moves with
        | Loop_walk.Delivered p ->
          Alcotest.(check int) "replay delivers at the claimed length" actual_len
            (List.length p - 1)
        | _ -> Alcotest.fail "stretch counterexample did not deliver dynamically")
      | _ -> ())
    tight.Report.violations

(* JSON serialisation of the three new violation classes and the new
   coverage counters. *)
let test_props_report_json () =
  let mv = { Automaton.at = 1; tag = true; via = 2; slot = 1; deflected = true } in
  let vs =
    [
      Report.Black_hole
        { dest = 0; at = 2; path = [ 1; 2 ]; moves = [ mv ]; failed_link = Some (2, 0) };
      Report.Stretch_exceeded
        {
          dest = 0;
          src = 2;
          default_len = 2;
          actual_len = 4;
          bound = 1;
          path = [ 2; 1; 2; 3; 0 ];
          moves = [ mv ];
        };
      Report.Failure_loop
        { dest = 0; failed_link = (3, 4); entry = [ 5 ]; cycle = [ 3; 4; 3 ] };
    ]
  in
  Alcotest.(check (list string))
    "kind discriminators"
    [ "black-hole"; "stretch"; "failure-loop" ]
    (List.map Report.kind_of vs);
  let r =
    {
      Report.violations = vs;
      stats =
        {
          Report.empty_stats with
          Report.delivery_states = 3;
          stranded_states = 1;
          stretch_states = 2;
          max_stretch = 4;
          failed_links = 5;
          unprotectable_links = 1;
          resilience_full_checks = 2;
        };
    }
  in
  let j = Json.parse (Report.to_json_string r) in
  Alcotest.(check bool) "not ok" true (Json.member "ok" j = Some (Json.Bool false));
  (match Json.member "violations" j with
   | Some (Json.Arr [ a; b; c ]) ->
     List.iter2
       (fun kind v ->
         Alcotest.(check bool) (kind ^ " kind field") true
           (Json.member "kind" v = Some (Json.Str kind)))
       [ "black-hole"; "stretch"; "failure-loop" ]
       [ a; b; c ]
   | _ -> Alcotest.fail "expected three serialised violations");
  (match Json.member "stats" j with
   | Some stats ->
     List.iter
       (fun (field, v) ->
         Alcotest.(check bool) field true (Json.member field stats = Some (Json.Num v)))
       [
         ("delivery_states", 3.);
         ("stranded_states", 1.);
         ("stretch_states", 2.);
         ("max_stretch", 4.);
         ("failed_links", 5.);
         ("unprotectable_links", 1.);
         ("resilience_full_checks", 2.);
       ]
   | None -> Alcotest.fail "missing stats");
  (* merged coverage: counters sum, the worst stretch is a max *)
  let other =
    {
      Report.violations = [];
      stats = { Report.empty_stats with Report.max_stretch = 9; failed_links = 1 };
    }
  in
  let m = Report.merge [ r; other ] in
  Alcotest.(check int) "merge: max_stretch is a max" 9 m.Report.stats.Report.max_stretch;
  Alcotest.(check int) "merge: failed_links sum" 6 m.Report.stats.Report.failed_links

(* Static delivery verdict vs dynamic stranding under random failed
   default-tree links.  Every static black hole must replay [Dropped];
   and when the static check is clean, no adversarial walk restricted to
   the surviving FIB (the withdrawal model: no deflection onto a route
   through the failed node, none across the failed link) can strand or
   loop a packet.  The overlay must also never introduce a loop — the
   withdrawal model provably preserves loop-freedom. *)
let prop_delivery_matches_stranding =
  let topo =
    lazy
      (Generator.generate
         ~params:{ Generator.default_params with Generator.ases = 120; tier1 = 4;
                   content_providers = 2; content_peer_span = (3, 8) }
         ~seed:11 ())
  in
  QCheck2.Test.make
    ~name:"static delivery verdict agrees with dynamic stranding" ~count:60
    QCheck2.Gen.(
      quad (int_bound 119) (int_bound 119) (int_bound 119) (int_bound 1_000_000))
    (fun (dst, u, src, salt) ->
      QCheck2.assume (dst <> u && dst <> src);
      let t = Lazy.force topo in
      let g = t.Generator.graph in
      let rt = Routing.compute g dst in
      QCheck2.assume (Routing.reachable rt u && Routing.reachable rt src);
      match Routing.next_hop rt u with
      | None -> false (* a reachable non-destination always has a next hop *)
      | Some v ->
        let r =
          Props.verify_dest ~props:[ Props.Loops; Props.Delivery ] ~fail_link:(u, v) g
            rt
        in
        let no_loop =
          List.for_all
            (function Report.Forwarding_loop _ -> false | _ -> true)
            r.Report.violations
        in
        let strandings =
          List.filter_map
            (function
              | Report.Black_hole { path; moves; failed_link; _ } ->
                Some (path, moves, failed_link)
              | _ -> None)
            r.Report.violations
        in
        let replays_strand =
          List.for_all
            (fun (path, moves, failed_link) ->
              match Props.replay_stranded g rt ~path ~moves ~failed_link with
              | Loop_walk.Dropped _ -> true
              | _ -> false)
            strandings
        in
        (* [x] sits in [u]'s default subtree — routes via [x] are
           withdrawn by the failure, exactly {!Automaton.fail_link}. *)
        let withdrawn x =
          let rec go x =
            x = u
            || (x <> dst
               && match Routing.next_hop rt x with Some y -> go y | None -> false)
          in
          go x
        in
        let link_up a b = not ((a = u && b = v) || (a = v && b = u)) in
        let decide ~as_id ~upstream ~entries =
          match entries with
          | [] | [ _ ] -> Loop_walk.Default
          | _ :: alternatives ->
            (* the strategy plays only moves the data plane offers: the
               deflection must survive the withdrawal, its link must be
               up, and it must pass the Tag-Check (the walker drops
               inadmissible deflections as [Valley] — not a black
               hole) *)
            let upstream_rel =
              Option.map (fun up -> As_graph.rel_exn g as_id up) upstream
            in
            let pool =
              List.filter
                (fun (e : Routing.rib_entry) ->
                  (not (withdrawn e.Routing.via))
                  && link_up as_id e.Routing.via
                  && Policy.deflection_allowed ~upstream:upstream_rel
                       ~downstream:e.Routing.rel)
                alternatives
            in
            let c = Hashtbl.hash (as_id, salt) mod (List.length pool + 1) in
            if c = 0 then Loop_walk.Default
            else Loop_walk.Deflect (List.nth pool (c - 1)).Routing.via
        in
        let dynamic_consistent =
          strandings <> []
          ||
          match Loop_walk.walk ~link_up g rt ~decide ~src with
          | Loop_walk.Delivered _ -> true
          | Loop_walk.Dropped _ | Loop_walk.Looped _ -> false
        in
        no_loop && replays_strand && dynamic_consistent)

(* The parallel fan-out must be bit-identical to the serial run: the
   same JSON byte-for-byte with the shared pool at 1 job and at 4. *)
let prop_parallel_matches_serial =
  let fixture =
    lazy
      (let topo =
         Generator.generate
           ~params:{ Generator.default_params with Generator.ases = 120; tier1 = 4;
                     content_providers = 2; content_peer_span = (3, 8) }
           ~seed:13 ()
       in
       let g = topo.Generator.graph in
       (g, Routing_table.create g))
  in
  QCheck2.Test.make
    ~name:"parallel property report is bit-identical to serial (4 jobs)" ~count:8
    QCheck2.Gen.(pair (int_bound 1_000_000) (list_size (int_range 1 6) (int_bound 119)))
    (fun (seed, dests) ->
      let g, table = Lazy.force fixture in
      let dests = List.sort_uniq Int.compare dests in
      let run jobs =
        Jobs.with_jobs jobs (fun () ->
            Verifier.verify_props ~fail_links:4 ~seed ~props:all_props g ~table ~dests)
      in
      Report.to_json_string (run 1) = Report.to_json_string (run 4))

(* The resilience sweep's certificates vs N independent full checks:
   per failed link, the sweep's verdict (loop? how many strandings?)
   must equal a full loop + delivery check under the same overlay, and
   the sweep must cover exactly the protectable default-tree links plus
   the unprotectable ones it counts. *)
let prop_resilience_matches_full =
  let topo =
    lazy
      (Generator.generate
         ~params:{ Generator.default_params with Generator.ases = 60; tier1 = 3;
                   content_providers = 2; content_peer_span = (3, 6) }
         ~seed:17 ())
  in
  QCheck2.Test.make ~name:"resilience sweep agrees with independent full checks"
    ~count:20
    QCheck2.Gen.(int_bound 59)
    (fun dst ->
      let t = Lazy.force topo in
      let g = t.Generator.graph in
      let rt = Routing.compute g dst in
      let sweep = Props.verify_dest ~props:[ Props.Loops; Props.Resilience ] g rt in
      let ok =
        ref
          (List.for_all
             (function Report.Forwarding_loop _ -> false | _ -> true)
             sweep.Report.violations)
      in
      let n = As_graph.n g in
      let protectable = ref 0 in
      for u = 0 to n - 1 do
        if u <> dst && Routing.reachable rt u && Routing.rib_size rt u >= 2 then begin
          match Routing.next_hop rt u with
          | None -> ()
          | Some v ->
            incr protectable;
            let full =
              Props.verify_dest ~props:[ Props.Loops; Props.Delivery ]
                ~fail_link:(u, v) g rt
            in
            let count p l = List.length (List.filter p l) in
            let full_loop =
              List.exists
                (function Report.Forwarding_loop _ -> true | _ -> false)
                full.Report.violations
            in
            let full_stranded =
              count
                (function Report.Black_hole _ -> true | _ -> false)
                full.Report.violations
            in
            let sweep_loop =
              List.exists
                (function
                  | Report.Failure_loop { failed_link = (a, b); _ } -> a = u && b = v
                  | _ -> false)
                sweep.Report.violations
            in
            let sweep_stranded =
              count
                (function
                  | Report.Black_hole { failed_link = Some (a, b); _ } ->
                    a = u && b = v
                  | _ -> false)
                sweep.Report.violations
            in
            if full_loop <> sweep_loop || full_stranded <> sweep_stranded then
              ok := false
        end
      done;
      !ok
      && sweep.Report.stats.Report.failed_links
         = !protectable + sweep.Report.stats.Report.unprotectable_links)

(* The one-pass suite against the multi-pass reference
   ([Mifo_oracle.Props_ref]): byte-identical JSON under every
   configuration the CLI can ask for — Tag-Check on and off, k in
   {none, 1, 2}, with and without a failed default-tree link, stretch
   bound 1 and 16 — so loop, stranding and stretch counterexamples are
   all compared. *)
let props_configs =
  List.concat_map
    (fun tag_check ->
      List.concat_map
        (fun k ->
          List.concat_map
            (fun failed -> List.map (fun bound -> (tag_check, k, failed, bound)) [ 1; 16 ])
            [ false; true ])
        [ None; Some 1; Some 2 ])
    [ true; false ]

(* [None] when the configurations agree, else the first that does not. *)
let props_disagreement ~props ~fail g rt =
  List.find_map
    (fun (tag_check, k, failed, stretch_bound) ->
      let fail_link = if failed then fail else None in
      let prod =
        Report.to_json_string
          (Props.verify_dest ~tag_check ?k ~stretch_bound ?fail_link ~props g rt)
      in
      let reference =
        Report.to_json_string
          (Mifo_oracle.Props_ref.verify_dest ~tag_check ?k ~stretch_bound ?fail_link ~props g
             rt)
      in
      if String.equal prod reference then None
      else
        Some
          (Printf.sprintf "dest %d tag_check %b k %s failed %b bound %d:\n  %s\n  %s"
             (Routing.dest rt) tag_check
             (match k with None -> "none" | Some k -> string_of_int k)
             failed stretch_bound prod reference))
    props_configs

(* A failed default-tree link [(u, next_hop u)], [u] picked by [pick]. *)
let pick_fail_link rt n pick =
  let dest = Routing.dest rt in
  let us = List.filter (fun u -> u <> dest && Routing.reachable rt u) (List.init n Fun.id) in
  match us with
  | [] -> None
  | _ ->
    let u = List.nth us (pick mod List.length us) in
    Option.map (fun v -> (u, v)) (Routing.next_hop rt u)

let prop_props_match_reference =
  let all_subsets =
    List.init 15 (fun m ->
        List.filteri (fun i _ -> (m + 1) land (1 lsl i) <> 0) Props.all)
  in
  QCheck2.Test.make ~name:"props: verify_dest matches the multi-pass reference" ~count:120
    QCheck2.Gen.(
      quad (int_range 8 40) (int_bound 1_000_000) (pair (int_bound 1_000) (int_bound 1_000))
        (int_bound 14))
    (fun (ases, seed, (dpick, fpick), subset) ->
      let params =
        { Generator.default_params with Generator.ases; tier1 = 3; transit_levels = 2;
          content_providers = 1; content_peer_span = (1, 3) }
      in
      let g = (Generator.generate ~params ~seed ()).Generator.graph in
      let n = As_graph.n g in
      let rt = Routing.compute g (dpick mod n) in
      let props = List.nth all_subsets subset in
      match props_disagreement ~props ~fail:(pick_fail_link rt n fpick) g rt with
      | None -> true
      | Some msg -> QCheck2.Test.fail_report msg)

(* The same comparison, exhaustive on the four gadgets: every
   destination, every failed default-tree link, the whole suite. *)
let test_props_reference_gadgets () =
  List.iter
    (fun g ->
      let n = As_graph.n g in
      for d = 0 to n - 1 do
        let rt = Routing.compute g d in
        for pick = 0 to n - 1 do
          match props_disagreement ~props:Props.all ~fail:(pick_fail_link rt n pick) g rt with
          | None -> ()
          | Some msg -> Alcotest.fail msg
        done
      done)
    [
      Generator.fig2a_gadget ();
      Generator.k2_gadget ();
      Generator.black_hole_gadget ();
      Generator.stretch_gadget ();
    ]

(* The suite allocates its scratch, the violations and a constant per
   failed link (the overlay and the automaton record), nothing per edge:
   one warmed [Props.verify_dest] over every property toward a clean
   destination of a generated 2,000-AS topology, whose resilience sweep
   covers 1,999 links.  Budget 56 words per link + 8,000; measured
   102,366.  A [move] built per edge reads 503,904, a list stack in
   [Automaton.co_reach] 151,347.  The scratch arrays are larger than 256
   words, so they skip the minor heap and [Gc.minor_words] does not see
   them. *)
let test_props_allocation_gate () =
  let g = (Generator.generate ~seed:42 ()).Generator.graph in
  let rt = Routing.compute g 250 in
  let words, r = minor_words_warm (fun () -> Props.verify_dest ~props:Props.all g rt) in
  Alcotest.(check bool) "clean" true (Report.ok r);
  let links = r.Report.stats.Report.failed_links in
  let budget = (56 * links) + 8_000 in
  if words > float_of_int budget then
    Alcotest.failf "verify_dest allocated %.0f minor words over %d failed links (budget %d)"
      words links budget

(* The whole suite at scale, pinned: the JSON of every property over a
   generated 2,000-AS topology, 4 destinations and a 16-link resilience
   sample: healthy, at stretch bound 1 (so the stretch counterexamples
   and their worst paths are in the digest too) and with the Tag-Check
   off (loop counterexamples). *)
let test_props_digest_2000 () =
  let g = (Generator.generate ~seed:42 ()).Generator.graph in
  let table = Routing_table.create g in
  let dests = [ 3; 250; 1_024; 1_999 ] in
  let digest ?tag_check ?stretch_bound () =
    Report.to_json_string
      (Verifier.verify_props ?tag_check ?stretch_bound ~fail_links:16 ~seed:42
         ~props:Props.all g ~table ~dests)
    |> Digest.string |> Digest.to_hex
  in
  Alcotest.(check string) "default bound" "0fff1d82b6c3eeee3369282413a0b954" (digest ());
  Alcotest.(check string) "stretch bound 1" "9dcf26ef59d1ebba6c95745966c97099"
    (digest ~stretch_bound:1 ());
  Alcotest.(check string) "tag-check off" "5b84c00f3eb9b1bc46cd375bd6129233"
    (digest ~tag_check:false ())

(* [Props.parse_props] answers [Error _] on anything it cannot read —
   it never raises — and an [Ok] list is nonempty and duplicate-free. *)
let prop_parse_props_fuzz =
  QCheck2.Test.make ~name:"parse_props: garbage is an Error, never an exception"
    ~count:2000 ~print:(Printf.sprintf "%S")
    (Parser_fuzz.gen ~alphabet:"loopsdelivrychtan, LD_-"
       ~samples:[ "loops,delivery,stretch,resilience"; "loops"; "stretch,loops,stretch" ])
    (fun s ->
      match Props.parse_props s with
      | Ok props -> props <> [] && List.length (List.sort_uniq compare props) = List.length props
      | Error _ -> true
      | exception e -> QCheck2.Test.fail_reportf "raised %s" (Printexc.to_string e))

let () =
  Alcotest.run "mifo_analysis"
    [
      ( "as_check",
        [
          Alcotest.test_case "gadget loop-free with the check" `Quick
            test_gadget_loop_free_with_check;
          Alcotest.test_case "gadget counterexample + replay without it" `Quick
            test_gadget_counterexample_without_check;
          Alcotest.test_case "gadget paths valley-free" `Quick test_gadget_paths_valley_free;
          Alcotest.test_case "generated topology: on clean, off loops" `Quick
            test_verify_as_level_generated;
          QCheck_alcotest.to_alcotest prop_static_matches_dynamic;
          Alcotest.test_case "k2 gadget: clean at k=1, loops at k=2" `Quick
            test_k2_gadget;
          Alcotest.test_case "one (AS, tag) state space at every k" `Quick test_k_states;
          QCheck_alcotest.to_alcotest prop_ranked_static_matches_dynamic;
        ] );
      ( "report",
        [
          Alcotest.test_case "JSON round-trip" `Quick test_report_json;
          Alcotest.test_case "property-suite violations round-trip" `Quick
            test_props_report_json;
        ] );
      ( "props",
        [
          Alcotest.test_case "black-hole gadget: clean healthy, strands cut"
            `Quick test_black_hole_gadget;
          Alcotest.test_case "stretch gadget: clean at default bound, fails at 1"
            `Quick test_stretch_gadget;
          QCheck_alcotest.to_alcotest prop_delivery_matches_stranding;
          QCheck_alcotest.to_alcotest prop_parallel_matches_serial;
          QCheck_alcotest.to_alcotest prop_resilience_matches_full;
          QCheck_alcotest.to_alcotest prop_parse_props_fuzz;
          Alcotest.test_case "2,000 ASes: the full suite's JSON is pinned" `Quick
            test_props_digest_2000;
          QCheck_alcotest.to_alcotest prop_props_match_reference;
          Alcotest.test_case "allocation gate: the suite allocates nothing per edge" `Quick
            test_props_allocation_gate;
          Alcotest.test_case "the four gadgets match the multi-pass reference" `Quick
            test_props_reference_gadgets;
        ] );
      ( "net_check",
        [
          Alcotest.test_case "gadget network clean" `Quick test_network_gadget_clean;
          Alcotest.test_case "tag-check off: router-level loop" `Quick
            test_network_gadget_tag_check_off_loops;
          Alcotest.test_case "dangling alternative port" `Quick test_network_dangling_alt_port;
          Alcotest.test_case "audit verdicts: every reason and role" `Quick
            test_network_audit_verdicts;
          QCheck_alcotest.to_alcotest prop_audit_matches_reference;
          Alcotest.test_case "allocation gate: audit allocates per entry only its handle"
            `Quick test_audit_allocation_gate;
          Alcotest.test_case "allocation gate: Fib.iter allocates nothing per entry" `Quick
            test_fib_iter_allocation_gate;
          Alcotest.test_case "allocation gate: a daemon epoch allocates <= 3 words per entry"
            `Quick test_daemon_epoch_allocation_gate;
          Alcotest.test_case "eBGP egress mid-tunnel" `Quick test_network_ebgp_tunnel_egress;
          Alcotest.test_case "router-level diamond: IP-in-IP stops iBGP cycling" `Quick
            test_network_ibgp_encap;
        ] );
    ]
