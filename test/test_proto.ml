(* Tests for the event-driven BGP protocol simulator, the Patricia-trie
   LPM, and the RIB's BGP loop filter. *)

module As_graph = Mifo_topology.As_graph
module Generator = Mifo_topology.Generator
module Routing = Mifo_bgp.Routing
module Bgp_proto = Mifo_bgp.Bgp_proto
module Lpm_trie = Mifo_oracle.Lpm_trie
module Prefix = Mifo_bgp.Prefix

(* ---------- Bgp_proto ---------- *)

let small_topo =
  lazy
    (Generator.generate
       ~params:
         {
           Generator.default_params with
           Generator.ases = 250;
           tier1 = 5;
           content_providers = 3;
           content_peer_span = (3, 8);
         }
       ~seed:13 ())

let test_proto_converges () =
  let g = (Lazy.force small_topo).Generator.graph in
  let proto = Bgp_proto.create g ~origin:0 in
  let handled = Bgp_proto.run proto in
  Alcotest.(check bool) "converged" true (Bgp_proto.converged proto);
  Alcotest.(check bool) "did real work" true (handled > As_graph.n g)

(* The heart of the matter: the message-passing protocol settles on
   exactly the routes the analytic computation predicts. *)
let test_proto_matches_analytic () =
  let g = (Lazy.force small_topo).Generator.graph in
  List.iter
    (fun origin ->
      let proto = Bgp_proto.create g ~origin in
      ignore (Bgp_proto.run proto);
      let rt = Routing.compute g origin in
      for v = 0 to As_graph.n g - 1 do
        if v <> origin then begin
          Alcotest.(check (option int))
            (Printf.sprintf "next hop at %d toward %d" v origin)
            (Routing.next_hop rt v)
            (Bgp_proto.selected_next_hop proto v);
          match Bgp_proto.selected_path proto v with
          | Some path ->
            Alcotest.(check int) "path length" (Routing.best_len rt v) (List.length path - 1);
            Alcotest.(check bool) "path valley-free" true (As_graph.path_is_valley_free g path)
          | None -> Alcotest.fail "no route after convergence"
        end
      done)
    [ 0; 17; 101; 249 ]

let test_proto_adj_rib_matches_rib () =
  (* the protocol's adj-RIB-in must contain exactly the neighbors the
     analytic RIB says export a route (after its loop filter, modulo
     routes the sender suppresses because our own AS is on them) *)
  let g = (Lazy.force small_topo).Generator.graph in
  let origin = 42 in
  let proto = Bgp_proto.create g ~origin in
  ignore (Bgp_proto.run proto);
  let rt = Routing.compute g origin in
  for v = 0 to As_graph.n g - 1 do
    if v <> origin then begin
      let analytic =
        List.map (fun (e : Routing.rib_entry) -> e.via) (Routing.rib rt v)
        |> List.sort compare
      in
      let protocol = List.map fst (Bgp_proto.adj_rib_in proto v) |> List.sort compare in
      Alcotest.(check (list int))
        (Printf.sprintf "RIB neighbors at %d" v)
        analytic protocol
    end
  done

let test_proto_gadget_messages () =
  let g = Generator.fig2a_gadget () in
  let proto = Bgp_proto.create g ~origin:0 in
  let handled = Bgp_proto.run proto in
  (* 0 announces to 3 neighbors; each peer announces the customer route to
     its two peers (rejected or worse), plus selections: a small, finite
     count *)
  Alcotest.(check bool) "handful of messages" true (handled >= 3 && handled < 30);
  Alcotest.(check int) "origin sent 3" 3 (Bgp_proto.announcements_by proto 0)

let test_proto_deterministic () =
  let g = (Lazy.force small_topo).Generator.graph in
  let run () =
    let proto = Bgp_proto.create g ~origin:7 in
    let n = Bgp_proto.run proto in
    (n, Bgp_proto.messages_sent proto)
  in
  Alcotest.(check (pair int int)) "same message trace" (run ()) (run ())

let test_proto_link_failure_reroutes () =
  (* fail a link, let the churn drain, and check the result equals the
     analytic routing on the graph WITHOUT that link *)
  let g = (Lazy.force small_topo).Generator.graph in
  let origin = 3 in
  let proto = Bgp_proto.create g ~origin in
  ignore (Bgp_proto.run proto);
  (* cut the first hop of some AS's default path *)
  let rt = Routing.compute g origin in
  let path = Array.of_list (Routing.default_path rt 200) in
  let u = path.(0) and v = path.(1) in
  Bgp_proto.fail_link proto u v;
  ignore (Bgp_proto.run proto);
  (* rebuild the graph without that link and compare *)
  let edges =
    As_graph.fold_edges g ~init:[] ~f:(fun acc a b kind ->
        if (a = u && b = v) || (a = v && b = u) then acc else (a, b, kind) :: acc)
  in
  let g' = As_graph.create ~n:(As_graph.n g) ~edges in
  let rt' = Routing.compute g' origin in
  for w = 0 to As_graph.n g - 1 do
    if w <> origin then
      Alcotest.(check (option int))
        (Printf.sprintf "post-failure next hop at %d" w)
        (Routing.next_hop rt' w)
        (Bgp_proto.selected_next_hop proto w)
  done;
  (* and restoring the link recovers the original routing *)
  Bgp_proto.restore_link proto u v;
  ignore (Bgp_proto.run proto);
  for w = 0 to As_graph.n g - 1 do
    if w <> origin then
      Alcotest.(check (option int))
        (Printf.sprintf "post-restore next hop at %d" w)
        (Routing.next_hop rt w)
        (Bgp_proto.selected_next_hop proto w)
  done

let test_proto_failure_validation () =
  let g = Generator.fig2a_gadget () in
  let proto = Bgp_proto.create g ~origin:0 in
  ignore (Bgp_proto.run proto);
  Alcotest.(check bool) "non-adjacent pair rejected" true
    (match Bgp_proto.fail_link proto 1 1 with
     | exception Invalid_argument _ -> true
     | _ -> false);
  (* failing a gadget spoke forces the peer route *)
  Bgp_proto.fail_link proto 1 0;
  ignore (Bgp_proto.run proto);
  (match Bgp_proto.selected_next_hop proto 1 with
   | Some nh -> Alcotest.(check int) "reroutes via the lower peer" 2 nh
   | None -> Alcotest.fail "AS 1 lost all routes");
  Alcotest.(check int) "nobody black-holed after convergence" 0
    (Bgp_proto.unreachable_count proto)

(* ---------- RIB loop filter ---------- *)

(* Diamond: AS 1 must NOT see a route via its provider 3, because 3's
   selected path to 0 runs through 1 itself. *)
let test_rib_loop_filter () =
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
  let rt = Routing.compute g 0 in
  (* 3 ties between customers 1 and 2; lowest id wins: via 1 *)
  Alcotest.(check (option int)) "3 routes via 1" (Some 1) (Routing.next_hop rt 3);
  let rib_at v = List.map (fun (e : Routing.rib_entry) -> e.via) (Routing.rib rt v) in
  Alcotest.(check (list int)) "1's RIB: only the direct route (3's path loops back)"
    [ 0 ] (rib_at 1);
  Alcotest.(check (list int)) "2's RIB keeps the provider alternative" [ 0; 3 ] (rib_at 2);
  Alcotest.(check bool) "on_selected_path sees 1 on 3's path" true
    (Routing.on_selected_path rt ~node:3 1);
  Alcotest.(check bool) "2 is not on 3's path" false (Routing.on_selected_path rt ~node:3 2)

(* ---------- Lpm_trie ---------- *)

let test_trie_basic () =
  let t =
    Lpm_trie.of_list
      [
        (Prefix.of_string "10.0.0.0/8", "eight");
        (Prefix.of_string "10.1.0.0/16", "sixteen");
        (Prefix.of_string "10.1.2.0/24", "twentyfour");
      ]
  in
  let lookup addr =
    match Lpm_trie.lookup (Prefix.addr_of_string addr) t with
    | Some (_, v) -> v
    | None -> "none"
  in
  Alcotest.(check string) "/24" "twentyfour" (lookup "10.1.2.9");
  Alcotest.(check string) "/16" "sixteen" (lookup "10.1.3.9");
  Alcotest.(check string) "/8" "eight" (lookup "10.9.9.9");
  Alcotest.(check string) "miss" "none" (lookup "11.0.0.1");
  Alcotest.(check int) "cardinal" 3 (Lpm_trie.cardinal t)

let test_trie_default_route () =
  let t = Lpm_trie.of_list [ (Prefix.of_string "0.0.0.0/0", "default") ] in
  match Lpm_trie.lookup (Prefix.addr_of_string "203.0.113.7") t with
  | Some (p, v) ->
    Alcotest.(check string) "default matches" "default" v;
    Alcotest.(check int) "length 0" 0 p.Prefix.length
  | None -> Alcotest.fail "default route must match everything"

let test_trie_remove_and_exact () =
  let p16 = Prefix.of_string "10.1.0.0/16" and p24 = Prefix.of_string "10.1.2.0/24" in
  let t = Lpm_trie.of_list [ (p16, 16); (p24, 24) ] in
  Alcotest.(check (option int)) "exact /24" (Some 24) (Lpm_trie.find_exact p24 t);
  let t = Lpm_trie.remove p24 t in
  Alcotest.(check (option int)) "removed" None (Lpm_trie.find_exact p24 t);
  (match Lpm_trie.lookup (Prefix.addr_of_string "10.1.2.9") t with
   | Some (_, v) -> Alcotest.(check int) "falls back to /16" 16 v
   | None -> Alcotest.fail "lost the /16");
  Alcotest.(check int) "cardinal" 1 (Lpm_trie.cardinal t);
  Alcotest.(check bool) "removing everything empties" true
    (Lpm_trie.is_empty (Lpm_trie.remove p16 t))

let test_trie_replace () =
  let p = Prefix.of_string "10.0.0.0/8" in
  let t = Lpm_trie.add p 2 (Lpm_trie.add p 1 Lpm_trie.empty) in
  Alcotest.(check (option int)) "replaced" (Some 2) (Lpm_trie.find_exact p t);
  Alcotest.(check int) "no duplicate" 1 (Lpm_trie.cardinal t)

let test_trie_fold_order () =
  let ps = [ "10.1.2.0/24"; "10.0.0.0/8"; "192.168.0.0/16" ] in
  let t = Lpm_trie.of_list (List.map (fun s -> (Prefix.of_string s, s)) ps) in
  let listed = List.map (fun (p, _) -> Prefix.to_string p) (Lpm_trie.to_list t) in
  Alcotest.(check (list string)) "ascending network order"
    [ "10.0.0.0/8"; "10.1.2.0/24"; "192.168.0.0/16" ]
    listed

(* Agreement with the production FIB on random tables. *)
let prop_trie_agrees_with_fib =
  QCheck2.Test.make ~name:"trie and per-length FIB agree on random tables" ~count:60
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 40)
           (pair (int_range 0 0xFFFF) (int_range 8 32)))
        (list_size (int_range 1 60) (int_range 0 0xFFFF)))
    (fun (entries, queries) ->
      let fib = Mifo_core.Fib.create () in
      let trie = ref Lpm_trie.empty in
      List.iteri
        (fun i (asn, len) ->
          let prefix = Prefix.make (Prefix.host_of_as asn 1) len in
          Mifo_core.Fib.insert fib prefix ~out_port:i ();
          trie := Lpm_trie.add prefix i !trie)
        entries;
      List.for_all
        (fun asn ->
          let addr = Prefix.host_of_as asn 2 in
          let from_fib =
            match Mifo_core.Fib.lpm fib (Mifo_core.Fib.key_of_addr addr) with
            | -1 -> None
            | e -> Some (Mifo_core.Fib.out_port fib e)
          in
          let from_trie =
            match Lpm_trie.lookup addr !trie with Some (_, v) -> Some v | None -> None
          in
          (* ports may differ when the same prefix was inserted twice with
             different ports (replacement order is identical), so compare
             the matched value directly *)
          from_fib = from_trie)
        queries)

(* ---------- Csv ---------- *)

let test_csv_escaping () =
  Alcotest.(check string) "plain" "abc" (Mifo_util.Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Mifo_util.Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Mifo_util.Csv.escape "a\"b")

let test_csv_series () =
  let out =
    Mifo_util.Csv.of_series ~x_label:"x" ~columns:[ "y1"; "y2" ]
      ~rows:[ (1., [ 2.; 3. ]); (4., [ 5.; 6. ]) ]
  in
  Alcotest.(check string) "series" "x,y1,y2\n1,2,3\n4,5,6\n" out

(* ---------- Decimal ---------- *)

let test_decimal_accepts () =
  let check s n = Alcotest.(check (option int)) s (Some n) (Mifo_util.Decimal.of_string_opt s) in
  check "0" 0;
  check "7" 7;
  check "007" 7;
  check "4294967296" 4294967296;
  check (string_of_int max_int) max_int

(* Every one of these is an integer to [int_of_string_opt]. *)
let test_decimal_rejects () =
  List.iter
    (fun s ->
      Alcotest.(check (option int))
        (Printf.sprintf "%S" s) None (Mifo_util.Decimal.of_string_opt s))
    [ ""; "-5"; "+7"; "0x10"; "0o7"; "0b1"; "1_0"; " 1"; "1 "; "-0x1"; "1e3" ];
  (* one past [max_int] overflows rather than wrapping *)
  Alcotest.(check (option int)) "max_int + 1" None
    (Mifo_util.Decimal.of_string_opt "4611686018427387904")

let () =
  Alcotest.run "mifo_proto"
    [
      ( "bgp_proto",
        [
          Alcotest.test_case "converges" `Quick test_proto_converges;
          Alcotest.test_case "matches the analytic computation" `Slow
            test_proto_matches_analytic;
          Alcotest.test_case "adj-RIB-in matches the analytic RIB" `Slow
            test_proto_adj_rib_matches_rib;
          Alcotest.test_case "gadget message count" `Quick test_proto_gadget_messages;
          Alcotest.test_case "deterministic" `Quick test_proto_deterministic;
          Alcotest.test_case "link failure reroutes correctly" `Slow
            test_proto_link_failure_reroutes;
          Alcotest.test_case "failure API" `Quick test_proto_failure_validation;
        ] );
      ("loop filter", [ Alcotest.test_case "diamond" `Quick test_rib_loop_filter ]);
      ( "lpm_trie",
        [
          Alcotest.test_case "longest match" `Quick test_trie_basic;
          Alcotest.test_case "default route" `Quick test_trie_default_route;
          Alcotest.test_case "remove and exact" `Quick test_trie_remove_and_exact;
          Alcotest.test_case "replace" `Quick test_trie_replace;
          Alcotest.test_case "fold order" `Quick test_trie_fold_order;
          QCheck_alcotest.to_alcotest prop_trie_agrees_with_fib;
        ] );
      ( "csv",
        [
          Alcotest.test_case "escaping" `Quick test_csv_escaping;
          Alcotest.test_case "series" `Quick test_csv_series;
        ] );
      ( "decimal_ints",
        [
          Alcotest.test_case "plain digits" `Quick test_decimal_accepts;
          Alcotest.test_case "rejects what int_of_string reads" `Quick test_decimal_rejects;
        ] );
    ]
