(* Unit and property tests for Mifo_topology: the relationship algebra,
   the AS graph, the generator and as-rel IO. *)

module Relationship = Mifo_topology.Relationship
module As_graph = Mifo_topology.As_graph
module Generator = Mifo_topology.Generator
module As_rel_io = Mifo_topology.As_rel_io
module Topo_stats = Mifo_topology.Topo_stats
module Union_find = Mifo_oracle.Union_find
module Boxed_as_graph = Mifo_oracle.Boxed_as_graph

(* ---------- Relationship ---------- *)

let test_inverse () =
  Alcotest.(check bool) "customer<->provider" true
    (Relationship.equal (Relationship.inverse Relationship.Customer) Relationship.Provider);
  Alcotest.(check bool) "provider<->customer" true
    (Relationship.equal (Relationship.inverse Relationship.Provider) Relationship.Customer);
  Alcotest.(check bool) "peer<->peer" true
    (Relationship.equal (Relationship.inverse Relationship.Peer) Relationship.Peer)

let test_preference () =
  Alcotest.(check (list int)) "customer < peer < provider"
    [ 0; 1; 2 ]
    (List.map Relationship.preference_rank
       [ Relationship.Customer; Relationship.Peer; Relationship.Provider ])

(* Eq. 3: transit allowed iff upstream is customer OR downstream is customer. *)
let test_transit_rule () =
  let open Relationship in
  let cases =
    [
      (Customer, Customer, true); (Customer, Peer, true); (Customer, Provider, true);
      (Peer, Customer, true); (Peer, Peer, false); (Peer, Provider, false);
      (Provider, Customer, true); (Provider, Peer, false); (Provider, Provider, false);
    ]
  in
  List.iter
    (fun (up, down, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s -> %s" (to_string up) (to_string down))
        expected
        (transit_allowed ~upstream:up ~downstream:down))
    cases

(* Gao-Rexford export policy table. *)
let test_exports_to () =
  let open Relationship in
  Alcotest.(check bool) "customer routes to everyone" true
    (List.for_all
       (fun nb -> exports_to ~route_learned_from:Customer ~neighbor:nb)
       [ Customer; Peer; Provider ]);
  List.iter
    (fun learned ->
      Alcotest.(check bool) "peer/provider routes only to customers" true
        (exports_to ~route_learned_from:learned ~neighbor:Customer);
      Alcotest.(check bool) "not to peers" false
        (exports_to ~route_learned_from:learned ~neighbor:Peer);
      Alcotest.(check bool) "not to providers" false
        (exports_to ~route_learned_from:learned ~neighbor:Provider))
    [ Peer; Provider ]

let test_valley_free_shapes () =
  let open Relationship in
  Alcotest.(check bool) "up up down down" true (valley_free [ Up; Up; Down; Down ]);
  Alcotest.(check bool) "up flat down" true (valley_free [ Up; Flat; Down ]);
  Alcotest.(check bool) "flat only" true (valley_free [ Flat ]);
  Alcotest.(check bool) "empty" true (valley_free []);
  Alcotest.(check bool) "down up is a valley" false (valley_free [ Down; Up ]);
  Alcotest.(check bool) "two flats" false (valley_free [ Flat; Flat ]);
  Alcotest.(check bool) "flat then up" false (valley_free [ Up; Flat; Up ]);
  Alcotest.(check bool) "down flat" false (valley_free [ Down; Flat ])

(* ---------- As_graph ---------- *)

(* 0 is the customer of 1 and 2; 1-2 peer; 1 is customer of 3. *)
let small_graph () =
  As_graph.create ~n:4
    ~edges:
      [
        (1, 0, As_graph.Provider_customer);
        (2, 0, As_graph.Provider_customer);
        (1, 2, As_graph.Peer_peer);
        (3, 1, As_graph.Provider_customer);
      ]

let test_graph_basic () =
  let g = small_graph () in
  Alcotest.(check int) "n" 4 (As_graph.n g);
  Alcotest.(check int) "edges" 4 (As_graph.edge_count g);
  Alcotest.(check int) "pc" 3 (As_graph.pc_edge_count g);
  Alcotest.(check int) "peer" 1 (As_graph.peer_edge_count g);
  Alcotest.(check bool) "0's view of 1 is provider" true
    (Relationship.equal (As_graph.rel_exn g 0 1) Relationship.Provider);
  Alcotest.(check bool) "1's view of 0 is customer" true
    (Relationship.equal (As_graph.rel_exn g 1 0) Relationship.Customer);
  Alcotest.(check bool) "1-2 peer" true
    (Relationship.equal (As_graph.rel_exn g 1 2) Relationship.Peer);
  Alcotest.(check bool) "non-adjacent" true (As_graph.rel g 0 3 = None);
  Alcotest.(check int) "degree of 1" 3 (As_graph.degree g 1);
  Alcotest.(check (array int)) "customers of 1" [| 0 |] (As_graph.customers g 1);
  Alcotest.(check (array int)) "providers of 0" [| 1; 2 |] (As_graph.providers g 0);
  Alcotest.(check bool) "0 is stub" true (As_graph.is_stub g 0);
  Alcotest.(check bool) "1 is not stub" false (As_graph.is_stub g 1)

let test_graph_levels () =
  let g = small_graph () in
  Alcotest.(check int) "3 is top" 0 (As_graph.level g 3);
  Alcotest.(check int) "2 is top" 0 (As_graph.level g 2);
  Alcotest.(check int) "1 below 3" 1 (As_graph.level g 1);
  Alcotest.(check int) "0 below 1" 2 (As_graph.level g 0);
  let order = As_graph.topological_order g in
  let pos = Array.make 4 0 in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  Alcotest.(check bool) "3 before 1" true (pos.(3) < pos.(1));
  Alcotest.(check bool) "1 before 0" true (pos.(1) < pos.(0))

let test_graph_rejects_cycle () =
  Alcotest.check_raises "provider cycle" As_graph.Cyclic_provider_graph (fun () ->
      ignore
        (As_graph.create ~n:3
           ~edges:
             [
               (0, 1, As_graph.Provider_customer);
               (1, 2, As_graph.Provider_customer);
               (2, 0, As_graph.Provider_customer);
             ]))

let test_graph_rejects_duplicate () =
  Alcotest.check_raises "duplicate" (As_graph.Duplicate_edge (1, 0)) (fun () ->
      ignore
        (As_graph.create ~n:2
           ~edges:[ (0, 1, As_graph.Provider_customer); (1, 0, As_graph.Peer_peer) ]))

let test_graph_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "As_graph.create: self-loop")
    (fun () -> ignore (As_graph.create ~n:2 ~edges:[ (1, 1, As_graph.Peer_peer) ]))

(* [neighbor_index] is a plain loop: 10K warmed calls, hits and misses,
   allocate nothing. *)
let test_neighbor_index_allocation () =
  let g = (Generator.generate ~seed:42 ()).Generator.graph in
  let n = As_graph.n g in
  let round () =
    let acc = ref 0 in
    for i = 0 to 9_999 do
      let u = i mod n in
      let nbrs = As_graph.neighbors g u in
      let v = if i land 1 = 0 && Array.length nbrs > 0 then nbrs.(i mod Array.length nbrs) else (i * 7) mod n in
      acc := !acc + As_graph.neighbor_index g u v
    done;
    !acc
  in
  ignore (round ());
  let w0 = Gc.minor_words () in
  let r = round () in
  let w1 = Gc.minor_words () in
  ignore (Sys.opaque_identity r);
  Alcotest.(check (float 0.)) "minor words for 10K calls" 0. (w1 -. w0)

(* Random edge lists for [create]: tiny ones over ids in [-1, n], so
   out-of-range endpoints, self-loops, duplicates and provider cycles
   all come up; larger ones whose provider links point from lower to
   higher ids (acyclic) with duplicates still possible; and valid ones
   (distinct pairs, acyclic under a random relabelling of the ids), so
   the builder's success path is compared on real hierarchies too. *)
let edge_list_gen =
  let open QCheck2.Gen in
  let kind = map (fun b -> if b then As_graph.Provider_customer else As_graph.Peer_peer) bool in
  let tiny =
    int_range 0 8 >>= fun n ->
    pair (return n) (list_size (int_range 0 20) (triple (int_range (-1) n) (int_range (-1) n) kind))
  in
  let dag =
    int_range 1 40 >>= fun n ->
    let edge =
      map
        (fun (a, b, k) ->
          match k with
          | As_graph.Provider_customer -> (Stdlib.min a b, Stdlib.max a b, k)
          | As_graph.Peer_peer -> (a, b, k))
        (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) kind)
    in
    pair (return n) (list_size (int_range 0 60) edge)
  in
  let valid =
    int_range 2 60 >>= fun n ->
    map
      (fun (perm, raw) ->
        let seen = Hashtbl.create 64 in
        ( n,
          List.filter_map
            (fun (a, b, k, flip) ->
              let lo = Stdlib.min a b and hi = Stdlib.max a b in
              if a = b || Hashtbl.mem seen (lo, hi) then None
              else begin
                Hashtbl.add seen (lo, hi) ();
                let u, v = if flip && k = As_graph.Peer_peer then (hi, lo) else (lo, hi) in
                Some (perm.(u), perm.(v), k)
              end)
            raw ))
      (pair
         (shuffle_a (Array.init n Fun.id))
         (list_size (int_range 0 120) (quad (int_range 0 (n - 1)) (int_range 0 (n - 1)) kind bool)))
  in
  oneof [ tiny; dag; valid ]

(* The flat-array builder against the list-and-Hashtbl original
   ({!Mifo_oracle.Boxed_as_graph}): the same graph, byte for byte under
   [Marshal], or the same exception. *)
let prop_create_matches_oracle =
  QCheck2.Test.make ~name:"as_graph: create matches the boxed oracle" ~count:2000
    ~print:(fun (n, edges) ->
      Printf.sprintf "n=%d [%s]" n
        (String.concat "; "
           (List.map
              (fun (u, v, k) ->
                Printf.sprintf "%d,%d,%s" u v
                  (match k with As_graph.Provider_customer -> "pc" | As_graph.Peer_peer -> "pp"))
              edges)))
    edge_list_gen
    (fun (n, edges) ->
      let run f = match f () with x -> Ok (Marshal.to_string x []) | exception e -> Error e in
      run (fun () -> As_graph.create ~n ~edges) = run (fun () -> Boxed_as_graph.create ~n ~edges))

let test_fold_edges () =
  let g = small_graph () in
  let count = As_graph.fold_edges g ~init:0 ~f:(fun acc _ _ _ -> acc + 1) in
  Alcotest.(check int) "each link once" 4 count;
  let pc =
    As_graph.fold_edges g ~init:0 ~f:(fun acc _ _ -> function
      | As_graph.Provider_customer -> acc + 1
      | As_graph.Peer_peer -> acc)
  in
  Alcotest.(check int) "pc links" 3 pc

let test_path_valley_free () =
  let g = small_graph () in
  Alcotest.(check bool) "0 -> 1 -> 3 pure uphill" true
    (As_graph.path_is_valley_free g [ 0; 1; 3 ]);
  Alcotest.(check bool) "3 -> 1 -> 0 pure downhill" true
    (As_graph.path_is_valley_free g [ 3; 1; 0 ]);
  Alcotest.(check bool) "0 up 1 peer 2 down 0" true
    (As_graph.path_is_valley_free g [ 0; 1; 2; 0 ]);
  Alcotest.(check bool) "1 peer 2 down 0 up 1 is a valley" false
    (As_graph.path_is_valley_free g [ 1; 2; 0; 1 ])

(* ---------- Generator ---------- *)

let generated = lazy (Generator.generate ~seed:99 ())

let test_generator_deterministic () =
  let a = Generator.generate ~seed:4 () and b = Generator.generate ~seed:4 () in
  let sa = Topo_stats.compute a.Generator.graph and sb = Topo_stats.compute b.Generator.graph in
  Alcotest.(check int) "same links" sa.Topo_stats.links sb.Topo_stats.links;
  Alcotest.(check int) "same peering" sa.Topo_stats.peering_links sb.Topo_stats.peering_links

let test_generator_connected () =
  let t = Lazy.force generated in
  let g = t.Generator.graph in
  let uf = Union_find.create (As_graph.n g) in
  ignore (As_graph.fold_edges g ~init:() ~f:(fun () u v _ -> ignore (Union_find.union uf u v)));
  Alcotest.(check int) "one component" 1 (Union_find.count_sets uf)

let test_generator_ratio () =
  let t = Lazy.force generated in
  let stats = Topo_stats.compute t.Generator.graph in
  Alcotest.(check bool)
    (Printf.sprintf "P/C fraction %.2f within 0.64..0.74" stats.Topo_stats.pc_fraction)
    true
    (stats.Topo_stats.pc_fraction > 0.64 && stats.Topo_stats.pc_fraction < 0.74)

let test_generator_roles_consistent () =
  let t = Lazy.force generated in
  let g = t.Generator.graph in
  Array.iteri
    (fun v role ->
      match role with
      | Generator.Tier1 ->
        Alcotest.(check int) "tier1 has no providers" 0 (Array.length (As_graph.providers g v))
      | Generator.Transit | Generator.Stub ->
        Alcotest.(check bool) "non-tier1 has a provider" true
          (Array.length (As_graph.providers g v) > 0))
    t.Generator.roles

let test_generator_content_are_stubs () =
  let t = Lazy.force generated in
  Array.iter
    (fun cp ->
      Alcotest.(check bool) "content provider is a stub" true
        (t.Generator.roles.(cp) = Generator.Stub))
    t.Generator.content

(* Structural dump of a generated topology: n, then per AS its level,
   its topological-order entry, its role and its (neighbour, rel)
   pairs, then the content stubs. *)
let generator_digest (t : Generator.t) =
  let b = Buffer.create 65536 in
  let int i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ' '
  in
  let rel_code = function
    | Relationship.Customer -> 0
    | Relationship.Provider -> 1
    | Relationship.Peer -> 2
  in
  let role_code = function Generator.Tier1 -> 0 | Generator.Transit -> 1 | Generator.Stub -> 2 in
  let g = t.Generator.graph in
  let n = As_graph.n g in
  int n;
  for v = 0 to n - 1 do
    Buffer.add_char b '\n';
    int v;
    int (As_graph.level g v);
    int (As_graph.topological_at g v);
    int (role_code t.Generator.roles.(v));
    Array.iter (fun u -> int u; int (rel_code (As_graph.rel_exn g v u))) (As_graph.neighbors g v)
  done;
  Buffer.add_char b '\n';
  Array.iter int t.Generator.content;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The parameters [Validation.run] uses at 400 ASes. *)
let validate_params =
  {
    Generator.default_params with
    Generator.ases = 400;
    tier1 = 4;
    content_providers = 2;
    content_peer_span = (3, 8);
  }

(* Golden outputs, recorded before the generator and [As_graph] moved
   to flat int arrays: the same seeds must keep drawing the same
   topologies, at paper scale too. *)
let test_generator_golden () =
  List.iter
    (fun (name, params, seed, digest) ->
      Alcotest.(check string) name digest (generator_digest (Generator.generate ~params ~seed ())))
    [
      ("44,340 ASes, seed 42", Generator.paper_scale_params, 42, "5317ad8b9f4cf50cb33221fbce1cbcee");
      ("2,000 ASes, seed 42", Generator.default_params, 42, "27d71fe0a6f528b74bb2dddabdfec566");
      ("2,000 ASes, seed 7", Generator.default_params, 7, "31f334e6ecaecf311d0e0a59347ae438");
      ("validate's 400 ASes, seed 42", validate_params, 42, "9c997756368b58cf9b3228a5e5df7036");
    ]

(* Words this domain has allocated so far: minor words plus direct
   major allocations (arrays over 256 words skip the minor heap), less
   promotions, which were already counted as minor words. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* One 2,000-AS generation allocates at most 1.25x the 234.5K words it
   took once it moved to flat arrays (before, it took 1.97M).  A
   tuple-keyed [Hashtbl] in place of the pair set takes it to 301K, and
   a PRNG state of four boxed [int64] fields to 846K. *)
let test_generator_allocation () =
  ignore (Generator.generate ~seed:42 ());
  Gc.minor ();
  let w0 = allocated_words () in
  ignore (Sys.opaque_identity (Generator.generate ~seed:42 ()));
  let used = allocated_words () -. w0 in
  let bound = 1.25 *. 234_500. in
  if used > bound then Alcotest.failf "%.0f words allocated, bound %.0f" used bound

let test_generator_validates () =
  Alcotest.check_raises "bad tier1" (Invalid_argument "Generator: bad tier1 size")
    (fun () ->
      ignore
        (Generator.generate
           ~params:{ Generator.default_params with Generator.tier1 = 1 }
           ~seed:1 ()))

let prop_generator_valid =
  QCheck2.Test.make ~name:"generated graphs are valid at random sizes" ~count:8
    QCheck2.Gen.(pair (int_range 20 300) (int_range 0 1000))
    (fun (ases, seed) ->
      let params =
        {
          Generator.default_params with
          Generator.ases;
          tier1 = 4;
          content_providers = 2;
          content_peer_span = (2, 6);
        }
      in
      let t = Generator.generate ~params ~seed () in
      let g = t.Generator.graph in
      (* create already validates the DAG; check connectivity *)
      let uf = Union_find.create (As_graph.n g) in
      ignore
        (As_graph.fold_edges g ~init:() ~f:(fun () u v _ -> ignore (Union_find.union uf u v)));
      Union_find.count_sets uf = 1)

(* [neighbor_index] against the classified neighbour sets: every edge
   resolves, in both directions, to the position holding the other end;
   every non-edge and every [u = v] reads -1; and [rel], now built on
   it, still names the class the edge sits in. *)
let prop_neighbor_index =
  QCheck2.Test.make ~name:"as_graph: neighbor_index and rel over generated graphs" ~count:8
    QCheck2.Gen.(pair (int_range 20 150) (int_range 0 1000))
    (fun (ases, seed) ->
      let params =
        {
          Generator.default_params with
          Generator.ases;
          tier1 = 4;
          content_providers = 2;
          content_peer_span = (2, 6);
        }
      in
      let g = (Generator.generate ~params ~seed ()).Generator.graph in
      let n = As_graph.n g in
      let class_of u v =
        if Array.mem v (As_graph.customers g u) then Some Relationship.Customer
        else if Array.mem v (As_graph.providers g u) then Some Relationship.Provider
        else if Array.mem v (As_graph.peers g u) then Some Relationship.Peer
        else None
      in
      let ok = ref true in
      for u = 0 to n - 1 do
        let nbrs = As_graph.neighbors g u in
        for v = 0 to n - 1 do
          let i = As_graph.neighbor_index g u v in
          let expected = class_of u v in
          (match expected with
           | Some _ -> if i < 0 || nbrs.(i) <> v then ok := false
           | None -> if i <> -1 then ok := false);
          if not (Option.equal Relationship.equal (As_graph.rel g u v) expected) then
            ok := false
        done
      done;
      !ok)

let test_fig2a_gadget () =
  let g = Generator.fig2a_gadget () in
  Alcotest.(check int) "4 nodes" 4 (As_graph.n g);
  Alcotest.(check int) "3 peer links" 3 (As_graph.peer_edge_count g);
  Alcotest.(check int) "0 has 3 providers" 3 (Array.length (As_graph.providers g 0))

(* ---------- As_rel_io ---------- *)

let test_as_rel_roundtrip () =
  let t = Lazy.force generated in
  let g = t.Generator.graph in
  let text = As_rel_io.to_string g in
  let loaded = As_rel_io.parse_string text in
  let s1 = Topo_stats.compute g and s2 = Topo_stats.compute loaded.As_rel_io.graph in
  Alcotest.(check int) "nodes" s1.Topo_stats.nodes s2.Topo_stats.nodes;
  Alcotest.(check int) "links" s1.Topo_stats.links s2.Topo_stats.links;
  Alcotest.(check int) "pc" s1.Topo_stats.pc_links s2.Topo_stats.pc_links;
  Alcotest.(check int) "peering" s1.Topo_stats.peering_links s2.Topo_stats.peering_links

let test_as_rel_parse () =
  let loaded = As_rel_io.parse_string "# comment\n100|200|-1\n200|300|0\n" in
  let g = loaded.As_rel_io.graph in
  Alcotest.(check int) "3 nodes" 3 (As_graph.n g);
  Alcotest.(check int) "1 pc" 1 (As_graph.pc_edge_count g);
  Alcotest.(check int) "1 peer" 1 (As_graph.peer_edge_count g);
  (* AS numbers preserved *)
  Alcotest.(check (array int)) "as numbers" [| 100; 200; 300 |] loaded.As_rel_io.as_number

let test_as_rel_bad_input () =
  let raises_parse_error text =
    match As_rel_io.parse_string text with
    | exception As_rel_io.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "bad relationship" true (raises_parse_error "1|2|7\n");
  Alcotest.(check bool) "bad AS number" true (raises_parse_error "x|2|0\n");
  Alcotest.(check bool) "bad format" true (raises_parse_error "1,2,0\n");
  Alcotest.(check bool) "empty" true (raises_parse_error "# nothing\n")

(* Graph-level rejections surface as [Parse_error], never as
   [As_graph]'s own exceptions. *)
let parse_error text =
  match As_rel_io.parse_string text with
  | exception As_rel_io.Parse_error (line, msg) -> Some (line, msg)
  | _ -> None

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Fields [int_of_string] reads but plain decimal does not — a sign, a
   hex prefix, a '_' separator — and an ASN wider than 32 bits.  Each
   must be a [Parse_error] at its own line (line 1 is a good link). *)
let as_rel_rejects bad () =
  match parse_error ("100|200|-1\n" ^ bad ^ "\n") with
  | Some (line, _) -> Alcotest.(check int) "offending line" 2 line
  | None -> Alcotest.failf "%S accepted" bad

(* [As_rel_io.parse_string] either returns or raises its documented
   [Parse_error]; no stray stdlib exception escapes on garbage,
   truncated or corrupted files. *)
let prop_as_rel_fuzz =
  QCheck2.Test.make ~name:"as_rel_io: garbage raises only Parse_error" ~count:2000
    ~print:(Printf.sprintf "%S")
    (Parser_fuzz.gen ~alphabet:"0123456789|-\n# x_+"
       ~samples:
         [
           "# comment\n1|2|-1\n2|3|-1\n1|3|0\n";
           "100|200|-1\n200|300|0\n4294967295|1|-1\n";
         ])
    (fun s ->
      match As_rel_io.parse_string s with
      | _ -> true
      | exception As_rel_io.Parse_error _ -> true)

let test_as_rel_max_asn () =
  let loaded = As_rel_io.parse_string "4294967295|0|0\n" in
  Alcotest.(check (array int)) "largest 32-bit ASN kept" [| 4294967295; 0 |]
    loaded.As_rel_io.as_number

let test_as_rel_self_loop () =
  match parse_error "1|2|-1\n7|7|-1\n" with
  | Some (line, msg) ->
    Alcotest.(check int) "offending line" 2 line;
    Alcotest.(check bool) ("names the self-loop: " ^ msg) true (contains ~sub:"self-loop" msg)
  | None -> Alcotest.fail "self-loop accepted"

let test_as_rel_provider_cycle () =
  match parse_error "1|2|-1\n2|3|-1\n3|1|-1\n" with
  | Some (_, msg) ->
    Alcotest.(check string) "names the cycle" "provider cycle: AS2 -> AS3 -> AS1 -> AS2" msg
  | None -> Alcotest.fail "provider cycle accepted"

let test_as_rel_duplicate () =
  match parse_error "# header\n1|2|-1\n2|3|0\n2|1|0\n" with
  | Some (line, msg) ->
    Alcotest.(check int) "offending line" 4 line;
    Alcotest.(check bool) ("names the first line: " ^ msg) true (contains ~sub:"line 2" msg)
  | None -> Alcotest.fail "duplicate link accepted"

let test_degree_distribution () =
  let t = Lazy.force generated in
  let g = t.Generator.graph in
  let ccdf = Topo_stats.degree_ccdf g in
  (* a proper CCDF: starts at 1, decreases, stays positive *)
  Alcotest.(check (float 1e-9)) "starts at 1" 1.0 (snd ccdf.(0));
  for i = 1 to Array.length ccdf - 1 do
    Alcotest.(check bool) "monotone" true (snd ccdf.(i) <= snd ccdf.(i - 1));
    Alcotest.(check bool) "positive" true (snd ccdf.(i) > 0.)
  done;
  let slope = Topo_stats.powerlaw_exponent g in
  Alcotest.(check bool)
    (Printf.sprintf "heavy tail: slope %.2f in -2.5..-0.5" slope)
    true
    (slope < -0.5 && slope > -2.5)

let test_topo_stats () =
  let g = small_graph () in
  let s = Topo_stats.compute g in
  Alcotest.(check int) "nodes" 4 s.Topo_stats.nodes;
  Alcotest.(check int) "links" 4 s.Topo_stats.links;
  Alcotest.(check int) "max degree" 3 s.Topo_stats.max_degree;
  Alcotest.(check bool) "mean degree" true (abs_float (s.Topo_stats.mean_degree -. 2.0) < 1e-9)

(* ---------- Partition ---------- *)

module Partition = Mifo_topology.Partition

(* Two 4-cliques of fast links joined by one slow bridge: the only
   sensible 2-way split cuts exactly the bridge. *)
let two_clique_edges () =
  let fast = 1e-5 and slow = 1e-3 in
  let clique base =
    let acc = ref [] in
    for u = 0 to 3 do
      for v = u + 1 to 3 do
        acc := (base + u, base + v, fast) :: !acc
      done
    done;
    !acc
  in
  Array.of_list (((0, 4, slow) :: clique 0) @ clique 4)

let test_partition_two_cliques () =
  let edges = two_clique_edges () in
  let weights = Array.make 8 1 in
  let assign = Partition.partition ~parts:2 ~weights ~edges in
  let st = Partition.stats ~weights ~edges ~assign in
  Alcotest.(check int) "both parts used" 2 st.Partition.parts;
  Alcotest.(check int) "only the bridge is cut" 1 st.Partition.cut_edges;
  Alcotest.(check bool) "cut latency is the slow bridge" true
    (abs_float (st.Partition.min_cut_latency -. 1e-3) < 1e-12);
  Alcotest.(check int) "balanced heavy side" 4 st.Partition.heaviest;
  Alcotest.(check int) "balanced light side" 4 st.Partition.lightest;
  (* cliques stay whole *)
  for u = 1 to 3 do
    Alcotest.(check int) "left clique together" assign.(0) assign.(u);
    Alcotest.(check int) "right clique together" assign.(4) assign.(4 + u)
  done

let test_partition_deterministic_and_balanced () =
  let n = 60 in
  (* ring with chords; weights 1..3 repeating *)
  let edges =
    Array.init (2 * n) (fun i ->
        if i < n then (i, (i + 1) mod n, 1e-4 *. float_of_int (1 + (i mod 7)))
        else
          let u = i - n in
          (u, (u + 13) mod n, 2e-3))
  in
  let weights = Array.init n (fun i -> 1 + (i mod 3)) in
  let a1 = Partition.partition ~parts:4 ~weights ~edges in
  let a2 = Partition.partition ~parts:4 ~weights ~edges in
  Alcotest.(check bool) "deterministic" true (a1 = a2);
  let st = Partition.stats ~weights ~edges ~assign:a1 in
  Alcotest.(check int) "all parts non-empty" 4 st.Partition.parts;
  let total = Array.fold_left ( + ) 0 weights in
  let max_w = 3 in
  Alcotest.(check bool) "no part above target + max weight" true
    (st.Partition.heaviest <= ((total + 3) / 4) + max_w);
  Alcotest.(check bool) "cut latency positive" true (st.Partition.min_cut_latency > 0.)

let test_partition_degenerate () =
  let weights = [| 2; 1; 5 |] in
  let edges = [| (0, 1, 1e-3); (1, 2, 1e-3) |] in
  Alcotest.(check (array int)) "parts=1 collapses" [| 0; 0; 0 |]
    (Partition.partition ~parts:1 ~weights ~edges);
  let spread = Partition.partition ~parts:3 ~weights ~edges in
  Alcotest.(check (array int)) "n = parts spreads round-robin" [| 0; 1; 2 |] spread;
  let wide = Partition.partition ~parts:5 ~weights ~edges in
  Alcotest.(check bool) "n < parts keeps ids in range" true
    (Array.for_all (fun p -> p >= 0 && p < 5) wide);
  Alcotest.check_raises "parts < 1 rejected"
    (Invalid_argument "Partition.partition: parts must be >= 1") (fun () ->
      ignore (Partition.partition ~parts:0 ~weights ~edges));
  Alcotest.check_raises "edge endpoint out of range"
    (Invalid_argument "Partition.partition: edge endpoint out of range") (fun () ->
      ignore (Partition.partition ~parts:2 ~weights ~edges:[| (0, 9, 1.) |]));
  (* isolated nodes, no edges: still a valid balanced assignment *)
  let lonely = Partition.partition ~parts:2 ~weights:(Array.make 10 1) ~edges:[||] in
  let st = Partition.stats ~weights:(Array.make 10 1) ~edges:[||] ~assign:lonely in
  Alcotest.(check int) "isolated: both parts used" 2 st.Partition.parts;
  Alcotest.(check bool) "isolated: nothing cut -> infinite lookahead" true
    (st.Partition.cut_edges = 0 && st.Partition.min_cut_latency = infinity)

let () =
  Alcotest.run "mifo_topology"
    [
      ( "relationship",
        [
          Alcotest.test_case "inverse" `Quick test_inverse;
          Alcotest.test_case "preference ranks" `Quick test_preference;
          Alcotest.test_case "Eq.3 transit rule" `Quick test_transit_rule;
          Alcotest.test_case "export policy" `Quick test_exports_to;
          Alcotest.test_case "valley-free shapes" `Quick test_valley_free_shapes;
        ] );
      ( "as_graph",
        [
          Alcotest.test_case "adjacency and relationships" `Quick test_graph_basic;
          Alcotest.test_case "levels and topological order" `Quick test_graph_levels;
          Alcotest.test_case "rejects provider cycles" `Quick test_graph_rejects_cycle;
          Alcotest.test_case "rejects duplicate links" `Quick test_graph_rejects_duplicate;
          Alcotest.test_case "rejects self-loops" `Quick test_graph_rejects_self_loop;
          Alcotest.test_case "fold_edges" `Quick test_fold_edges;
          Alcotest.test_case "path valley-freeness" `Quick test_path_valley_free;
          QCheck_alcotest.to_alcotest prop_neighbor_index;
          Alcotest.test_case "allocation gate: neighbor_index allocates nothing" `Quick
            test_neighbor_index_allocation;
          QCheck_alcotest.to_alcotest prop_create_matches_oracle;
        ] );
      ( "generator",
        [
          Alcotest.test_case "deterministic in seed" `Quick test_generator_deterministic;
          Alcotest.test_case "connected" `Quick test_generator_connected;
          Alcotest.test_case "P/C : peering ratio" `Quick test_generator_ratio;
          Alcotest.test_case "roles consistent" `Quick test_generator_roles_consistent;
          Alcotest.test_case "content providers are stubs" `Quick test_generator_content_are_stubs;
          Alcotest.test_case "parameter validation" `Quick test_generator_validates;
          Alcotest.test_case "fig2a gadget" `Quick test_fig2a_gadget;
          Alcotest.test_case "golden digests at four (params, seed) pairs" `Quick
            test_generator_golden;
          Alcotest.test_case "allocation gate: 2,000 ASes" `Quick test_generator_allocation;
          QCheck_alcotest.to_alcotest prop_generator_valid;
        ] );
      ( "as_rel_io",
        [
          Alcotest.test_case "roundtrip" `Quick test_as_rel_roundtrip;
          Alcotest.test_case "parse" `Quick test_as_rel_parse;
          Alcotest.test_case "bad input" `Quick test_as_rel_bad_input;
          Alcotest.test_case "self-loop is a parse error" `Quick test_as_rel_self_loop;
          Alcotest.test_case "provider cycle is a parse error" `Quick test_as_rel_provider_cycle;
          Alcotest.test_case "duplicate link is a parse error" `Quick test_as_rel_duplicate;
          Alcotest.test_case "largest 32-bit ASN parses" `Quick test_as_rel_max_asn;
          Alcotest.test_case "rejects -5|3|-1" `Quick (as_rel_rejects "-5|3|-1");
          Alcotest.test_case "rejects 0x10|2|-1" `Quick (as_rel_rejects "0x10|2|-1");
          Alcotest.test_case "rejects 1_0|2|0" `Quick (as_rel_rejects "1_0|2|0");
          Alcotest.test_case "rejects +7|2|0" `Quick (as_rel_rejects "+7|2|0");
          Alcotest.test_case "rejects 1|2|-0x1" `Quick (as_rel_rejects "1|2|-0x1");
          Alcotest.test_case "rejects 4294967296|1|0" `Quick (as_rel_rejects "4294967296|1|0");
          QCheck_alcotest.to_alcotest prop_as_rel_fuzz;
        ] );
      ( "topo_stats",
        [
          Alcotest.test_case "small graph" `Quick test_topo_stats;
          Alcotest.test_case "degree distribution" `Quick test_degree_distribution;
        ] );
      ( "partition",
        [
          Alcotest.test_case "two cliques cut at the slow bridge" `Quick
            test_partition_two_cliques;
          Alcotest.test_case "deterministic and balanced" `Quick
            test_partition_deterministic_and_balanced;
          Alcotest.test_case "degenerate shapes and validation" `Quick
            test_partition_degenerate;
        ] );
    ]
