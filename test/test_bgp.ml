(* Unit and property tests for Mifo_bgp: prefixes, the route computation,
   the RIB and the routing table cache; and Fig. 7's path count on the
   deflection automaton, checked against the reference DP. *)

module Prefix = Mifo_bgp.Prefix
module Routing = Mifo_bgp.Routing
module Routing_table = Mifo_bgp.Routing_table
module Jobs = Mifo_oracle.Jobs
module As_graph = Mifo_topology.As_graph
module Relationship = Mifo_topology.Relationship
module Generator = Mifo_topology.Generator
module Deployment = Mifo_core.Deployment
module Loop_walk = Mifo_core.Loop_walk
module Automaton = Mifo_analysis.Automaton

let gadget = lazy (let g = Generator.fig2a_gadget () in (g, Routing.compute g 0))

(* ---------- Prefix ---------- *)

let test_addr_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) s s (Prefix.addr_to_string (Prefix.addr_of_string s)))
    [ "0.0.0.0"; "10.1.2.3"; "255.255.255.255"; "192.168.0.1" ]

let test_addr_invalid () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ s) true
        (match Prefix.addr_of_string s with
         | exception Invalid_argument _ -> true
         | _ -> false))
    [ "1.2.3"; "1.2.3.4.5"; "256.0.0.1"; "a.b.c.d"; "-1.0.0.0" ]

(* Fields [int_of_string] reads but plain decimal does not: a hex byte,
   a '_' separator, a hex length.  Each is a malformed prefix. *)
let prefix_rejects s () =
  match Prefix.of_string s with
  | exception Invalid_argument _ -> ()
  | p -> Alcotest.failf "%s accepted as %s" s (Prefix.to_string p)

(* [Prefix.of_string] either returns or raises its documented
   [Invalid_argument]; nothing else escapes on garbage or truncations. *)
let prop_prefix_of_string_fuzz =
  QCheck2.Test.make ~name:"prefix of_string: garbage raises only Invalid_argument"
    ~count:2000 ~print:(Printf.sprintf "%S")
    (Parser_fuzz.gen ~alphabet:"0123456789./x_-+ a"
       ~samples:[ "10.1.2.0/24"; "255.255.255.255/32"; "0.0.0.0/0"; "192.168.0.1/16" ])
    (fun s ->
      match Prefix.of_string s with
      | _ -> true
      | exception Invalid_argument _ -> true)

let test_prefix_contains () =
  let p = Prefix.of_string "10.1.2.0/24" in
  Alcotest.(check bool) "inside" true (Prefix.contains p (Prefix.addr_of_string "10.1.2.77"));
  Alcotest.(check bool) "outside" false (Prefix.contains p (Prefix.addr_of_string "10.1.3.1"));
  let default = Prefix.of_string "0.0.0.0/0" in
  Alcotest.(check bool) "default route matches all" true
    (Prefix.contains default (Prefix.addr_of_string "203.0.113.9"))

let test_prefix_masks_host_bits () =
  let p = Prefix.make (Prefix.addr_of_string "10.1.2.77") 24 in
  Alcotest.(check string) "masked" "10.1.2.0/24" (Prefix.to_string p)

let test_of_as () =
  let p = Prefix.of_as 258 in
  Alcotest.(check string) "10.x.y.0/24 encoding" "10.1.2.0/24" (Prefix.to_string p);
  Alcotest.(check bool) "host inside" true (Prefix.contains p (Prefix.host_of_as 258 1));
  Alcotest.(check bool) "rejects out of range" true
    (match Prefix.of_as 70_000 with exception Invalid_argument _ -> true | _ -> false);
  List.iter
    (fun asn -> Alcotest.(check (option int)) "to_as inverts of_as" (Some asn)
        (Prefix.to_as (Prefix.of_as asn)))
    [ 0; 1; 258; 44_339; 0xFFFF ];
  List.iter
    (fun s -> Alcotest.(check (option int)) ("to_as outside the layout: " ^ s) None
        (Prefix.to_as (Prefix.of_string s)))
    [ "10.1.2.0/25"; "10.1.0.0/16"; "11.1.2.0/24"; "0.0.0.0/0" ]

(* [Prefix.compare] orders field by field; the reference is the
   polymorphic order of the [(network, length)] pair it replaced.  Equal
   networks come up often enough to reach the length tie-break. *)
let prop_prefix_compare_matches_tuple =
  let gen_prefix =
    QCheck2.Gen.(
      map2
        (fun net len -> Prefix.make (Int32.of_int net) len)
        (oneof [ int_bound 3; int ]) (int_bound 32))
  in
  QCheck2.Test.make ~name:"prefix compare: the (network, length) tuple order" ~count:1_000
    QCheck2.Gen.(pair gen_prefix gen_prefix)
    (fun (a, b) ->
      let sign x = Int.compare x 0 in
      let tuple = compare (a.Prefix.network, a.Prefix.length) (b.Prefix.network, b.Prefix.length) in
      sign (Prefix.compare a b) = sign tuple
      && Prefix.equal a b = (tuple = 0)
      && sign (Prefix.compare b a) = - sign tuple)

(* The testbed chooser runs [Prefix.equal] on every FIB entry each
   daemon tick: neither comparison may allocate. *)
let test_prefix_compare_allocates_nothing () =
  let ps =
    [| Prefix.of_string "10.1.2.0/24"; Prefix.of_string "10.1.2.0/25";
       Prefix.of_string "192.168.0.0/16"; Prefix.of_string "0.0.0.0/0" |]
  in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    let a = ps.(i land 3) and b = ps.((i lsr 2) land 3) in
    acc := !acc + Prefix.compare a b + if Prefix.equal a b then 1 else 0
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "the loop ran" true (!acc <> min_int);
  Alcotest.(check (float 0.)) "minor words" 0. words

(* ---------- Routing on hand-built graphs ---------- *)

(* A chain: 3 (tier1) -> 2 -> 1 -> 0, all provider->customer. *)
let chain () =
  As_graph.create ~n:4
    ~edges:
      [
        (3, 2, As_graph.Provider_customer);
        (2, 1, As_graph.Provider_customer);
        (1, 0, As_graph.Provider_customer);
      ]

let test_chain_routing () =
  let g = chain () in
  let rt = Routing.compute g 0 in
  Alcotest.(check (list int)) "3's path descends" [ 3; 2; 1; 0 ] (Routing.default_path rt 3);
  Alcotest.(check int) "3's length" 3 (Routing.best_len rt 3);
  Alcotest.(check bool) "3's class is customer" true
    (Routing.best_class rt 3 = Some Routing.Customer_route);
  (* and in the other direction everything is a provider route *)
  let rt3 = Routing.compute g 3 in
  Alcotest.(check (list int)) "0 climbs" [ 0; 1; 2; 3 ] (Routing.default_path rt3 0);
  Alcotest.(check bool) "0's class is provider" true
    (Routing.best_class rt3 0 = Some Routing.Provider_route)

let test_gadget_routing () =
  let g = Generator.fig2a_gadget () in
  let rt = Routing.compute g 0 in
  (* every peer prefers its direct customer link to 0 *)
  List.iter
    (fun v ->
      Alcotest.(check (list int)) "direct customer route" [ v; 0 ] (Routing.default_path rt v);
      Alcotest.(check bool) "class customer" true
        (Routing.best_class rt v = Some Routing.Customer_route))
    [ 1; 2; 3 ];
  (* each also has two alternative peer routes in its RIB *)
  List.iter
    (fun v ->
      let alts = List.tl (Routing.rib rt v) in
      Alcotest.(check int) "two alternatives" 2 (List.length alts);
      List.iter
        (fun (e : Routing.rib_entry) ->
          Alcotest.(check bool) "peer alternates" true
            (Relationship.equal e.rel Relationship.Peer);
          Alcotest.(check int) "length 2" 2 e.len)
        alts)
    [ 1; 2; 3 ]

(* Class preference: a longer customer route must beat a shorter peer
   route.  Graph: dest 0; 1 reaches 0 through a 3-hop customer chain and
   directly via a peer that is 0's provider. *)
let test_customer_beats_shorter_peer () =
  let g =
    As_graph.create ~n:5
      ~edges:
        [
          (* customer chain 1 > 2 > 3 > 0 *)
          (1, 2, As_graph.Provider_customer);
          (2, 3, As_graph.Provider_customer);
          (3, 0, As_graph.Provider_customer);
          (* 4 is 0's provider and 1's peer *)
          (4, 0, As_graph.Provider_customer);
          (1, 4, As_graph.Peer_peer);
        ]
  in
  let rt = Routing.compute g 0 in
  Alcotest.(check bool) "customer route selected" true
    (Routing.best_class rt 1 = Some Routing.Customer_route);
  Alcotest.(check (list int)) "long way down" [ 1; 2; 3; 0 ] (Routing.default_path rt 1);
  (* the peer route is still in the RIB as an alternative *)
  let alts = List.tl (Routing.rib rt 1) in
  Alcotest.(check bool) "peer alternative present" true
    (List.exists (fun (e : Routing.rib_entry) -> e.via = 4 && e.len = 2) alts)

(* Export policy through the RIB: a peer that itself has only a provider
   route exports nothing.  1 - 2 peers; 2's only route to 0 is via its
   provider 3. *)
let test_peer_does_not_export_provider_routes () =
  let g =
    As_graph.create ~n:4
      ~edges:
        [
          (3, 0, As_graph.Provider_customer);
          (3, 2, As_graph.Provider_customer);
          (1, 2, As_graph.Peer_peer);
          (3, 1, As_graph.Provider_customer);
        ]
  in
  let rt = Routing.compute g 0 in
  Alcotest.(check bool) "2 reaches via provider" true
    (Routing.best_class rt 2 = Some Routing.Provider_route);
  (* 1's RIB must not contain a route via peer 2 *)
  let rib = Routing.rib rt 1 in
  Alcotest.(check bool) "no peer-learned entry" false
    (List.exists (fun (e : Routing.rib_entry) -> e.via = 2) rib);
  Alcotest.(check int) "only the provider route" 1 (List.length rib)

let test_tie_break_lowest_id () =
  (* two equal-length provider routes: lowest next-hop id wins *)
  let g =
    As_graph.create ~n:4
      ~edges:
        [
          (1, 0, As_graph.Provider_customer);
          (2, 0, As_graph.Provider_customer);
          (1, 3, As_graph.Provider_customer);
          (2, 3, As_graph.Provider_customer);
        ]
  in
  let rt = Routing.compute g 0 in
  Alcotest.(check (option int)) "lowest id next hop" (Some 1) (Routing.next_hop rt 3)

let test_rib_sorted_best_first () =
  let g = Generator.fig2a_gadget () in
  let rt = Routing.compute g 0 in
  match Routing.rib rt 1 with
  | best :: rest ->
    Alcotest.(check int) "default via direct customer" 0 best.Routing.via;
    let key (e : Routing.rib_entry) =
      (Relationship.preference_rank e.rel, e.len, e.via)
    in
    List.iter
      (fun e ->
        Alcotest.(check bool) "default is weakly preferred" true (key best <= key e))
      rest
  | [] -> Alcotest.fail "empty RIB"

(* ---------- Property tests on generated topologies ---------- *)

let topo = lazy (Generator.generate ~seed:21 ())
let graph () = (Lazy.force topo).Generator.graph

let prop_default_paths_valley_free =
  QCheck2.Test.make ~name:"default paths are valley-free and reach the destination"
    ~count:60
    QCheck2.Gen.(pair (int_bound 1_999) (int_bound 1_999))
    (fun (s, d) ->
      let g = graph () in
      QCheck2.assume (s <> d);
      let rt = Routing.compute g d in
      let path = Routing.default_path rt s in
      As_graph.path_is_valley_free g path
      && List.hd path = s
      && List.hd (List.rev path) = d
      && List.length path - 1 = Routing.best_len rt s)

let prop_default_paths_simple =
  QCheck2.Test.make ~name:"default paths never repeat an AS" ~count:60
    QCheck2.Gen.(pair (int_bound 1_999) (int_bound 1_999))
    (fun (s, d) ->
      QCheck2.assume (s <> d);
      let g = graph () in
      let rt = Routing.compute g d in
      let path = Routing.default_path rt s in
      List.length (List.sort_uniq compare path) = List.length path)

let prop_rib_entries_consistent =
  QCheck2.Test.make ~name:"every RIB entry is exportable and correctly measured" ~count:30
    QCheck2.Gen.(pair (int_bound 1_999) (int_bound 1_999))
    (fun (s, d) ->
      QCheck2.assume (s <> d);
      let g = graph () in
      let rt = Routing.compute g d in
      List.for_all
        (fun (e : Routing.rib_entry) ->
          (* the advertised route length matches the neighbor's state *)
          match e.rel with
          | Relationship.Customer | Relationship.Peer ->
            (* exported only if the neighbor's best route is a customer route *)
            (match Routing.customer_route_len rt e.via with
             | Some l -> e.len = l + 1
             | None -> false)
          | Relationship.Provider -> (
            match Routing.export_len rt e.via with
            | Some l -> e.len = l + 1
            | None -> false))
        (Routing.rib rt s))

module Oracle = Mifo_oracle.Boxed_routing

(* The CSR arena must produce exactly the RIBs of the boxed oracle, and
   the packed per-entry accessors must read field-for-field what the
   boxed view holds. *)
let prop_csr_matches_boxed =
  QCheck2.Test.make ~name:"routing: CSR and boxed reps produce identical RIBs"
    ~count:12 (QCheck2.Gen.int_bound 1_999)
    (fun d ->
      let g = graph () in
      let csr = Routing.compute g d in
      let boxed = Oracle.compute g d in
      for v = 0 to As_graph.n g - 1 do
        let rb = Oracle.rib boxed v in
        if Routing.rib csr v <> rb then QCheck2.Test.fail_report "rib lists diverged";
        if Routing.rib_array csr v <> Oracle.rib_array boxed v then
          QCheck2.Test.fail_report "rib arrays diverged";
        if Routing.rib_size csr v <> List.length rb then
          QCheck2.Test.fail_report "rib_size diverged";
        List.iteri
          (fun i (e : Routing.rib_entry) ->
            if
              Routing.rib_via csr v i <> e.via
              || Routing.rib_len_at csr v i <> e.len
              || Routing.rib_rel_at csr v i <> e.rel
              || Routing.rib_entry_at csr v i <> e
            then QCheck2.Test.fail_report "packed accessors diverged")
          rb
      done;
      true)

(* Every per-node accessor derived from the arena's cell 0, and the
   packed tree predicate, agree with the oracle's arrays at every node
   (and every node pair); [Error] names the first mismatch. *)
let derived_match_oracle g d =
  let rt = Routing.compute g d and o = Oracle.compute g d in
  let n = As_graph.n g in
  let len_or_raise f v = match f v with l -> Some l | exception Invalid_argument _ -> None in
  let mismatch = ref None in
  let check what v ok =
    if (not ok) && !mismatch = None then
      mismatch := Some (Printf.sprintf "%s at node %d (dest %d)" what v d)
  in
  for v = 0 to n - 1 do
    check "reachable" v (Routing.reachable rt v = Oracle.reachable o v);
    check "best_class" v (Routing.best_class rt v = Oracle.best_class o v);
    check "best_len" v
      (len_or_raise (Routing.best_len rt) v = len_or_raise (Oracle.best_len o) v);
    check "next_hop" v (Routing.next_hop rt v = Oracle.next_hop o v);
    check "customer_route_len" v
      (Routing.customer_route_len rt v = Oracle.customer_route_len o v);
    check "export_len" v (Routing.export_len rt v = Oracle.export_len o v);
    check "rib" v (Routing.rib rt v = Oracle.rib o v);
    for x = 0 to n - 1 do
      check "on_selected_path" v
        (Routing.on_selected_path rt ~node:v x = Oracle.on_selected_path o ~node:v x)
    done
  done;
  match !mismatch with None -> Ok () | Some m -> Error m

let prop_derived_match_oracle =
  QCheck2.Test.make ~name:"routing: derived accessors match the boxed oracle" ~count:8
    QCheck2.Gen.(pair (int_bound 10_000) (int_bound 149))
    (fun (seed, d) ->
      let params =
        { Generator.default_params with Generator.ases = 150; tier1 = 4;
          content_providers = 2; content_peer_span = (2, 5) }
      in
      let g = (Generator.generate ~params ~seed ()).Generator.graph in
      match derived_match_oracle g d with
      | Ok () -> true
      | Error m -> QCheck2.Test.fail_report m)

(* Disconnected corner cases the generator never produces: AS 5 is
   isolated, and AS 4's only link is a peer that has no customer route
   toward most destinations, so both are unreachable with empty RIB
   segments. *)
let test_derived_unreachable () =
  let g =
    As_graph.create ~n:6
      ~edges:
        [
          (1, 0, As_graph.Provider_customer);
          (1, 2, As_graph.Provider_customer);
          (3, 1, As_graph.Provider_customer);
          (0, 2, As_graph.Peer_peer);
          (2, 4, As_graph.Peer_peer);
        ]
  in
  for d = 0 to As_graph.n g - 1 do
    match derived_match_oracle g d with Ok () -> () | Error m -> Alcotest.fail m
  done;
  let rt = Routing.compute g 0 in
  Alcotest.(check bool) "isolated AS unreachable" false (Routing.reachable rt 5);
  Alcotest.(check int) "isolated AS has an empty segment" 0 (Routing.rib_size rt 5);
  Alcotest.(check (option int)) "no next hop" None (Routing.next_hop rt 5);
  Alcotest.(check bool) "peer without a customer route unreachable" false
    (Routing.reachable rt 4);
  Alcotest.check_raises "best_len of an unreachable AS"
    (Invalid_argument "Routing.best_len: unreachable") (fun () ->
      ignore (Routing.best_len rt 5))

(* The arena, its offsets and the packed tree are all a [t] holds
   beyond the shared graph: two words per node plus one per RIB entry,
   and a few headers.  A per-node shadow array coming back fails this. *)
let test_memory_layout () =
  let g = graph () in
  let n = As_graph.n g in
  Alcotest.(check int) "n" 2_000 n;
  List.iter
    (fun d ->
      let rt = Routing.compute g d in
      let cells = ref 0 in
      for v = 0 to n - 1 do
        cells := !cells + Routing.rib_size rt v
      done;
      let own = Obj.reachable_words (Obj.repr rt) - Obj.reachable_words (Obj.repr g) in
      let bound = (2 * n) + !cells + 16 in
      if own > bound then
        Alcotest.failf "dest %d: %d words beyond the graph, bound %d" d own bound)
    [ 0; 17; 1_999 ]

(* Words this domain has allocated so far: minor words plus direct
   major allocations, less promotions (already counted as minor
   words).  [Gc.minor_words] rather than the minor counter of
   [Gc.counters]/[Gc.allocated_bytes], which on OCaml 5.1 only advances
   at minor collections; the major counter catches arrays over 256
   words, which skip the minor heap and so escape a minor-words gate. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* One [compute] on a warmed graph allocates its result and nothing
   else: the offsets [(n + 1)], the cells, the packed tree [n], their
   three headers and the five-field record.  The slack covers the
   [routing.peak_words] gauge's [Gc.quick_stat] record and the
   measurement itself.  A closure per node or one per-call phase array
   ([n] words) is far outside it. *)
let test_compute_allocates_arena () =
  let g = graph () in
  let n = As_graph.n g in
  ignore (Routing.compute g 0);
  List.iter
    (fun d ->
      Gc.minor ();
      let w0 = allocated_words () in
      let rt = Routing.compute g d in
      let w1 = allocated_words () in
      let cells = ref 0 in
      for v = 0 to n - 1 do
        cells := !cells + Routing.rib_size rt v
      done;
      let arena = (n + 1 + 1) + (!cells + 1) + (n + 1) + 6 in
      let slack = 64 in
      let used = int_of_float (w1 -. w0) in
      if used > arena + slack then
        Alcotest.failf "dest %d: %d words allocated, arena %d + slack %d" d used arena slack)
    [ 0; 17; 999; 1_999 ]

(* The per-domain scratch is sized by the largest graph seen and reused
   across graphs: a 60-AS computation between two 2,000-AS ones must
   leave nothing stale behind.  Each result must be bit-identical (all
   of its arrays, via [Marshal]) to one computed on a fresh domain,
   whose scratch starts empty. *)
let test_scratch_reuse_across_graphs () =
  let big = graph () in
  let small =
    (Generator.generate ~params:{ Generator.default_params with Generator.ases = 60 }
       ~seed:5 ())
      .Generator.graph
  in
  let fresh g d = Domain.join (Domain.spawn (fun () -> Routing.compute g d)) in
  let bits rt = Marshal.to_string rt [] in
  let sequence =
    [ (big, 1_234, "2,000 ASes"); (small, 7, "60 ASes"); (big, 42, "2,000 ASes again") ]
  in
  let reused =
    Domain.join
      (Domain.spawn (fun () -> List.map (fun (g, d, _) -> Routing.compute g d) sequence))
  in
  List.iter2
    (fun (g, d, what) rt ->
      Alcotest.(check bool)
        (Printf.sprintf "%s, dest %d: equals a fresh computation" what d)
        true
        (bits rt = bits (fresh g d)))
    sequence reused

(* The CSR build records its heap high-water mark. *)
let test_peak_words_gauge () =
  let g = graph () in
  ignore (Routing.compute g 17);
  let peak = Mifo_util.Obs.gauge_value "routing.peak_words" in
  Alcotest.(check bool) "routing.peak_words is a positive word count" true (peak > 0.);
  let snapshot = Mifo_util.Obs.snapshot_json () in
  let contains ~sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "gauge appears in the --metrics snapshot" true
    (contains ~sub:"\"routing.peak_words\"" snapshot)

let prop_everything_reachable =
  QCheck2.Test.make ~name:"connected topology: every AS reaches every destination"
    ~count:10 (QCheck2.Gen.int_bound 1_999)
    (fun d ->
      let g = graph () in
      let rt = Routing.compute g d in
      let ok = ref true in
      for v = 0 to As_graph.n g - 1 do
        if not (Routing.reachable rt v) then ok := false
      done;
      !ok)

(* ---------- Routing_table ---------- *)

let test_routing_table_cache () =
  let g = graph () in
  let table = Routing_table.create g in
  let a = Routing_table.get table 3 in
  let b = Routing_table.get table 3 in
  Alcotest.(check bool) "cached (physical equality)" true (a == b);
  Alcotest.(check int) "one destination cached" 1 (Routing_table.cached_count table)

(* Racing fills of one slot: four domains, released together by a spin
   barrier, [get] the same destination of a fresh table.  The loser of
   each publish must return the winner's state, so every racer gets the
   same physical value. *)
let test_routing_table_racing_gets () =
  let g = graph () in
  let racers = 4 in
  for round = 1 to 50 do
    let table = Routing_table.create g in
    let d = round * 37 mod As_graph.n g in
    let arrived = Atomic.make 0 in
    let racer () =
      Atomic.incr arrived;
      while Atomic.get arrived < racers do
        Domain.cpu_relax ()
      done;
      Routing_table.get table d
    in
    let results = List.map Domain.join (List.init racers (fun _ -> Domain.spawn racer)) in
    let first = List.hd results in
    Alcotest.(check bool)
      (Printf.sprintf "round %d: every racer got the same state" round)
      true
      (List.for_all (fun r -> r == first) results);
    Alcotest.(check bool) "later gets return it too" true (Routing_table.get table d == first);
    Alcotest.(check int) "one slot filled" 1 (Routing_table.cached_count table)
  done

let test_precompute_parallel_determinism () =
  let g = graph () in
  let n = As_graph.n g in
  let dests = Array.init 40 (fun i -> i * n / 40) in
  let serial = Routing_table.create g in
  let parallel = Routing_table.create g in
  Jobs.with_jobs 1 (fun () -> Routing_table.precompute serial dests);
  Jobs.with_jobs 4 (fun () -> Routing_table.precompute parallel dests);
  Array.iter
    (fun d ->
      let rs = Routing_table.get serial d and rp = Routing_table.get parallel d in
      Alcotest.(check bool)
        (Printf.sprintf "bit-identical state at d=%d" d)
        true
        (Marshal.to_string rs [] = Marshal.to_string rp []);
      for v = 0 to n - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "identical RIB at (d=%d, v=%d)" d v)
          true
          (Routing.rib rs v = Routing.rib rp v);
        Alcotest.(check (option int))
          (Printf.sprintf "identical next hop at (d=%d, v=%d)" d v)
          (Routing.next_hop rs v) (Routing.next_hop rp v)
      done;
      (* spot-check full default paths from a few sources *)
      List.iter
        (fun s ->
          if s <> d then
            Alcotest.(check (list int))
              (Printf.sprintf "identical path %d -> %d" s d)
              (Routing.default_path rs s) (Routing.default_path rp s))
        [ 0; 7; n / 2; n - 1 ])
    dests

(* ---------- Fig. 7's path count on the automaton ---------- *)

let gadgets () =
  [
    Generator.fig2a_gadget ();
    Generator.k2_gadget ();
    Generator.black_hole_gadget ();
    Generator.stretch_gadget ();
  ]

let path_counts ?deployment g rt = Automaton.path_counts (Automaton.create ?deployment g rt)

(* The AS path of an enumerated walk. *)
let walk_path ~src moves = src :: Array.to_list (Array.map (fun m -> m.Automaton.via) moves)

let test_gadget_path_count () =
  let g, rt = Lazy.force gadget in
  let counts = path_counts g rt in
  (* from AS 1: direct, via each peer (2 paths), via peer then peer is
     valley-forbidden -> 1 + 2 = 3 *)
  Alcotest.(check (float 1e-9)) "3 paths from each peer" 3.0 counts.(1);
  Alcotest.(check (float 1e-9)) "dest counts itself once" 1.0 counts.(0)

let test_enumerated_paths_are_valley_free () =
  let g, rt = Lazy.force gadget in
  let a = Automaton.create g rt in
  List.iter
    (fun src ->
      List.iter
        (fun moves ->
          Alcotest.(check bool) "valley free" true
            (As_graph.path_is_valley_free g (walk_path ~src moves)))
        (Automaton.enumerate a ~src ~limit:100))
    [ 1; 2; 3 ]

let test_partial_deployment_counts_fewer () =
  let g = (Generator.generate ~seed:21 ()).Generator.graph in
  let n = As_graph.n g in
  let rt = Routing.compute g 0 in
  let full = path_counts g rt in
  let none = path_counts ~deployment:(Deployment.none ~n) g rt in
  let even = List.filter (fun v -> v mod 2 = 0) (List.init n Fun.id) in
  let half = path_counts ~deployment:(Deployment.of_list ~n even) g rt in
  for v = 1 to n - 1 do
    Alcotest.(check bool) "bgp-only is exactly 1" true (none.(v) = 1.0);
    Alcotest.(check bool) "partial between" true (half.(v) >= 1.0 && half.(v) <= full.(v))
  done

(* [None] when the automaton's counts toward every destination of [g]
   equal the reference DP's bit for bit under [deployment], else the
   first (dest, src) that differs. *)
let count_disagreement g deployment =
  let n = As_graph.n g in
  let rec at d =
    if d = n then None
    else begin
      let rt = Routing.compute g d in
      let prod = path_counts ~deployment g rt in
      let reference =
        Mifo_oracle.Path_count_ref.mifo_counts g rt ~capable:(Deployment.capable deployment)
      in
      match
        List.find_opt
          (fun v -> Int64.bits_of_float prod.(v) <> Int64.bits_of_float reference.(v))
          (List.init n Fun.id)
      with
      | Some v ->
        Some
          (Printf.sprintf "dest %d src %d: automaton %h, reference %h" d v prod.(v)
             reference.(v))
      | None -> at (d + 1)
    end
  in
  at 0

let prop_path_counts_match_reference =
  QCheck2.Test.make ~name:"path_count: automaton counts equal the reference DP" ~count:60
    QCheck2.Gen.(triple (int_range 8 40) (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (ases, seed, dseed) ->
      let params =
        { Generator.default_params with Generator.ases; tier1 = 3; transit_levels = 2;
          content_providers = 1; content_peer_span = (1, 3) }
      in
      let g = (Generator.generate ~params ~seed ()).Generator.graph in
      let n = As_graph.n g in
      let ratio = float_of_int (dseed mod 11) /. 10. in
      match count_disagreement g (Deployment.fraction ~n ~ratio ~seed:dseed) with
      | None -> true
      | Some msg -> QCheck2.Test.fail_report msg)

(* Every deployment subset of each gadget, every destination. *)
let test_path_counts_reference_gadgets () =
  List.iter
    (fun g ->
      let n = As_graph.n g in
      for m = 0 to (1 lsl n) - 1 do
        let members = List.filter (fun v -> m land (1 lsl v) <> 0) (List.init n Fun.id) in
        match count_disagreement g (Deployment.of_list ~n members) with
        | None -> ()
        | Some msg -> Alcotest.fail msg
      done)
    (gadgets ())

let test_path_count_raises_on_a_cycle () =
  let g, rt = Lazy.force gadget in
  let a = Automaton.create ~tag_check:false g rt in
  Alcotest.check_raises "path_counts"
    (Invalid_argument "Automaton.path_counts: the automaton has a cycle") (fun () ->
      ignore (Automaton.path_counts a))

(* Every enumerated walk, played as a move script through the
   engine-backed [Loop_walk], is delivered along exactly its path; and
   wherever the count is small the enumeration finds that many walks.
   Legacy ASes take their default, which the walker does too. *)
let test_enumerated_walks_replay () =
  let check g deployment =
    let n = As_graph.n g in
    for d = 0 to n - 1 do
      let rt = Routing.compute g d in
      let a = Automaton.create ~deployment g rt in
      let counts = Automaton.path_counts a in
      for src = 0 to n - 1 do
        let walks = Automaton.enumerate a ~src ~limit:1_000 in
        if counts.(src) <= 500. then
          Alcotest.(check int)
            (Printf.sprintf "d %d src %d: enumeration = count" d src)
            (int_of_float counts.(src)) (List.length walks);
        List.iter
          (fun moves ->
            let path = walk_path ~src moves in
            match Loop_walk.walk g rt ~decide:(Automaton.script moves) ~src with
            | Loop_walk.Delivered p when p = path -> ()
            | _ ->
              Alcotest.failf "d %d: the walk %s did not replay delivered" d
                (String.concat " -> " (List.map string_of_int path)))
          walks
      done
    done
  in
  let generated =
    Generator.generate
      ~params:{ Generator.default_params with Generator.ases = 60; tier1 = 4;
                content_providers = 2; content_peer_span = (2, 5) }
      ~seed:3 ()
  in
  List.iter
    (fun g ->
      let n = As_graph.n g in
      check g (Deployment.full ~n);
      check g (Deployment.fraction ~n ~ratio:0.5 ~seed:7))
    (generated.Generator.graph :: gadgets ())

let () =
  Alcotest.run "mifo_bgp"
    [
      ( "prefix",
        [
          Alcotest.test_case "address roundtrip" `Quick test_addr_roundtrip;
          Alcotest.test_case "invalid addresses" `Quick test_addr_invalid;
          Alcotest.test_case "rejects a hex byte" `Quick (prefix_rejects "0x0a.0.0.1/8");
          Alcotest.test_case "rejects a '_' in a byte" `Quick (prefix_rejects "1_0.0.0.0/8");
          Alcotest.test_case "rejects a hex length" `Quick (prefix_rejects "10.0.0.0/0x10");
          QCheck_alcotest.to_alcotest prop_prefix_of_string_fuzz;
          Alcotest.test_case "contains" `Quick test_prefix_contains;
          Alcotest.test_case "masks host bits" `Quick test_prefix_masks_host_bits;
          Alcotest.test_case "of_as encoding" `Quick test_of_as;
          QCheck_alcotest.to_alcotest prop_prefix_compare_matches_tuple;
          Alcotest.test_case "compare and equal allocate nothing" `Quick
            test_prefix_compare_allocates_nothing;
        ] );
      ( "routing",
        [
          Alcotest.test_case "chain" `Quick test_chain_routing;
          Alcotest.test_case "fig2a gadget" `Quick test_gadget_routing;
          Alcotest.test_case "customer beats shorter peer" `Quick test_customer_beats_shorter_peer;
          Alcotest.test_case "peers do not export provider routes" `Quick
            test_peer_does_not_export_provider_routes;
          Alcotest.test_case "tie-break on lowest id" `Quick test_tie_break_lowest_id;
          Alcotest.test_case "rib sorted best-first" `Quick test_rib_sorted_best_first;
          QCheck_alcotest.to_alcotest prop_default_paths_valley_free;
          QCheck_alcotest.to_alcotest prop_default_paths_simple;
          QCheck_alcotest.to_alcotest prop_rib_entries_consistent;
          QCheck_alcotest.to_alcotest prop_everything_reachable;
          QCheck_alcotest.to_alcotest prop_csr_matches_boxed;
          QCheck_alcotest.to_alcotest prop_derived_match_oracle;
          Alcotest.test_case "derived accessors when unreachable" `Quick
            test_derived_unreachable;
          Alcotest.test_case "memory layout pinned" `Quick test_memory_layout;
          Alcotest.test_case "peak-words gauge exposed" `Quick test_peak_words_gauge;
          Alcotest.test_case "allocation gate: compute allocates only its arena" `Quick
            test_compute_allocates_arena;
          Alcotest.test_case "scratch reuse across graph sizes" `Quick
            test_scratch_reuse_across_graphs;
        ] );
      ( "path_count",
        [
          Alcotest.test_case "gadget count" `Quick test_gadget_path_count;
          Alcotest.test_case "enumerated paths valley-free" `Quick
            test_enumerated_paths_are_valley_free;
          Alcotest.test_case "deployment monotonicity" `Quick test_partial_deployment_counts_fewer;
          QCheck_alcotest.to_alcotest prop_path_counts_match_reference;
          Alcotest.test_case "the four gadgets match the reference DP" `Quick
            test_path_counts_reference_gadgets;
          Alcotest.test_case "the count raises on a cycle" `Quick
            test_path_count_raises_on_a_cycle;
          Alcotest.test_case "enumerated walks replay delivered" `Quick
            test_enumerated_walks_replay;
        ] );
      ( "routing_table",
        [
          Alcotest.test_case "caching" `Quick test_routing_table_cache;
          Alcotest.test_case "racing gets share one state" `Quick
            test_routing_table_racing_gets;
          Alcotest.test_case "parallel precompute deterministic" `Quick
            test_precompute_parallel_determinism;
        ] );
    ]
