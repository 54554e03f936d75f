module Prng = Mifo_util.Prng
module Vec = Mifo_util.Vec

type role = Tier1 | Transit | Stub

type params = {
  ases : int;
  tier1 : int;
  transit_fraction : float;
  transit_levels : int;
  mean_providers : float;
  peering_ratio : float;
  content_providers : int;
  content_peer_span : int * int;
}

let default_params =
  {
    ases = 2_000;
    tier1 = 12;
    transit_fraction = 0.22;
    transit_levels = 3;
    mean_providers = 2.8;
    peering_ratio = 0.31;
    content_providers = 12;
    content_peer_span = (20, 80);
  }

let paper_scale_params =
  {
    default_params with
    ases = 44_340;
    tier1 = 14;
    content_providers = 40;
    content_peer_span = (50, 400);
  }

type t = { graph : As_graph.t; roles : role array; content : int array }

let validate p =
  if p.ases < 4 then invalid_arg "Generator: need at least 4 ASes";
  if p.tier1 < 2 || p.tier1 >= p.ases then invalid_arg "Generator: bad tier1 size";
  if p.transit_fraction < 0. || p.transit_fraction > 0.9 then
    invalid_arg "Generator: transit_fraction out of range";
  if p.transit_levels < 1 then invalid_arg "Generator: transit_levels must be >= 1";
  if p.mean_providers < 1. then invalid_arg "Generator: mean_providers must be >= 1";
  if p.peering_ratio < 0. || p.peering_ratio > 0.8 then
    invalid_arg "Generator: peering_ratio out of range";
  if p.content_providers < 0 then invalid_arg "Generator: content_providers < 0";
  let lo, hi = p.content_peer_span in
  if lo < 1 || hi < lo then invalid_arg "Generator: bad content_peer_span";
  if p.content_providers > 0 && lo >= p.ases then
    invalid_arg "Generator: content_peer_span needs more ASes"

(* Edge accumulator that rejects duplicates silently (callers retry). *)
module Edge_set = struct
  type t = { seen : (int * int, unit) Hashtbl.t; mutable edges : (int * int * As_graph.edge_kind) list }

  let create () = { seen = Hashtbl.create 4096; edges = [] }
  let key u v = if u < v then (u, v) else (v, u)
  let mem t u v = Hashtbl.mem t.seen (key u v)

  let add t u v kind =
    if u = v || mem t u v then false
    else begin
      Hashtbl.add t.seen (key u v) ();
      t.edges <- (u, v, kind) :: t.edges;
      true
    end
end

let generate ?(params = default_params) ~seed () =
  let p = params in
  validate p;
  let rng = Prng.create ~seed () in
  let n = p.ases in
  let roles = Array.make n Stub in
  let levels = Array.make n (p.transit_levels + 1) in
  for v = 0 to p.tier1 - 1 do
    roles.(v) <- Tier1;
    levels.(v) <- 0
  done;
  let transit_count =
    int_of_float (p.transit_fraction *. float_of_int (n - p.tier1))
  in
  for v = p.tier1 to p.tier1 + transit_count - 1 do
    roles.(v) <- Transit;
    levels.(v) <- Prng.int_in rng 1 p.transit_levels
  done;
  let edges = Edge_set.create () in
  (* Tier-1 full mesh of peering links. *)
  for u = 0 to p.tier1 - 1 do
    for v = u + 1 to p.tier1 - 1 do
      ignore (Edge_set.add edges u v As_graph.Peer_peer)
    done
  done;
  (* Preferential-attachment bags: bag.(l) holds every AS of level l once
     per (1 + customers gained), so sampling an index uniformly from the
     bags below a level is provider choice proportional to attractiveness. *)
  let bags = Array.init (p.transit_levels + 1) (fun _ -> Vec.create ()) in
  for v = 0 to p.tier1 - 1 do
    Vec.push bags.(0) v
  done;
  let sample_provider_below level exclude =
    let total = ref 0 in
    for l = 0 to level - 1 do
      total := !total + Vec.length bags.(l)
    done;
    if !total = 0 then None
    else begin
      let rec attempt tries =
        if tries = 0 then None
        else begin
          let idx = ref (Prng.int rng !total) in
          let l = ref 0 in
          while !idx >= Vec.length bags.(!l) do
            idx := !idx - Vec.length bags.(!l);
            incr l
          done;
          let cand = Vec.get bags.(!l) !idx in
          if List.mem cand exclude then attempt (tries - 1) else Some cand
        end
      in
      attempt 16
    end
  in
  let pc_count = ref 0 in
  (* Number of providers: 1 + geometric with mean (mean_providers - 1). *)
  let provider_count () =
    let extra_mean = p.mean_providers -. 1. in
    let rec geo acc =
      if extra_mean > 0. && Prng.float rng 1.0 < extra_mean /. (1. +. extra_mean) then
        geo (acc + 1)
      else acc
    in
    1 + geo 0
  in
  (* Attach transit ASes level by level, then stubs: each picks its
     providers among strictly-lower-level ASes. *)
  let attach v =
    let lv = levels.(v) in
    let wanted = provider_count () in
    let rec pick k chosen =
      if k = 0 then chosen
      else
        match sample_provider_below lv chosen with
        | None -> chosen
        | Some prov -> pick (k - 1) (prov :: chosen)
    in
    let chosen = pick wanted [] in
    let chosen = if chosen = [] then [ Prng.int rng p.tier1 ] else chosen in
    List.iter
      (fun prov ->
        if Edge_set.add edges prov v As_graph.Provider_customer then begin
          incr pc_count;
          (* the provider gets more attractive *)
          Vec.push bags.(levels.(prov)) prov
        end)
      chosen;
    if roles.(v) = Transit then Vec.push bags.(lv) v
  in
  let order = Array.init (n - p.tier1) (fun i -> i + p.tier1) in
  Array.sort (fun a b -> compare (levels.(a), a) (levels.(b), b)) order;
  Array.iter attach order;
  (* Content-provider stubs: stub ASes with an unusually large peering
     fan-out, standing in for Google/Facebook-style networks. *)
  let stub_pool =
    Array.of_list
      (List.filter (fun v -> roles.(v) = Stub) (Array.to_list order))
  in
  let content =
    if p.content_providers = 0 || Array.length stub_pool = 0 then [||]
    else begin
      let k = Stdlib.min p.content_providers (Array.length stub_pool) in
      let picks = Prng.sample_without_replacement rng k (Array.length stub_pool) in
      Array.map (fun i -> stub_pool.(i)) picks
    end
  in
  let peer_count = ref (p.tier1 * (p.tier1 - 1) / 2) in
  let lo, hi = p.content_peer_span in
  Array.iter
    (fun cp ->
      let wanted = Prng.int_in rng lo (Stdlib.min hi (n - 1)) in
      let added = ref 0 and tries = ref 0 in
      while !added < wanted && !tries < wanted * 8 do
        incr tries;
        let other = Prng.int rng n in
        if other <> cp && roles.(other) <> Tier1 then
          if Edge_set.add edges cp other As_graph.Peer_peer then begin
            incr added;
            incr peer_count
          end
      done)
    content;
  (* Remaining peering links to reach the target mix, sampled with
     preference for well-connected transits (degree-proportional via the
     same bags) and a level gap of at most one. *)
  let target_peer =
    int_of_float
      (p.peering_ratio /. (1. -. p.peering_ratio) *. float_of_int !pc_count)
  in
  let candidates =
    Array.of_list
      (List.filter (fun v -> roles.(v) = Transit) (Array.to_list order))
  in
  let all_non_t1 = order in
  let tries = ref 0 in
  let max_tries = 40 * Stdlib.max 1 target_peer in
  while !peer_count < target_peer && !tries < max_tries do
    incr tries;
    let u =
      if Array.length candidates > 0 && Prng.float rng 1.0 < 0.7 then
        Prng.choose rng candidates
      else Prng.choose rng all_non_t1
    in
    let v =
      if Array.length candidates > 0 && Prng.float rng 1.0 < 0.7 then
        Prng.choose rng candidates
      else Prng.choose rng all_non_t1
    in
    if u <> v && abs (levels.(u) - levels.(v)) <= 1 then
      if Edge_set.add edges u v As_graph.Peer_peer then incr peer_count
  done;
  let graph = As_graph.create ~n ~edges:edges.Edge_set.edges in
  { graph; roles; content }

let fig2a_gadget () =
  As_graph.create ~n:4
    ~edges:
      [
        (1, 0, As_graph.Provider_customer);
        (2, 0, As_graph.Provider_customer);
        (3, 0, As_graph.Provider_customer);
        (1, 2, As_graph.Peer_peer);
        (2, 3, As_graph.Peer_peer);
        (1, 3, As_graph.Peer_peer);
      ]

let k2_gadget () =
  As_graph.create ~n:5
    ~edges:
      [
        (1, 3, As_graph.Provider_customer);
        (3, 0, As_graph.Provider_customer);
        (2, 4, As_graph.Provider_customer);
        (4, 0, As_graph.Provider_customer);
        (1, 0, As_graph.Peer_peer);
        (2, 0, As_graph.Peer_peer);
        (1, 2, As_graph.Peer_peer);
      ]

let black_hole_gadget () =
  As_graph.create ~n:4
    ~edges:
      [
        (2, 1, As_graph.Provider_customer);
        (3, 1, As_graph.Provider_customer);
        (0, 2, As_graph.Provider_customer);
        (0, 3, As_graph.Provider_customer);
      ]

let stretch_gadget () =
  As_graph.create ~n:4
    ~edges:
      [
        (1, 2, As_graph.Provider_customer);
        (2, 3, As_graph.Provider_customer);
        (3, 0, As_graph.Provider_customer);
        (1, 0, As_graph.Provider_customer);
      ]
