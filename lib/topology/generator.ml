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
  type t = { seen : Pair_set.t; edges : As_graph.Edges.t }

  let create k = { seen = Pair_set.create k; edges = As_graph.Edges.create k }

  let add t u v kind =
    if u = v || not (Pair_set.add t.seen u v) then false
    else begin
      As_graph.Edges.push t.edges u v kind;
      true
    end
end

(* The entries of [order] whose role is [r], in order. *)
let with_role roles order r =
  let k = ref 0 in
  for i = 0 to Array.length order - 1 do
    if roles.(order.(i)) = r then incr k
  done;
  let a = Array.make !k 0 in
  let k = ref 0 in
  for i = 0 to Array.length order - 1 do
    let v = order.(i) in
    if roles.(v) = r then begin
      a.(!k) <- v;
      incr k
    end
  done;
  a

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
  (* Sized for the expected link count, a slight over-estimate: n
     providers-per-AS links at the target peering mix, plus every
     content stub at its maximum fan-out. *)
  let edges =
    Edge_set.create
      (int_of_float (float_of_int n *. p.mean_providers /. (1. -. p.peering_ratio))
      + (p.content_providers * snd p.content_peer_span))
  in
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
  (* The providers picked so far for the AS being attached:
     [chosen.(0 .. !nchosen - 1)], oldest first. *)
  let chosen = ref (Array.make 16 0) and nchosen = ref 0 in
  let is_chosen v =
    let found = ref false in
    for i = 0 to !nchosen - 1 do
      if !chosen.(i) = v then found := true
    done;
    !found
  in
  (* A provider below [level] not chosen yet, or -1 when the bags are
     empty or 16 draws all hit chosen ones. *)
  let sample_provider_below level =
    let total = ref 0 in
    for l = 0 to level - 1 do
      total := !total + Vec.length bags.(l)
    done;
    let result = ref (-1) and tries = ref (if !total = 0 then 0 else 16) in
    while !tries > 0 do
      let idx = ref (Prng.int rng !total) in
      let l = ref 0 in
      while !idx >= Vec.length bags.(!l) do
        idx := !idx - Vec.length bags.(!l);
        incr l
      done;
      let cand = Vec.get bags.(!l) !idx in
      if is_chosen cand then decr tries
      else begin
        result := cand;
        tries := 0
      end
    done;
    !result
  in
  let pc_count = ref 0 in
  (* Number of providers: 1 + geometric with mean (mean_providers - 1). *)
  let extra_mean = p.mean_providers -. 1. in
  let provider_count () =
    let k = ref 1 in
    while extra_mean > 0. && Prng.float rng 1.0 < extra_mean /. (1. +. extra_mean) do
      incr k
    done;
    !k
  in
  (* Attach transit ASes level by level, then stubs: each picks its
     providers among strictly-lower-level ASes. *)
  let attach v =
    let lv = levels.(v) in
    let wanted = provider_count () in
    if wanted > Array.length !chosen then chosen := Array.make wanted 0;
    nchosen := 0;
    let k = ref wanted in
    while !k > 0 do
      let prov = sample_provider_below lv in
      if prov < 0 then k := 0
      else begin
        !chosen.(!nchosen) <- prov;
        incr nchosen;
        decr k
      end
    done;
    if !nchosen = 0 then begin
      !chosen.(0) <- Prng.int rng p.tier1;
      nchosen := 1
    end;
    (* newest pick first *)
    for i = !nchosen - 1 downto 0 do
      let prov = !chosen.(i) in
      if Edge_set.add edges prov v As_graph.Provider_customer then begin
        incr pc_count;
        (* the provider gets more attractive *)
        Vec.push bags.(levels.(prov)) prov
      end
    done;
    if roles.(v) = Transit then Vec.push bags.(lv) v
  in
  (* Non-tier-1 ASes by (level, id), sorted as the ints [level * n + id]. *)
  let order = Array.init (n - p.tier1) (fun i -> (levels.(i + p.tier1) * n) + i + p.tier1) in
  Mifo_util.Sort.sort_ints order 0 (Array.length order);
  for i = 0 to Array.length order - 1 do
    order.(i) <- order.(i) mod n
  done;
  for i = 0 to Array.length order - 1 do
    attach order.(i)
  done;
  (* Content-provider stubs: stub ASes with an unusually large peering
     fan-out, standing in for Google/Facebook-style networks. *)
  let stub_pool = with_role roles order Stub in
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
  let candidates = with_role roles order Transit in
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
  let graph = As_graph.of_edges ~n edges.Edge_set.edges in
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
