module Prng = Mifo_util.Prng

type t = {
  graph : As_graph.t;
  first_router : int array;
  as_of_router : int array;
  link_router : int array array;
}

let router_count t = Array.length t.as_of_router

let expand ?(links_per_router = 8) ?(max_routers = 8) ~seed g ~expand =
  if links_per_router < 1 then invalid_arg "Router_level.expand: links_per_router < 1";
  if max_routers < 1 then invalid_arg "Router_level.expand: max_routers < 1";
  let n = As_graph.n g in
  let expanded = Array.make n false in
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Router_level.expand: AS id out of range";
      expanded.(v) <- true)
    expand;
  (* Number the routers: AS order, then per-AS index. *)
  let first_router = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    let wanted =
      if expanded.(v) then
        let d = As_graph.degree g v in
        Stdlib.min max_routers (Stdlib.max 1 ((d + links_per_router - 1) / links_per_router))
      else 1
    in
    first_router.(v + 1) <- first_router.(v) + wanted
  done;
  let as_of_router = Array.make first_router.(n) 0 in
  for v = 0 to n - 1 do
    Array.fill as_of_router first_router.(v) (first_router.(v + 1) - first_router.(v)) v
  done;
  (* Pin each adjacency of u to one of u's border routers: a seeded
     random round-robin over a shuffled neighbour order, so every router
     gets a similar share. *)
  let rng = Prng.create ~seed () in
  let link_router =
    Array.init n (fun u ->
        let first = first_router.(u) and k = first_router.(u + 1) - first_router.(u) in
        let d = As_graph.degree g u in
        if k = 1 then Array.make d first
        else begin
          let order = Array.init d Fun.id in
          Prng.shuffle rng order;
          let owners = Array.make d first in
          Array.iteri (fun i j -> owners.(j) <- first + (i mod k)) order;
          owners
        end)
  in
  { graph = g; first_router; as_of_router; link_router }

let expand_tier1 ?links_per_router ?max_routers ~seed (topo : Generator.t) =
  let tier1 =
    List.filter
      (fun v -> topo.Generator.roles.(v) = Generator.Tier1)
      (List.init (As_graph.n topo.Generator.graph) Fun.id)
  in
  expand ?links_per_router ?max_routers ~seed topo.Generator.graph ~expand:tier1
