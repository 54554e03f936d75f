module As_graph = Mifo_topology.As_graph
module Relationship = Mifo_topology.Relationship

(* Phase of the valley-free walk automaton: [Rose] = the previous hop went
   customer->provider (tag bit set; any continuation allowed), [Peaked] =
   the walk has used its peer hop or started descending (only
   provider->customer hops remain).  A source starts in [Rose]. *)
type phase = Rose | Peaked

let phase_index = function Rose -> 0 | Peaked -> 1

let next_phase (hop : Relationship.hop) =
  match hop with Up -> Rose | Flat | Down -> Peaked

let hop_allowed phase (hop : Relationship.hop) =
  match phase with Rose -> true | Peaked -> hop = Down

let mifo_counts g rt ~capable =
  let n = As_graph.n g in
  let d = Routing.dest rt in
  let memo = Array.make (2 * n) (-1.0) in
  let rec count v phase =
    if v = d then 1.0
    else begin
      let key = (2 * v) + phase_index phase in
      if memo.(key) >= 0.0 then memo.(key)
      else begin
        (* Mark as in-progress with 0 so that the (impossible by
           construction, but cheap to guard) cyclic query contributes
           nothing rather than diverging. *)
        memo.(key) <- 0.0;
        let total = ref 0.0 in
        let consider nb rel =
          let hop = Relationship.hop_of rel in
          if hop_allowed phase hop then
            total := !total +. count nb (next_phase hop)
        in
        if capable v then
          for i = 0 to Routing.rib_size rt v - 1 do
            consider (Routing.rib_via rt v i) (Routing.rib_rel_at rt v i)
          done
        else begin
          match Routing.next_hop rt v with
          | Some nb -> consider nb (As_graph.rel_exn g v nb)
          | None -> ()
        end;
        memo.(key) <- !total;
        !total
      end
    end
  in
  Array.init n (fun v -> count v Rose)

let mifo_counts_many g table ~dests ~capable =
  (* Warm the table first so every domain mapping below takes the cache
     hit path; then one DP per destination, each on its own Routing.t. *)
  Routing_table.precompute table dests;
  Mifo_util.Parallel.parallel_map (Mifo_util.Parallel.get_default ())
    (fun d -> mifo_counts g (Routing_table.get table d) ~capable)
    dests

let bgp_count rt ~src =
  if src = Routing.dest rt then 1 else if Routing.reachable rt src then 1 else 0

let enumerate_mifo_paths g rt ~capable ~src ~limit =
  let d = Routing.dest rt in
  let found = ref [] and nfound = ref 0 in
  let rec walk v phase acc =
    if !nfound >= limit then ()
    else if v = d then begin
      found := List.rev (v :: acc) :: !found;
      incr nfound
    end
    else begin
      let consider nb rel =
        let hop = Relationship.hop_of rel in
        if hop_allowed phase hop then walk nb (next_phase hop) (v :: acc)
      in
      if capable v then
        for i = 0 to Routing.rib_size rt v - 1 do
          consider (Routing.rib_via rt v i) (Routing.rib_rel_at rt v i)
        done
      else
        match Routing.next_hop rt v with
        | Some nb -> consider nb (As_graph.rel_exn g v nb)
        | None -> ()
    end
  in
  walk src Rose [];
  List.rev !found
