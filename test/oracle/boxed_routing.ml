(* The original per-node Gao-Rexford computation, kept as the oracle for
   Mifo_bgp.Routing: per-node route arrays and the DFS times of the
   selected-route tree per destination, and each RIB computed on demand
   by scanning the neighborhood and sorting.  Routing derives all of
   this from one packed CSR arena; the gates in test_bgp assert the two
   agree at every node. *)

module As_graph = Mifo_topology.As_graph
module Relationship = Mifo_topology.Relationship
module Routing = Mifo_bgp.Routing

type t = {
  graph : As_graph.t;
  dest : int;
  dist_cust : int array;  (* best customer-route length; -1 = none *)
  export_len : int array;  (* best route length (selected); -1 = unreachable *)
  best_class : int array;  (* 0/1/2 = customer/peer/provider; -1 at dest or unreachable *)
  next : int array;  (* default next hop; -1 at dest or unreachable *)
  tin : int array;  (* DFS entry/exit times of the selected-route tree *)
  tout : int array;
}

(* Pick the neighbor minimizing (advertised length, id) among candidates
   that actually have a route. *)
let best_via candidates route_len =
  let best = ref (-1) and best_len = ref max_int in
  Array.iter
    (fun nb ->
      match route_len nb with
      | None -> ()
      | Some l ->
        if l < !best_len || (l = !best_len && nb < !best) then begin
          best := nb;
          best_len := l
        end)
    candidates;
  if !best < 0 then None else Some (!best, 1 + !best_len)

let build_tree_times n next d =
  let children = Array.make n [] in
  for v = 0 to n - 1 do
    let p = next.(v) in
    if p >= 0 then children.(p) <- v :: children.(p)
  done;
  let tin = Array.make n (-1) and tout = Array.make n (-1) in
  let clock = ref 0 in
  let stack = Stack.create () in
  Stack.push (d, true) stack;
  while not (Stack.is_empty stack) do
    let v, entering = Stack.pop stack in
    if entering then begin
      tin.(v) <- !clock;
      incr clock;
      Stack.push (v, false) stack;
      List.iter (fun c -> Stack.push (c, true) stack) children.(v)
    end
    else begin
      tout.(v) <- !clock;
      incr clock
    end
  done;
  (tin, tout)

let compute g d =
  let n = As_graph.n g in
  if d < 0 || d >= n then invalid_arg "Boxed_routing.compute: destination out of range";
  let dist_cust = Array.make n (-1) in
  let peer_len = Array.make n (-1) in
  let prov_len = Array.make n (-1) in
  let export_len = Array.make n (-1) in
  let best_class = Array.make n (-1) in
  let next = Array.make n (-1) in
  (* Phase 1 — customer routes: BFS up the customer->provider edges. *)
  dist_cust.(d) <- 0;
  let queue = Queue.create () in
  Queue.add d queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun p ->
        if dist_cust.(p) < 0 then begin
          dist_cust.(p) <- dist_cust.(v) + 1;
          Queue.add p queue
        end)
      (As_graph.providers g v)
  done;
  (* Phase 2 — peer routes via peers that hold a customer route. *)
  for v = 0 to n - 1 do
    if v <> d then begin
      let via_peer nb = if dist_cust.(nb) >= 0 then Some dist_cust.(nb) else None in
      match best_via (As_graph.peers g v) via_peer with
      | Some (_, l) -> peer_len.(v) <- l
      | None -> ()
    end
  done;
  (* Phase 3 — provider routes, providers before customers. *)
  let selected v =
    if v = d then Some (-1, 0)
    else if dist_cust.(v) >= 0 then Some (0, dist_cust.(v))
    else if peer_len.(v) >= 0 then Some (1, peer_len.(v))
    else if prov_len.(v) >= 0 then Some (2, prov_len.(v))
    else None
  in
  Array.iter
    (fun v ->
      if v <> d then begin
        let via_provider nb = if export_len.(nb) >= 0 then Some export_len.(nb) else None in
        (match best_via (As_graph.providers g v) via_provider with
         | Some (_, l) -> prov_len.(v) <- l
         | None -> ());
        match selected v with Some (_, l) -> export_len.(v) <- l | None -> ()
      end
      else export_len.(v) <- 0)
    (As_graph.topological_order g);
  (* Default next hops from the final class decision. *)
  for v = 0 to n - 1 do
    if v <> d then begin
      let via_customer nb = if dist_cust.(nb) >= 0 then Some dist_cust.(nb) else None in
      let via_provider nb = if export_len.(nb) >= 0 then Some export_len.(nb) else None in
      let set cls expected candidates route_len =
        best_class.(v) <- cls;
        match best_via candidates route_len with
        | Some (nb, l) ->
          assert (l = expected);
          next.(v) <- nb
        | None -> assert false
      in
      if dist_cust.(v) >= 0 then set 0 dist_cust.(v) (As_graph.customers g v) via_customer
      else if peer_len.(v) >= 0 then set 1 peer_len.(v) (As_graph.peers g v) via_customer
      else if prov_len.(v) >= 0 then set 2 prov_len.(v) (As_graph.providers g v) via_provider
    end
  done;
  let tin, tout = build_tree_times n next d in
  { graph = g; dest = d; dist_cust; export_len; best_class; next; tin; tout }

let opt x = if x < 0 then None else Some x
let reachable t v = v = t.dest || t.export_len.(v) >= 0

let best_class t v : Routing.route_class option =
  if v = t.dest then None
  else
    match t.best_class.(v) with
    | 0 -> Some Customer_route
    | 1 -> Some Peer_route
    | 2 -> Some Provider_route
    | _ -> None

let best_len t v =
  if v = t.dest then 0
  else if t.export_len.(v) < 0 then invalid_arg "Boxed_routing.best_len: unreachable"
  else t.export_len.(v)

let next_hop t v = opt t.next.(v)
let customer_route_len t v = opt t.dist_cust.(v)
let export_len t v = opt t.export_len.(v)

let on_selected_path t ~node x =
  t.tin.(node) >= 0
  && t.tin.(x) >= 0
  && t.tin.(x) <= t.tin.(node)
  && t.tout.(node) <= t.tout.(x)

let entry_order (a : Routing.rib_entry) (b : Routing.rib_entry) =
  compare
    (Relationship.preference_rank a.rel, a.len, a.via)
    (Relationship.preference_rank b.rel, b.len, b.via)

let rib_array t v : Routing.rib_entry array =
  if v = t.dest then [||]
  else begin
    let entries = ref [] in
    Array.iter
      (fun nb ->
        let rel = As_graph.rel_exn t.graph v nb in
        let advertised =
          match rel with
          | Relationship.Customer | Relationship.Peer -> t.dist_cust.(nb)
          | Relationship.Provider -> t.export_len.(nb)
        in
        (* BGP loop filter: the neighbor's exported path is its selected
           default path, so a route through us is an ancestor query. *)
        if advertised >= 0 && not (on_selected_path t ~node:nb v) then
          entries := { Routing.via = nb; rel; len = 1 + advertised } :: !entries)
      (As_graph.neighbors t.graph v);
    let arr = Array.of_list !entries in
    Array.sort entry_order arr;
    arr
  end

let rib t v = Array.to_list (rib_array t v)
