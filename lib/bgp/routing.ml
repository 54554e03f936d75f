module As_graph = Mifo_topology.As_graph
module Relationship = Mifo_topology.Relationship
module Obs = Mifo_util.Obs

(* High-water mark of major-heap words observed at the end of every
   [compute]; at 44K ASes the routing state dominates live memory, so
   this gauge is the bench's peak-memory signal. *)
let g_peak_words = Obs.gauge "routing.peak_words"

type route_class = Customer_route | Peer_route | Provider_route

let class_rank = function Customer_route -> 0 | Peer_route -> 1 | Provider_route -> 2

let class_to_string = function
  | Customer_route -> "customer"
  | Peer_route -> "peer"
  | Provider_route -> "provider"

type rib_entry = { via : int; rel : Relationship.t; len : int }

type t = {
  graph : As_graph.t;
  dest : int;
  csr_off : int array;
      (* Every node's sorted RIB in one flat arena: node [v]'s entries
         are [csr_cells.(csr_off.(v)) .. csr_cells.(csr_off.(v+1) - 1)],
         each cell a packed [(preference_rank lsl 60) lor (len lsl 32)
         lor via] int, so ascending int order IS the RIB order.  Cell 0
         of a segment is the selected route, from which every per-node
         accessor derives; the destination and unreachable nodes have
         empty segments. *)
  csr_cells : int array;
  tree : int array;
      (* DFS entry/exit times of the selected-route tree (parent =
         default next hop, root = dest), packed [(tin lsl 32) lor tout];
         [-1] off the tree.  [x] lies on [n]'s selected path iff [x] is
         an ancestor of [n], an O(1) interval test. *)
}

let dest t = t.dest

(* Pick the neighbor minimizing (advertised length, id) among candidates
   that actually have a route ([route_len nb < 0] = none). *)
let best_via candidates route_len =
  let best = ref (-1) and best_len = ref max_int in
  Array.iter
    (fun nb ->
      let l = route_len nb in
      if l >= 0 && (l < !best_len || (l = !best_len && nb < !best)) then begin
        best := nb;
        best_len := l
      end)
    candidates;
  !best

(* Packed DFS times over the selected-route tree rooted at [d]. *)
let build_tree n next d =
  let children = Array.make n [] in
  for v = 0 to n - 1 do
    let p = next.(v) in
    if p >= 0 then children.(p) <- v :: children.(p)
  done;
  let tree = Array.make n (-1) in
  let clock = ref 0 in
  (* iterative DFS: (node, Enter | Exit); the exit stamp completes the
     entry stamp already written in the high half *)
  let stack = Stack.create () in
  Stack.push (d, true) stack;
  while not (Stack.is_empty stack) do
    let v, entering = Stack.pop stack in
    if entering then begin
      tree.(v) <- !clock lsl 32;
      incr clock;
      Stack.push (v, false) stack;
      List.iter (fun c -> Stack.push (c, true) stack) children.(v)
    end
    else begin
      tree.(v) <- tree.(v) lor !clock;
      incr clock
    end
  done;
  tree

let[@inline] tree_ancestor tree ~node x =
  let a = tree.(node) and b = tree.(x) in
  a >= 0 && b >= 0 && b lsr 32 <= a lsr 32 && a land 0xFFFFFFFF <= b land 0xFFFFFFFF

let compute g d =
  let n = As_graph.n g in
  if d < 0 || d >= n then invalid_arg "Routing.compute: destination out of range";
  (* Phase arrays: temporaries, not retained — the CSR arena built from
     them encodes every route they describe. *)
  let dist_cust = Array.make n (-1) in
  let peer_len = Array.make n (-1) in
  let prov_len = Array.make n (-1) in
  let export_len = Array.make n (-1) in
  let next = Array.make n (-1) in
  (* Phase 1 — customer routes: BFS from the destination along
     customer->provider edges; an AS has a customer route iff some chain of
     successive customers leads down to d. *)
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
  (* Phase 2 — peer routes: usable iff the peer's best route is a customer
     route (export policy), i.e. iff the peer has a customer route. *)
  let via_customer nb = dist_cust.(nb) in
  for v = 0 to n - 1 do
    if v <> d then begin
      let nb = best_via (As_graph.peers g v) via_customer in
      if nb >= 0 then peer_len.(v) <- 1 + dist_cust.(nb)
    end
  done;
  (* Phase 3 — provider routes, in provider-before-customer order: a
     provider advertises its selected best route to customers, whatever its
     class, so export_len must be fixed top-down. *)
  let via_provider nb = export_len.(nb) in
  Array.iter
    (fun v ->
      if v <> d then begin
        let nb = best_via (As_graph.providers g v) via_provider in
        if nb >= 0 then prov_len.(v) <- 1 + export_len.(nb);
        export_len.(v) <-
          (if dist_cust.(v) >= 0 then dist_cust.(v)
           else if peer_len.(v) >= 0 then peer_len.(v)
           else prov_len.(v))
      end
      else export_len.(v) <- 0)
    (As_graph.topological_order g);
  (* Default next hops from the final class decision: the best neighbor
     of the best class (a customer exports to its provider, and a peer
     to its peer, only customer routes). *)
  for v = 0 to n - 1 do
    if v <> d then
      next.(v) <-
        (if dist_cust.(v) >= 0 then best_via (As_graph.customers g v) via_customer
         else if peer_len.(v) >= 0 then best_via (As_graph.peers g v) via_customer
         else if prov_len.(v) >= 0 then best_via (As_graph.providers g v) via_provider
         else -1)
  done;
  let tree = build_tree n next d in
  (* Admissibility: a customer or peer neighbor advertises its best
     customer route, a provider its selected route, and the BGP loop
     filter drops routes whose AS path runs through us (an ancestor query
     on the route tree). *)
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    if v <> d then begin
      let c = ref 0 in
      let count_class nbrs advertised =
        Array.iter
          (fun nb -> if advertised.(nb) >= 0 && not (tree_ancestor tree ~node:nb v) then incr c)
          nbrs
      in
      count_class (As_graph.customers g v) dist_cust;
      count_class (As_graph.peers g v) dist_cust;
      count_class (As_graph.providers g v) export_len;
      off.(v + 1) <- !c
    end
  done;
  let max_deg = ref 0 in
  for v = 0 to n - 1 do
    max_deg := Stdlib.max !max_deg off.(v + 1);
    off.(v + 1) <- off.(v + 1) + off.(v)
  done;
  let cells = Array.make off.(n) 0 in
  let scratch = Array.make !max_deg 0 in
  for v = 0 to n - 1 do
    if v <> d then begin
      let p = ref off.(v) in
      let push_class rank nbrs advertised =
        Array.iter
          (fun nb ->
            let adv = advertised.(nb) in
            if adv >= 0 && not (tree_ancestor tree ~node:nb v) then begin
              cells.(!p) <- (rank lsl 60) lor ((1 + adv) lsl 32) lor nb;
              incr p
            end)
          nbrs
      in
      push_class 0 (As_graph.customers g v) dist_cust;
      push_class 1 (As_graph.peers g v) dist_cust;
      push_class 2 (As_graph.providers g v) export_len;
      (* Sort the segment: ascending packed ints = RIB order.  The
         classes were pushed in rank order, so only (len, via) within
         each class is out of order; the heapsort is O(k log k) even
         on tier-1 hubs with thousands of entries. *)
      let k = !p - off.(v) in
      if k > 1 then begin
        Array.blit cells off.(v) scratch 0 k;
        Mifo_util.Sort.sort_prefix ~cmp:Int.compare scratch k;
        Array.blit scratch 0 cells off.(v) k
      end
    end
  done;
  let t = { graph = g; dest = d; csr_off = off; csr_cells = cells; tree } in
  Obs.max_gauge g_peak_words (float_of_int (Gc.quick_stat ()).Gc.heap_words);
  t

(* Packed-cell decode. *)
let[@inline] cell_via c = c land 0xFFFFFFFF
let[@inline] cell_len c = (c lsr 32) land 0xFFFFFFF

let cell_rel c =
  match c lsr 60 with
  | 0 -> Relationship.Customer
  | 1 -> Relationship.Peer
  | _ -> Relationship.Provider

let[@inline] rib_size t v = t.csr_off.(v + 1) - t.csr_off.(v)

(* Allocation-free per-entry accessors (index 0 is the default route,
   matching [rib]'s head). *)
let[@inline] rib_via t v i = cell_via t.csr_cells.(t.csr_off.(v) + i)
let[@inline] rib_len_at t v i = cell_len t.csr_cells.(t.csr_off.(v) + i)
let[@inline] rib_rel_at t v i = cell_rel t.csr_cells.(t.csr_off.(v) + i)

(* The selected route of a node other than the destination: its cell 0,
   or [-1] when the segment is empty (unreachable). *)
let[@inline] head t v = if rib_size t v = 0 then -1 else t.csr_cells.(t.csr_off.(v))

let reachable t v = v = t.dest || rib_size t v > 0

let best_class t v =
  if v = t.dest then None
  else
    let c = head t v in
    if c < 0 then None
    else
      match c lsr 60 with
      | 0 -> Some Customer_route
      | 1 -> Some Peer_route
      | _ -> Some Provider_route

let best_len t v =
  if v = t.dest then 0
  else
    let c = head t v in
    if c < 0 then invalid_arg "Routing.best_len: unreachable" else cell_len c

let next_hop t v =
  if v = t.dest then None
  else
    let c = head t v in
    if c < 0 then None else Some (cell_via c)

(* Customer routes are preferred, so an AS has one iff its selected
   route is one. *)
let customer_route_len t v =
  if v = t.dest then Some 0
  else
    let c = head t v in
    if c >= 0 && c lsr 60 = 0 then Some (cell_len c) else None

let export_len t v =
  if v = t.dest then Some 0
  else
    let c = head t v in
    if c < 0 then None else Some (cell_len c)

let default_path t s =
  let n = As_graph.n t.graph in
  let rec follow v acc steps =
    if steps > n then invalid_arg "Routing.default_path: next-hop loop (corrupt state)"
    else if v = t.dest then List.rev (v :: acc)
    else
      match next_hop t v with
      | None -> invalid_arg "Routing.default_path: unreachable source"
      | Some nb -> follow nb (v :: acc) (steps + 1)
  in
  follow s [] 0

let on_selected_path t ~node x = tree_ancestor t.tree ~node x

let rib_entry_at t v i =
  let c = t.csr_cells.(t.csr_off.(v) + i) in
  { via = cell_via c; rel = cell_rel c; len = cell_len c }

let rib_array t v = Array.init (rib_size t v) (rib_entry_at t v)

let rib t v =
  let rec build i acc = if i < 0 then acc else build (i - 1) (rib_entry_at t v i :: acc) in
  build (rib_size t v - 1) []

(* The concrete AS path behind a RIB entry.  A neighbor advertises, to a
   provider or peer, its best customer route; to a customer, its selected
   best route.  Gao-Rexford selection prefers customer routes, so
   whenever a customer route exists it IS the selected route — in every
   export case the advertised path is the neighbor's selected default
   path, and the entry's path is us prepended to it. *)
let rib_path t v (e : rib_entry) =
  (match e.rel with
   | Relationship.Customer | Relationship.Peer ->
     (* exported-to-us customer route: exists iff the neighbor has one *)
     if customer_route_len t e.via = None then
       invalid_arg "Routing.rib_path: neighbor exported no customer route"
   | Relationship.Provider ->
     if export_len t e.via = None then invalid_arg "Routing.rib_path: neighbor exported no route");
  v :: default_path t e.via

let rib_paths t v =
  List.map (fun e -> (e, rib_path t v e)) (rib t v)
