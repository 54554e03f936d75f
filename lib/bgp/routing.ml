module As_graph = Mifo_topology.As_graph
module Relationship = Mifo_topology.Relationship
module Obs = Mifo_util.Obs

(* High-water mark of major-heap words observed at the end of every
   [compute]; at 44K ASes the routing state dominates live memory, so
   this gauge is the bench's peak-memory signal. *)
let g_peak_words = Obs.gauge "routing.peak_words"

type route_class = Customer_route | Peer_route | Provider_route

let class_rank = function Customer_route -> 0 | Peer_route -> 1 | Provider_route -> 2

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

(* Per-domain work arrays for [compute], grown to the largest graph seen
   and then reused, so the [t] it returns is all a call allocates.  A
   call uses only [0, n) and resets there whatever it reads before
   writing it.  Domain-local, so the workers of a parallel precompute
   never share one. *)
type scratch = {
  dist_cust : int array;  (* customer-route length; -1 = none *)
  export_len : int array;  (* length advertised to customers; -1 = none *)
  next : int array;  (* default next hop; -1 = none *)
  head : int array;  (* first child in the selected-route tree; -1 = leaf *)
  sibling : int array;  (* next child of the same parent *)
  work : int array;  (* the BFS queue, then the DFS stack *)
}

let make_scratch n =
  let a () = Array.make n (-1) in
  {
    dist_cust = a ();
    export_len = a ();
    next = a ();
    head = a ();
    sibling = a ();
    work = a ();
  }

let scratch_key = Domain.DLS.new_key (fun () -> make_scratch 0)

let scratch n =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.next >= n then s
  else begin
    let s = make_scratch n in
    Domain.DLS.set scratch_key s;
    s
  end

(* The neighbor in [cands] minimizing (advertised length, id) among those
   that advertise a route ([adv.(nb) < 0] = none), or [-1]. *)
let best_via cands (adv : int array) =
  let best = ref (-1) and best_len = ref max_int in
  for i = 0 to Array.length cands - 1 do
    let nb = cands.(i) in
    let l = adv.(nb) in
    if l >= 0 && (l < !best_len || (l = !best_len && nb < !best)) then begin
      best := nb;
      best_len := l
    end
  done;
  !best

(* Packed DFS times over the selected-route tree rooted at [d].  Children
   are threaded through [head]/[sibling], latest-linked (= highest id)
   first; the stack holds [2v] (enter v) and [2v+1] (exit v), and pushing
   children highest id first visits them lowest id first.  A node's exit
   code takes its enter code's slot, so the stack never holds more than
   [n] codes. *)
let build_tree s n d =
  let next = s.next and head = s.head and sibling = s.sibling and stack = s.work in
  Array.fill head 0 n (-1);
  for v = 0 to n - 1 do
    let p = next.(v) in
    if p >= 0 then begin
      sibling.(v) <- head.(p);
      head.(p) <- v
    end
  done;
  let tree = Array.make n (-1) in
  let clock = ref 0 and sp = ref 1 in
  stack.(0) <- 2 * d;
  while !sp > 0 do
    decr sp;
    let code = stack.(!sp) in
    let v = code lsr 1 in
    if code land 1 = 0 then begin
      tree.(v) <- !clock lsl 32;
      incr clock;
      stack.(!sp) <- code lor 1;
      incr sp;
      let c = ref head.(v) in
      while !c >= 0 do
        stack.(!sp) <- 2 * !c;
        incr sp;
        c := sibling.(!c)
      done
    end
    else begin
      (* the exit stamp completes the entry stamp in the high half *)
      tree.(v) <- tree.(v) lor !clock;
      incr clock
    end
  done;
  tree

let[@inline] tree_ancestor tree ~node x =
  let a = tree.(node) and b = tree.(x) in
  a >= 0 && b >= 0 && b lsr 32 <= a lsr 32 && a land 0xFFFFFFFF <= b land 0xFFFFFFFF

(* Routes [v] accepts from [nbrs]: a live advertisement the BGP loop
   filter keeps, i.e. [v] is not on the neighbor's selected path. *)
let count_admissible tree v nbrs (adv : int array) =
  let c = ref 0 in
  for i = 0 to Array.length nbrs - 1 do
    let nb = nbrs.(i) in
    if adv.(nb) >= 0 && not (tree_ancestor tree ~node:nb v) then incr c
  done;
  !c

(* Writes the cells [count_admissible] counts from [cells.(p)] on, in
   [nbrs] order; returns the next free cell. *)
let push_admissible cells p tree v rank nbrs (adv : int array) =
  let p = ref p in
  for i = 0 to Array.length nbrs - 1 do
    let nb = nbrs.(i) in
    let l = adv.(nb) in
    if l >= 0 && not (tree_ancestor tree ~node:nb v) then begin
      cells.(!p) <- (rank lsl 60) lor ((1 + l) lsl 32) lor nb;
      incr p
    end
  done;
  !p

let compute g d =
  let n = As_graph.n g in
  if d < 0 || d >= n then invalid_arg "Routing.compute: destination out of range";
  let s = scratch n in
  let dist_cust = s.dist_cust and export_len = s.export_len and next = s.next in
  Array.fill dist_cust 0 n (-1);
  (* Phase 1 — customer routes: BFS from the destination along
     customer->provider edges; an AS has a customer route iff some chain of
     successive customers leads down to d. *)
  let queue = s.work in
  dist_cust.(d) <- 0;
  queue.(0) <- d;
  let qhead = ref 0 and qtail = ref 1 in
  while !qhead < !qtail do
    let v = queue.(!qhead) in
    incr qhead;
    let ps = As_graph.providers g v in
    for i = 0 to Array.length ps - 1 do
      let p = ps.(i) in
      if dist_cust.(p) < 0 then begin
        dist_cust.(p) <- dist_cust.(v) + 1;
        queue.(!qtail) <- p;
        incr qtail
      end
    done
  done;
  (* Phases 2 and 3 — the selected route and default next hop of every
     AS, in provider-before-customer order: the best neighbor of the best
     class.  A customer exports to its provider, and a peer to its peer,
     only customer routes, so a peer route is usable iff the peer has a
     customer route.  A provider advertises its selected route to
     customers, whatever its class, so export_len is fixed top-down. *)
  for i = 0 to n - 1 do
    let v = As_graph.topological_at g i in
    if v = d then begin
      export_len.(v) <- 0;
      next.(v) <- -1
    end
    else if dist_cust.(v) >= 0 then begin
      export_len.(v) <- dist_cust.(v);
      next.(v) <- best_via (As_graph.customers g v) dist_cust
    end
    else begin
      let nb = best_via (As_graph.peers g v) dist_cust in
      if nb >= 0 then begin
        export_len.(v) <- 1 + dist_cust.(nb);
        next.(v) <- nb
      end
      else begin
        let nb = best_via (As_graph.providers g v) export_len in
        export_len.(v) <- (if nb >= 0 then 1 + export_len.(nb) else -1);
        next.(v) <- nb
      end
    end
  done;
  let tree = build_tree s n d in
  (* Admissibility: a customer or peer neighbor advertises its best
     customer route, a provider its selected route, and the BGP loop
     filter drops routes whose AS path runs through us (an ancestor query
     on the route tree). *)
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <-
      off.(v)
      + (if v = d then 0
         else
           count_admissible tree v (As_graph.customers g v) dist_cust
           + count_admissible tree v (As_graph.peers g v) dist_cust
           + count_admissible tree v (As_graph.providers g v) export_len)
  done;
  let cells = Array.make off.(n) 0 in
  for v = 0 to n - 1 do
    if v <> d then begin
      let p = push_admissible cells off.(v) tree v 0 (As_graph.customers g v) dist_cust in
      let p = push_admissible cells p tree v 1 (As_graph.peers g v) dist_cust in
      ignore (push_admissible cells p tree v 2 (As_graph.providers g v) export_len : int);
      (* Sort the segment: ascending packed ints = RIB order.  The
         classes were pushed in rank order, so only (len, via) within
         each class is out of order; the heapsort is O(k log k) even
         on tier-1 hubs with thousands of entries. *)
      Mifo_util.Sort.sort_ints cells off.(v) (off.(v + 1) - off.(v))
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
