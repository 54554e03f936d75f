type edge_kind = Provider_customer | Peer_peer

exception Cyclic_provider_graph
exception Duplicate_edge of int * int

type t = {
  n : int;
  neighbors : int array array;  (* sorted per node *)
  rels : Relationship.t array array;  (* parallel to [neighbors] *)
  customers : int array array;
  providers : int array array;
  peers : int array array;
  level : int array;
  topo : int array;
  pc_edges : int;
  peer_edges : int;
}

let check_endpoint n v =
  if v < 0 || v >= n then invalid_arg (Printf.sprintf "As_graph: AS id %d out of range" v)

let create ~n ~edges =
  if n <= 0 then invalid_arg "As_graph.create: need at least one AS";
  let seen = Hashtbl.create (List.length edges) in
  let adj = Array.make n [] in
  let pc_edges = ref 0 and peer_edges = ref 0 in
  let add_edge u v kind =
    check_endpoint n u;
    check_endpoint n v;
    if u = v then invalid_arg "As_graph.create: self-loop";
    let key = if u < v then (u, v) else (v, u) in
    if Hashtbl.mem seen key then raise (Duplicate_edge (u, v));
    Hashtbl.add seen key ();
    match kind with
    | Provider_customer ->
      incr pc_edges;
      (* u is provider: from u's view, v is a Customer *)
      adj.(u) <- (v, Relationship.Customer) :: adj.(u);
      adj.(v) <- (u, Relationship.Provider) :: adj.(v)
    | Peer_peer ->
      incr peer_edges;
      adj.(u) <- (v, Relationship.Peer) :: adj.(u);
      adj.(v) <- (u, Relationship.Peer) :: adj.(v)
  in
  List.iter (fun (u, v, kind) -> add_edge u v kind) edges;
  let neighbors = Array.make n [||] and rels = Array.make n [||] in
  let customers = Array.make n [||]
  and providers = Array.make n [||]
  and peers = Array.make n [||] in
  for v = 0 to n - 1 do
    let sorted = List.sort (fun (a, _) (b, _) -> compare a b) adj.(v) in
    neighbors.(v) <- Array.of_list (List.map fst sorted);
    rels.(v) <- Array.of_list (List.map snd sorted);
    let filter r =
      sorted |> List.filter (fun (_, r') -> Relationship.equal r r') |> List.map fst
      |> Array.of_list
    in
    customers.(v) <- filter Relationship.Customer;
    providers.(v) <- filter Relationship.Provider;
    peers.(v) <- filter Relationship.Peer
  done;
  (* Kahn's algorithm over provider->customer edges: levels and the
     topological order fall out together; a leftover node means a cycle. *)
  let indegree = Array.make n 0 in
  for v = 0 to n - 1 do
    indegree.(v) <- Array.length providers.(v)
  done;
  let level = Array.make n 0 in
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    if indegree.(v) = 0 then Queue.add v queue
  done;
  let topo = Array.make n (-1) in
  let placed = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    topo.(!placed) <- v;
    incr placed;
    Array.iter
      (fun c ->
        if level.(v) + 1 > level.(c) then level.(c) <- level.(v) + 1;
        indegree.(c) <- indegree.(c) - 1;
        if indegree.(c) = 0 then Queue.add c queue)
      customers.(v)
  done;
  if !placed <> n then raise Cyclic_provider_graph;
  {
    n;
    neighbors;
    rels;
    customers;
    providers;
    peers;
    level;
    topo;
    pc_edges = !pc_edges;
    peer_edges = !peer_edges;
  }

let n t = t.n
let edge_count t = t.pc_edges + t.peer_edges
let pc_edge_count t = t.pc_edges
let peer_edge_count t = t.peer_edges
let neighbors t v = t.neighbors.(v)
let customers t v = t.customers.(v)
let providers t v = t.providers.(v)
let peers t v = t.peers.(v)
let degree t v = Array.length t.neighbors.(v)

let neighbor_index t u v =
  let nbrs = t.neighbors.(u) in
  let rec search lo hi =
    if lo > hi then -1
    else
      let mid = (lo + hi) / 2 in
      if nbrs.(mid) = v then mid
      else if nbrs.(mid) < v then search (mid + 1) hi
      else search lo (mid - 1)
  in
  search 0 (Array.length nbrs - 1)

let rel t u v =
  match neighbor_index t u v with -1 -> None | i -> Some t.rels.(u).(i)

let rel_exn t u v = match rel t u v with Some r -> r | None -> raise Not_found
let level t v = t.level.(v)

let topological_order t = Array.copy t.topo
let topological_at t i = t.topo.(i)
let is_stub t v = Array.length t.customers.(v) = 0

let fold_edges t ~init ~f =
  let acc = ref init in
  for u = 0 to t.n - 1 do
    let nbrs = t.neighbors.(u) and rels = t.rels.(u) in
    for i = 0 to Array.length nbrs - 1 do
      let v = nbrs.(i) in
      match rels.(i) with
      | Relationship.Customer -> acc := f !acc u v Provider_customer
      | Relationship.Peer -> if u < v then acc := f !acc u v Peer_peer
      | Relationship.Provider -> ()
    done
  done;
  !acc

let hop_of t u v = Relationship.hop_of (rel_exn t u v)

let path_is_valley_free t path =
  let rec hops = function
    | [] | [ _ ] -> []
    | u :: (v :: _ as rest) -> hop_of t u v :: hops rest
  in
  Relationship.valley_free (hops path)
