(* The production builder as it stood before the flat-array rewrite,
   kept verbatim apart from the module paths. *)
module As_graph = Mifo_topology.As_graph
module Relationship = Mifo_topology.Relationship

open As_graph

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
