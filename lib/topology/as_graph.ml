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

module Edges = struct
  type t = {
    mutable u : int array;
    mutable v : int array;
    mutable kind : edge_kind array;
    mutable length : int;
  }

  let create cap =
    let cap = Stdlib.max 16 cap in
    { u = Array.make cap 0; v = Array.make cap 0; kind = Array.make cap Peer_peer; length = 0 }

  let grow t =
    let m = t.length in
    let u = Array.make (2 * m) 0 and v = Array.make (2 * m) 0 in
    let kind = Array.make (2 * m) Peer_peer in
    Array.blit t.u 0 u 0 m;
    Array.blit t.v 0 v 0 m;
    Array.blit t.kind 0 kind 0 m;
    t.u <- u;
    t.v <- v;
    t.kind <- kind

  let push t a b k =
    if t.length = Array.length t.u then grow t;
    let i = t.length in
    t.u.(i) <- a;
    t.v.(i) <- b;
    t.kind.(i) <- k;
    t.length <- i + 1
end

let check_endpoint n v =
  if v < 0 || v >= n then invalid_arg (Printf.sprintf "As_graph: AS id %d out of range" v)

(* Relationship codes in the low two bits of an adjacency cell
   [(neighbor lsl 2) lor code]: a segment sorted as ints is sorted by
   neighbor id. *)
let code_customer = 0
let code_provider = 1
let code_peer = 2

let of_edges ~n (e : Edges.t) =
  if n <= 0 then invalid_arg "As_graph.create: need at least one AS";
  let m = e.length and eu = e.u and ev = e.v and ek = e.kind in
  (* Validate in input order, so the first bad edge names the error. *)
  let seen = Pair_set.create m in
  let deg = Array.make n 0 in
  let pc_edges = ref 0 in
  for i = 0 to m - 1 do
    let u = eu.(i) and v = ev.(i) in
    check_endpoint n u;
    check_endpoint n v;
    if u = v then invalid_arg "As_graph.create: self-loop";
    if not (Pair_set.add seen u v) then raise (Duplicate_edge (u, v));
    deg.(u) <- deg.(u) + 1;
    deg.(v) <- deg.(v) + 1;
    match ek.(i) with Provider_customer -> incr pc_edges | Peer_peer -> ()
  done;
  (* Counting sort into one CSR buffer: node [v]'s cells are
     [off.(v) .. off.(v + 1) - 1]; [deg] becomes the fill cursor. *)
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + deg.(v);
    deg.(v) <- off.(v)
  done;
  let cells = Array.make (2 * m) 0 in
  for i = 0 to m - 1 do
    let u = eu.(i) and v = ev.(i) in
    (* a provider-customer link: u is the provider, so from u's view v
       is a customer *)
    let pc = match ek.(i) with Provider_customer -> true | Peer_peer -> false in
    let cu = if pc then code_customer else code_peer
    and cv = if pc then code_provider else code_peer in
    cells.(deg.(u)) <- (v lsl 2) lor cu;
    deg.(u) <- deg.(u) + 1;
    cells.(deg.(v)) <- (u lsl 2) lor cv;
    deg.(v) <- deg.(v) + 1
  done;
  let neighbors = Array.make n [||] and rels = Array.make n [||] in
  let customers = Array.make n [||]
  and providers = Array.make n [||]
  and peers = Array.make n [||] in
  for v = 0 to n - 1 do
    let base = off.(v) and d = off.(v + 1) - off.(v) in
    Mifo_util.Sort.sort_ints cells base d;
    let nc = ref 0 and np = ref 0 in
    for j = base to base + d - 1 do
      let c = cells.(j) land 3 in
      if c = code_customer then incr nc else if c = code_provider then incr np
    done;
    let nbrs = Array.make d 0 and rl = Array.make d Relationship.Customer in
    let cs = Array.make !nc 0 and ps = Array.make !np 0 and qs = Array.make (d - !nc - !np) 0 in
    let ic = ref 0 and ip = ref 0 and iq = ref 0 in
    for j = 0 to d - 1 do
      let cell = cells.(base + j) in
      let w = cell lsr 2 and c = cell land 3 in
      nbrs.(j) <- w;
      if c = code_customer then begin
        cs.(!ic) <- w;
        incr ic
      end
      else if c = code_provider then begin
        rl.(j) <- Relationship.Provider;
        ps.(!ip) <- w;
        incr ip
      end
      else begin
        rl.(j) <- Relationship.Peer;
        qs.(!iq) <- w;
        incr iq
      end
    done;
    neighbors.(v) <- nbrs;
    rels.(v) <- rl;
    customers.(v) <- cs;
    providers.(v) <- ps;
    peers.(v) <- qs
  done;
  (* Kahn's algorithm over provider->customer edges: levels and the
     topological order fall out together; a leftover node means a cycle.
     The queue is [topo] itself: nodes leave it in the order they
     entered. *)
  let indegree = deg in
  for v = 0 to n - 1 do
    indegree.(v) <- Array.length providers.(v)
  done;
  let level = Array.make n 0 in
  let topo = Array.make n (-1) in
  let tail = ref 0 in
  for v = 0 to n - 1 do
    if indegree.(v) = 0 then begin
      topo.(!tail) <- v;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let v = topo.(!head) in
    incr head;
    let cs = customers.(v) in
    for j = 0 to Array.length cs - 1 do
      let c = cs.(j) in
      if level.(v) + 1 > level.(c) then level.(c) <- level.(v) + 1;
      indegree.(c) <- indegree.(c) - 1;
      if indegree.(c) = 0 then begin
        topo.(!tail) <- c;
        incr tail
      end
    done
  done;
  if !tail <> n then raise Cyclic_provider_graph;
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
    peer_edges = m - !pc_edges;
  }

let create ~n ~edges =
  let e = Edges.create (List.length edges) in
  List.iter (fun (u, v, kind) -> Edges.push e u v kind) edges;
  of_edges ~n e

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
  let lo = ref 0 and hi = ref (Array.length nbrs - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let x = nbrs.(mid) in
    if x = v then begin
      found := mid;
      lo := !hi + 1
    end
    else if x < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

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
