type loaded = { graph : As_graph.t; as_number : int array }

exception Parse_error of int * string

let fail line msg = raise (Parse_error (line, msg))

(* ASNs are 32-bit (RFC 6793). *)
let max_asn = 0xFFFF_FFFF

(* A provider cycle in a graph [As_graph.of_edges] rejected as cyclic, as
   dense ids, each a provider of the next and the last of the first.
   Kahn's peel, providers first, removes every node whose provider
   chains never reach a cycle; each node left has a provider that is
   left too, so climbing providers from any of them must revisit a
   node. *)
let provider_cycle n (e : As_graph.Edges.t) =
  let providers = Array.make n [] and customers = Array.make n [] in
  (* newest edge first, so each list ends up in reading order *)
  for i = e.length - 1 downto 0 do
    match e.kind.(i) with
    | As_graph.Provider_customer ->
      let u = e.u.(i) and v = e.v.(i) in
      providers.(v) <- u :: providers.(v);
      customers.(u) <- v :: customers.(u)
    | As_graph.Peer_peer -> ()
  done;
  let left = Array.map List.length providers in
  let queue = Queue.create () in
  Array.iteri (fun v k -> if k = 0 then Queue.add v queue) left;
  while not (Queue.is_empty queue) do
    List.iter
      (fun c ->
        left.(c) <- left.(c) - 1;
        if left.(c) = 0 then Queue.add c queue)
      customers.(Queue.pop queue)
  done;
  let on_walk = Array.make n false in
  let rec climb v walk =
    if on_walk.(v) then
      (* [walk] is most recent first; the cycle is its prefix up to [v],
         already in provider-to-customer order *)
      let rec upto = function [] -> [] | x :: tl -> if x = v then [ x ] else x :: upto tl in
      upto walk
    else begin
      on_walk.(v) <- true;
      climb (List.find (fun p -> left.(p) > 0) providers.(v)) (v :: walk)
    end
  in
  let rec first_left v = if left.(v) > 0 then v else first_left (v + 1) in
  climb (first_left 0) []

let parse_string text =
  let ids = Hashtbl.create 1024 in
  let numbers = Mifo_util.Vec.create () in
  let intern asn =
    match Hashtbl.find_opt ids asn with
    | Some id -> id
    | None ->
      let id = Mifo_util.Vec.length numbers in
      Hashtbl.add ids asn id;
      Mifo_util.Vec.push numbers asn;
      id
  in
  let edges = As_graph.Edges.create 1024 in
  let seen = Pair_set.create 1024 in
  (* the line each edge was read from *)
  let line_of = Mifo_util.Vec.create () in
  let first_line ia ib =
    let e = edges.As_graph.Edges.u and f = edges.As_graph.Edges.v in
    let i = ref 0 in
    while not ((e.(!i) = ia && f.(!i) = ib) || (e.(!i) = ib && f.(!i) = ia)) do
      incr i
    done;
    Mifo_util.Vec.get line_of !i
  in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then begin
        match String.split_on_char '|' line with
        | [ a; b; r ] | a :: b :: r :: _ :: [] ->
          let asn s =
            match Mifo_util.Decimal.of_string_opt (String.trim s) with
            | Some v when v <= max_asn -> v
            | Some _ | None ->
              fail lineno (Printf.sprintf "bad AS number %S (want decimal 0..%d)" s max_asn)
          in
          let a = asn a and b = asn b in
          let kind =
            match String.trim r with
            | "-1" -> As_graph.Provider_customer
            | "0" -> As_graph.Peer_peer
            | other -> fail lineno (Printf.sprintf "unknown relationship %S" other)
          in
          if a = b then fail lineno (Printf.sprintf "self-loop at AS%d" a);
          (* [a] before [b]: ids are assigned in reading order *)
          let ia = intern a in
          let ib = intern b in
          if not (Pair_set.add seen ia ib) then
            fail lineno
              (Printf.sprintf "duplicate link between AS%d and AS%d (first on line %d)" a b
                 (first_line ia ib));
          As_graph.Edges.push edges ia ib kind;
          Mifo_util.Vec.push line_of lineno
        | _ -> fail lineno "expected <as1>|<as2>|<rel>"
      end)
    lines;
  let as_number = Mifo_util.Vec.to_array numbers in
  let n = Array.length as_number in
  if n = 0 then fail 0 "no links in input";
  let graph =
    try As_graph.of_edges ~n edges with
    | As_graph.Cyclic_provider_graph ->
      let cycle = provider_cycle n edges in
      let names =
        List.map (fun v -> Printf.sprintf "AS%d" as_number.(v)) (cycle @ [ List.hd cycle ])
      in
      fail 0 ("provider cycle: " ^ String.concat " -> " names)
  in
  { graph; as_number }

let load path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse_string text

let to_string ?as_number graph =
  let name =
    match as_number with
    | Some a -> fun v -> a.(v)
    | None -> fun v -> v
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "# as-rel: <provider-or-peer>|<customer-or-peer>|<-1:p2c 0:p2p>\n";
  As_graph.fold_edges graph ~init:() ~f:(fun () u v kind ->
      let r = match kind with As_graph.Provider_customer -> -1 | As_graph.Peer_peer -> 0 in
      Buffer.add_string buf (Printf.sprintf "%d|%d|%d\n" (name u) (name v) r));
  Buffer.contents buf

let save ?as_number path graph =
  let oc = open_out_bin path in
  output_string oc (to_string ?as_number graph);
  close_out oc
