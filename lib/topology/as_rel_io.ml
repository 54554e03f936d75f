type loaded = { graph : As_graph.t; as_number : int array }

exception Parse_error of int * string

let fail line msg = raise (Parse_error (line, msg))

(* ASNs are 32-bit (RFC 6793). *)
let max_asn = 0xFFFF_FFFF

(* A provider cycle in a graph [As_graph.create] rejected as cyclic, as
   dense ids, each a provider of the next and the last of the first.
   Kahn's peel, providers first, removes every node whose provider
   chains never reach a cycle; each node left has a provider that is
   left too, so climbing providers from any of them must revisit a
   node. *)
let provider_cycle n edges =
  let providers = Array.make n [] and customers = Array.make n [] in
  List.iter
    (fun (u, v, kind) ->
      if kind = As_graph.Provider_customer then begin
        providers.(v) <- u :: providers.(v);
        customers.(u) <- v :: customers.(u)
      end)
    edges;
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
  let edges = ref [] in
  let first_seen = Hashtbl.create 1024 in
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
          let key = (Stdlib.min a b, Stdlib.max a b) in
          (match Hashtbl.find_opt first_seen key with
           | Some first ->
             fail lineno
               (Printf.sprintf "duplicate link between AS%d and AS%d (first on line %d)" a b
                  first)
           | None -> Hashtbl.add first_seen key lineno);
          (* explicit lets: OCaml evaluates tuple components right to
             left, and we want ids assigned in reading order *)
          let ia = intern a in
          let ib = intern b in
          edges := (ia, ib, kind) :: !edges
        | _ -> fail lineno "expected <as1>|<as2>|<rel>"
      end)
    lines;
  let as_number = Mifo_util.Vec.to_array numbers in
  let n = Array.length as_number in
  if n = 0 then fail 0 "no links in input";
  let graph =
    try As_graph.create ~n ~edges:!edges with
    | As_graph.Cyclic_provider_graph ->
      let cycle = provider_cycle n !edges in
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
