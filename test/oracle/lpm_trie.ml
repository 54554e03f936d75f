(* A binary trie over address bits, depth <= 32, with one node per
   distinct prefix on the insertion paths.  No explicit path compression
   is needed for correctness; chains between branching points are kept
   short in practice because interdomain tables cluster at a few
   lengths.  Operations are persistent (pure). *)

module Prefix = Mifo_bgp.Prefix

type 'a t =
  | Leaf
  | Node of { value : 'a option; zero : 'a t; one : 'a t }

let empty = Leaf
let is_empty t = t = Leaf

let node value zero one =
  match (value, zero, one) with None, Leaf, Leaf -> Leaf | _ -> Node { value; zero; one }

(* bit [i] of an address, 0 = most significant *)
let bit addr i = Int32.logand (Int32.shift_right_logical addr (31 - i)) 1l = 1l

let rec cardinal = function
  | Leaf -> 0
  | Node { value; zero; one } ->
    (match value with Some _ -> 1 | None -> 0) + cardinal zero + cardinal one

let add prefix v t =
  let { Prefix.network; length } = prefix in
  let rec go depth t =
    match t with
    | Leaf ->
      if depth = length then Node { value = Some v; zero = Leaf; one = Leaf }
      else if bit network depth then Node { value = None; zero = Leaf; one = go (depth + 1) Leaf }
      else Node { value = None; zero = go (depth + 1) Leaf; one = Leaf }
    | Node { value; zero; one } ->
      if depth = length then Node { value = Some v; zero; one }
      else if bit network depth then Node { value; zero; one = go (depth + 1) one }
      else Node { value; zero = go (depth + 1) zero; one }
  in
  go 0 t

let remove prefix t =
  let { Prefix.network; length } = prefix in
  let rec go depth t =
    match t with
    | Leaf -> Leaf
    | Node { value; zero; one } ->
      if depth = length then node None zero one
      else if bit network depth then node value zero (go (depth + 1) one)
      else node value (go (depth + 1) zero) one
  in
  go 0 t

let find_exact prefix t =
  let { Prefix.network; length } = prefix in
  let rec go depth t =
    match t with
    | Leaf -> None
    | Node { value; zero; one } ->
      if depth = length then value
      else if bit network depth then go (depth + 1) one
      else go (depth + 1) zero
  in
  go 0 t

let lookup addr t =
  let rec go depth t best =
    match t with
    | Leaf -> best
    | Node { value; zero; one } ->
      let best =
        match value with
        | Some v -> Some (Prefix.make addr depth, v)
        | None -> best
      in
      if depth = 32 then best
      else if bit addr depth then go (depth + 1) one best
      else go (depth + 1) zero best
  in
  go 0 t None

let fold f t init =
  let rec go depth network t acc =
    match t with
    | Leaf -> acc
    | Node { value; zero; one } ->
      let acc =
        match value with
        | Some v -> f (Prefix.make network depth) v acc
        | None -> acc
      in
      let acc = go (depth + 1) network zero acc in
      if depth = 32 then acc
      else begin
        let network_one =
          Int32.logor network (Int32.shift_left 1l (31 - depth))
        in
        go (depth + 1) network_one one acc
      end
  in
  go 0 0l t init

let of_list bindings = List.fold_left (fun t (p, v) -> add p v t) empty bindings
let to_list t = List.rev (fold (fun p v acc -> (p, v) :: acc) t [])
