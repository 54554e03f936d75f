(* The original FIB layout, kept as the oracle for Mifo_core.Fib's flat
   open-addressed arena: per prefix length, a Hashtbl from the network
   address to a boxed entry whose ranked alternative slots are an
   array, compacted, -1 past the last live slot. *)

module Prefix = Mifo_bgp.Prefix

let max_alts = Mifo_core.Fib.max_alts

type entry = { mutable out : int; alts : int array; mutable defl : int }
type t = (int, entry) Hashtbl.t array

let create () = Array.init 33 (fun _ -> Hashtbl.create 16)
let key addr = Int32.to_int addr land 0xFFFFFFFF
let mask len = if len = 0 then 0 else (0xFFFFFFFF lsl (32 - len)) land 0xFFFFFFFF

(* Same out_port: the alt hint is authoritative — none clears the set
   and the ramp, the current primary keeps both, a new one replaces the
   set with the singleton.  A new out_port is a route change. *)
let insert t (p : Prefix.t) ~out_port ?(alt_port = -1) () =
  let table = t.(p.length) and k = key p.network in
  match Hashtbl.find_opt table k with
  | Some e when e.out = out_port && alt_port < 0 ->
    Array.fill e.alts 0 max_alts (-1);
    e.defl <- 0
  | Some e when e.out = out_port && alt_port = e.alts.(0) -> ()
  | Some e ->
    e.out <- out_port;
    Array.fill e.alts 0 max_alts (-1);
    e.alts.(0) <- alt_port;
    e.defl <- 0
  | None ->
    let alts = Array.make max_alts (-1) in
    alts.(0) <- alt_port;
    Hashtbl.replace table k { out = out_port; alts; defl = 0 }

let find t (p : Prefix.t) = Hashtbl.find_opt t.(p.length) (key p.network)

let lookup t addr =
  let a = key addr in
  let rec scan len =
    if len < 0 then None
    else
      match Hashtbl.find_opt t.(len) (a land mask len) with
      | Some _ as r -> r
      | None -> scan (len - 1)
  in
  scan 32

let iter t f =
  Array.iteri
    (fun len table -> Hashtbl.iter (fun k e -> f (Prefix.make (Int32.of_int k) len) e) table)
    t

let size t = Array.fold_left (fun acc table -> acc + Hashtbl.length table) 0 t

let may_deflect t =
  Array.exists (fun table -> Hashtbl.fold (fun _ e acc -> acc || e.alts.(0) >= 0) table false) t

(* Field readers and writers take the table, as the flat store's do. *)
let out_port _ e = e.out
let alt_at _ e slot = if slot < 0 || slot >= max_alts then -1 else e.alts.(slot)
let deflect_buckets _ e = e.defl
let set_deflect_buckets _ e n = e.defl <- n

let set_alts _ e ports n =
  Array.fill e.alts 0 max_alts (-1);
  List.iteri
    (fun i p -> if i < max_alts then e.alts.(i) <- p)
    (List.filter (fun p -> p >= 0) (Array.to_list (Array.sub ports 0 n)))
