type addr = int32

let addr_of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] ->
    let byte field =
      match Mifo_util.Decimal.of_string_opt field with
      | Some v when v >= 0 && v <= 255 -> Int32.of_int v
      | _ -> invalid_arg ("Prefix.addr_of_string: " ^ s)
    in
    let ( <| ) x y = Int32.logor (Int32.shift_left x 8) y in
    byte a <| byte b <| byte c <| byte d
  | _ -> invalid_arg ("Prefix.addr_of_string: " ^ s)

let addr_to_string a =
  let byte shift = Int32.to_int (Int32.logand (Int32.shift_right_logical a shift) 0xFFl) in
  Printf.sprintf "%d.%d.%d.%d" (byte 24) (byte 16) (byte 8) (byte 0)

type t = { network : addr; length : int }

let mask length =
  if length = 0 then 0l else Int32.shift_left (-1l) (32 - length)

let make network length =
  if length < 0 || length > 32 then invalid_arg "Prefix.make: bad length";
  { network = Int32.logand network (mask length); length }

let of_string s =
  match String.split_on_char '/' s with
  | [ addr; len ] ->
    (match Mifo_util.Decimal.of_string_opt len with
     | Some l -> make (addr_of_string addr) l
     | None -> invalid_arg ("Prefix.of_string: " ^ s))
  | _ -> invalid_arg ("Prefix.of_string: " ^ s)

let to_string t = Printf.sprintf "%s/%d" (addr_to_string t.network) t.length
let contains t a = Int32.logand a (mask t.length) = t.network
(* The [(network, length)] order, field by field, so that a comparison
   allocates nothing: the daemon's choosers run it per FIB entry. *)
let compare a b = (* lint:allow: the definition, not a polymorphic call *)
  let c = Int32.compare a.network b.network in
  if c <> 0 then c else Int.compare a.length b.length

let equal a b = Int32.equal a.network b.network && a.length = b.length

(* 10.x.y.0/24 with x.y encoding the AS id: supports 65536 ASes, which is
   more than the paper-scale topology needs. *)
let of_as asn =
  if asn < 0 || asn > 0xFFFF then invalid_arg "Prefix.of_as: AS id out of range";
  let net = Int32.logor 0x0A000000l (Int32.of_int (asn lsl 8)) in
  make net 24

let to_as t =
  if t.length = 24 && Int32.logand t.network 0xFF000000l = 0x0A000000l then
    Some (Int32.to_int (Int32.shift_right_logical t.network 8) land 0xFFFF)
  else None

let host_of_as asn i =
  if i < 1 || i > 254 then invalid_arg "Prefix.host_of_as: host index out of range";
  Int32.logor (of_as asn).network (Int32.of_int i)

let pp ppf t = Format.pp_print_string ppf (to_string t)
