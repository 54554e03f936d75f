(* Linear probing over a power-of-two table.  A pair's key is
   [lo lsl 31 lor hi] for its smaller and larger id; [-1] marks an empty
   slot (no pair of non-negative ids maps to it). *)
type t = {
  mutable keys : int array;
  mutable count : int;
  mutable shift : int;  (* 63 - log2 (table size) *)
}

let id_limit = 1 lsl 31

let create k =
  let bits = ref 4 in
  while 1 lsl !bits < 2 * k do
    incr bits
  done;
  { keys = Array.make (1 lsl !bits) (-1); count = 0; shift = 63 - !bits }

(* Fibonacci hashing by 2^63 / golden ratio: the slot is the top bits
   of the 63-bit product, which depend on every bit of both ids. *)
let slot shift k = (k * 0x4F1BBCDCBFA53E0B) lsr shift

(* The slot holding [k], or the empty slot where it belongs. *)
let rec probe keys k i =
  let s = keys.(i) in
  if s = k || s = -1 then i else probe keys k ((i + 1) land (Array.length keys - 1))

let grow t =
  let keys = t.keys in
  let shift = t.shift - 1 in
  let nkeys = Array.make (2 * Array.length keys) (-1) in
  for i = 0 to Array.length keys - 1 do
    let k = keys.(i) in
    if k <> -1 then nkeys.(probe nkeys k (slot shift k)) <- k
  done;
  t.keys <- nkeys;
  t.shift <- shift

let add t u v =
  if u < 0 || v < 0 || u >= id_limit || v >= id_limit then invalid_arg "Pair_set: id out of range";
  let k = if u < v then (u lsl 31) lor v else (v lsl 31) lor u in
  let i = probe t.keys k (slot t.shift k) in
  if t.keys.(i) = k then false
  else begin
    t.keys.(i) <- k;
    t.count <- t.count + 1;
    if 2 * t.count > Array.length t.keys then grow t;
    true
  end
