(* The four 64-bit state words live in one 32-byte buffer, read and
   written as unboxed int64s: a record of four [int64] fields would box
   a fresh value for every word on every draw. *)
type t = Bytes.t

(* SplitMix64 step, used only to expand the seed into the xoshiro state and
   to derive split streams.  Constants from Steele, Lea & Flood (2014). *)
let splitmix64 x =
  let open Int64 in
  let z = add !x 0x9E3779B97F4A7C15L in
  x := z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed64 seed =
  let sm = ref seed in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_le t (8 * i) (splitmix64 sm)
  done;
  t

let create ?(seed = 0x4d1f0) () = of_seed64 (Int64.of_int seed)
let copy = Bytes.copy

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256++ step.  Inlined into each caller, so the words and
   the result stay unboxed unless the caller returns an [int64]. *)
let[@inline] next t =
  let open Int64 in
  let s0 = Bytes.get_int64_le t 0
  and s1 = Bytes.get_int64_le t 8
  and s2 = Bytes.get_int64_le t 16
  and s3 = Bytes.get_int64_le t 24 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  Bytes.set_int64_le t 0 s0;
  Bytes.set_int64_le t 8 s1;
  Bytes.set_int64_le t 16 (logxor s2 tmp);
  Bytes.set_int64_le t 24 (rotl s3 45);
  result

let bits64 t = next t
let split t = of_seed64 (next t)

(* Non-negative 62-bit value, safe to store in an OCaml int. *)
let bits62 t = Int64.to_int (Int64.shift_right_logical (next t) 2)

let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling on 62-bit draws keeps the result exactly uniform. *)
  let bound = 0x3FFF_FFFF_FFFF_FFFF in
  let limit = bound - (bound mod n) in
  let v = ref (bits62 t) in
  while !v >= limit do
    v := bits62 t
  done;
  !v mod n

let int_in t lo hi =
  if lo > hi then invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t x =
  (* 53 random mantissa bits, as in the reference xoshiro double recipe. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  x *. (float_of_int v *. 0x1.0p-53)

let bool t = Int64.logand (next t) 1L = 1L
let exponential t ~mean =
  if mean <= 0. then invalid_arg "Prng.exponential: mean must be positive";
  let u = 1. -. float t 1.0 in
  -.mean *. log u

let pareto t ~shape ~scale =
  if shape <= 0. || scale <= 0. then invalid_arg "Prng.pareto: parameters must be positive";
  let u = 1. -. float t 1.0 in
  scale /. (u ** (1. /. shape))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k > n || k < 0 then invalid_arg "Prng.sample_without_replacement";
  (* Partial Fisher-Yates: shuffle only the first k slots. *)
  let a = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = int_in t i (n - 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.sub a 0 k

let choose t a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int t (Array.length a))
