type t = { mask : Bytes.t; mutable cached_count : int }

let make n = { mask = Bytes.make n '\000'; cached_count = 0 }

let full ~n =
  let t = make n in
  Bytes.fill t.mask 0 n '\001';
  t.cached_count <- n;
  t

let none ~n = make n

let fraction ~n ~ratio ~seed =
  let ratio = Stdlib.max 0. (Stdlib.min 1. ratio) in
  let k = int_of_float (Float.round (ratio *. float_of_int n)) in
  let rng = Mifo_util.Prng.create ~seed () in
  let picks = Mifo_util.Prng.sample_without_replacement rng k n in
  let t = make n in
  Array.iter (fun v -> Bytes.set t.mask v '\001') picks;
  t.cached_count <- k;
  t

let of_list ~n ids =
  let t = make n in
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Deployment.of_list: id out of range";
      if Bytes.get t.mask v = '\000' then begin
        Bytes.set t.mask v '\001';
        t.cached_count <- t.cached_count + 1
      end)
    ids;
  t

let capable t v = Bytes.get t.mask v = '\001'
let count t = t.cached_count
let size t = Bytes.length t.mask
let ratio t = float_of_int t.cached_count /. float_of_int (Stdlib.max 1 (size t))

let members t =
  let acc = ref [] in
  for v = size t - 1 downto 0 do
    if capable t v then acc := v :: !acc
  done;
  !acc
