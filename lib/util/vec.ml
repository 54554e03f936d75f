type 'a t = { mutable data : 'a array; mutable size : int }

let create () = { data = [||]; size = 0 }
let length t = t.size
let is_empty t = t.size = 0

let push t x =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ndata = Array.make (Stdlib.max 8 (2 * cap)) x in
    Array.blit t.data 0 ndata 0 t.size;
    t.data <- ndata
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1

let check t i = if i < 0 || i >= t.size then invalid_arg "Vec: index out of bounds"

let get t i =
  check t i;
  t.data.(i)

let set t i x =
  check t i;
  t.data.(i) <- x

let pop t =
  if t.size = 0 then None
  else begin
    t.size <- t.size - 1;
    Some t.data.(t.size)
  end

let clear t = t.size <- 0

let iter f t =
  for i = 0 to t.size - 1 do
    f t.data.(i)
  done

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.size - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_array t = Array.sub t.data 0 t.size
let of_array a = { data = Array.copy a; size = Array.length a }

let swap_remove t i =
  check t i;
  let x = t.data.(i) in
  t.size <- t.size - 1;
  t.data.(i) <- t.data.(t.size);
  x

let capacity t = Array.length t.data

let trim t =
  if t.size = 0 then t.data <- [||]
  else if t.size < Array.length t.data then t.data <- Array.sub t.data 0 t.size

let ensure t n fill =
  if n > t.size then begin
    let cap = Array.length t.data in
    if n > cap then begin
      let ncap = Stdlib.max n (Stdlib.max 8 (2 * cap)) in
      let ndata = Array.make ncap fill in
      Array.blit t.data 0 ndata 0 t.size;
      t.data <- ndata
    end;
    Array.fill t.data t.size (n - t.size) fill;
    t.size <- n
  end
