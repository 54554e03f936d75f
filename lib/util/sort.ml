(* In-place heapsort of an int range, with native int compares and no
   comparison closure: zero allocation, no exact-size copy of the range
   as [Array.sort] would need. *)
let rec sift (a : int array) base i len =
  let l = (2 * i) + 1 in
  if l < len then begin
    let c = if l + 1 < len && a.(base + l + 1) > a.(base + l) then l + 1 else l in
    let x = a.(base + i) and y = a.(base + c) in
    if y > x then begin
      a.(base + i) <- y;
      a.(base + c) <- x;
      sift a base c len
    end
  end

let sort_ints (a : int array) base len =
  for i = (len / 2) - 1 downto 0 do
    sift a base i len
  done;
  for hi = len - 1 downto 1 do
    let top = a.(base) in
    a.(base) <- a.(base + hi);
    a.(base + hi) <- top;
    sift a base 0 hi
  done
