(* In-place heapsort over a prefix of an array.

   [Array.sort] always sorts the whole array, so callers that keep a
   reusable scratch buffer (the flow simulator's per-epoch adaptation
   order) would have to allocate an exact-size copy every time.  This
   sorts [a.(0 .. len-1)] in place with zero allocation.

   Heapsort is not stable, but for a *total* order (no two elements
   compare equal) the sorted sequence is unique, so the result is
   identical to [Array.sort] — the determinism the simulators rely on.
   Callers must therefore pass a total order (break ties on a distinct
   index). *)

let sort_prefix ~cmp a len =
  if len < 0 || len > Array.length a then invalid_arg "Sort.sort_prefix";
  let swap i j =
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  in
  (* max-heap sift-down over a.(lo .. hi-1) rooted at i *)
  let rec sift i hi =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let largest = ref i in
    if l < hi && cmp a.(l) a.(!largest) > 0 then largest := l;
    if r < hi && cmp a.(r) a.(!largest) > 0 then largest := r;
    if !largest <> i then begin
      swap i !largest;
      sift !largest hi
    end
  in
  for i = (len / 2) - 1 downto 0 do
    sift i len
  done;
  for hi = len - 1 downto 1 do
    swap 0 hi;
    sift 0 hi
  done

(* The same heapsort specialised to ints over [a.(base .. base+len-1)]:
   no comparison closure, native int compares. *)
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
