type cdf = { sorted : float array }

let cdf_of_samples samples =
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  { sorted }

let cdf_size c = Array.length c.sorted

(* Index of the first element > x, by binary search. *)
let upper_bound a x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) <= x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

let cdf_at c x =
  let n = Array.length c.sorted in
  if n = 0 then 0. else float_of_int (upper_bound c.sorted x) /. float_of_int n

let fraction_at_least c x =
  let n = Array.length c.sorted in
  if n = 0 then 0.
  else
    (* strictly-below count via upper bound on the predecessor *)
    let rec lower_bound lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if c.sorted.(mid) < x then lower_bound (mid + 1) hi else lower_bound lo mid
    in
    float_of_int (n - lower_bound 0 n) /. float_of_int n

let percentile c p =
  let n = Array.length c.sorted in
  if n = 0 then invalid_arg "Dist.percentile: empty sample";
  if p < 0. || p > 100. then invalid_arg "Dist.percentile: p out of range";
  let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
  c.sorted.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

let cdf_series c ~xs = Array.map (fun x -> (x, 100. *. cdf_at c x)) xs

let evenly_spaced ~lo ~hi ~n =
  if n < 2 then invalid_arg "Dist.evenly_spaced: need at least two points";
  Array.init n (fun i -> lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1)))

type histogram = { lo : float; hi : float; counts : int array; total : int }

let histogram ?(bins = 10) ~lo ~hi samples =
  if bins <= 0 then invalid_arg "Dist.histogram: bins must be positive";
  if hi <= lo then invalid_arg "Dist.histogram: empty range";
  let counts = Array.make bins 0 in
  let width = (hi -. lo) /. float_of_int bins in
  Array.iter
    (fun x ->
      let i = int_of_float ((x -. lo) /. width) in
      let i = Stdlib.max 0 (Stdlib.min (bins - 1) i) in
      counts.(i) <- counts.(i) + 1)
    samples;
  { lo; hi; counts; total = Array.length samples }

let histogram_counts h = Array.copy h.counts

let bin_bounds h i =
  let bins = Array.length h.counts in
  if i < 0 || i >= bins then invalid_arg "Dist.bin_bounds";
  let width = (h.hi -. h.lo) /. float_of_int bins in
  (h.lo +. (width *. float_of_int i), h.lo +. (width *. float_of_int (i + 1)))

let counts_of_ints ~max_value xs =
  if max_value < 0 then invalid_arg "Dist.counts_of_ints";
  let counts = Array.make (max_value + 1) 0 in
  Array.iter
    (fun x ->
      let i = Stdlib.max 0 (Stdlib.min max_value x) in
      counts.(i) <- counts.(i) + 1)
    xs;
  counts
