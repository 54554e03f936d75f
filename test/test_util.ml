(* Unit and property tests for Mifo_util. *)

module Prng = Mifo_util.Prng
module Parallel = Mifo_util.Parallel
module Stats = Mifo_util.Stats
module Dist = Mifo_util.Dist
module Heap = Mifo_util.Heap
module Union_find = Mifo_oracle.Union_find
module Vec = Mifo_util.Vec
module Table = Mifo_util.Table
module Obs = Mifo_util.Obs

let check_float = Alcotest.(check (float 1e-9))

(* ---------- Prng ---------- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:123 () and b = Prng.create ~seed:123 () in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

(* Golden streams, recorded before the state moved from four boxed
   [int64] fields into one buffer: per stream the first 16 [bits64],
   16 [int 1000], 16 [int (2^61 + 1)] (about half the draws rejected)
   and 16 [float 1.0] values, hashed. *)
let prng_stream_digest rng =
  let b = Buffer.create 4096 in
  for _ = 1 to 16 do
    Buffer.add_string b (Printf.sprintf "%Lx " (Prng.bits64 rng))
  done;
  for _ = 1 to 16 do
    Buffer.add_string b (Printf.sprintf "%d " (Prng.int rng 1000))
  done;
  for _ = 1 to 16 do
    Buffer.add_string b (Printf.sprintf "%d " (Prng.int rng ((1 lsl 61) + 1)))
  done;
  for _ = 1 to 16 do
    Buffer.add_string b (Printf.sprintf "%h " (Prng.float rng 1.0))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_prng_golden () =
  Alcotest.(check int64) "seed 42: first bits64" 0xd0764d4f4476689fL
    (Prng.bits64 (Prng.create ~seed:42 ()));
  Alcotest.(check int) "seed 42: first int 1000" 487 (Prng.int (Prng.create ~seed:42 ()) 1000);
  Alcotest.(check (float 0.)) "seed 42: first float" 0x1.a0ec9a9e88ecdp-1
    (Prng.float (Prng.create ~seed:42 ()) 1.0);
  Alcotest.(check string) "seed 42" "119cad477c16c130f63e3df536be8703"
    (prng_stream_digest (Prng.create ~seed:42 ()));
  Alcotest.(check string) "seed 7" "74b75d870561339e5cf420d2a2ab0cf3"
    (prng_stream_digest (Prng.create ~seed:7 ()));
  let parent = Prng.create ~seed:42 () in
  ignore (Prng.bits64 parent);
  Alcotest.(check string) "split of seed 42 after one draw" "33cd976afa2295e3f2a6b48f0a04076b"
    (prng_stream_digest (Prng.split parent))

(* Integer draws update the state in place and return an immediate:
   10K warmed calls of each allocate nothing. *)
let test_prng_allocation () =
  let rng = Prng.create ~seed:3 () in
  let round () =
    let acc = ref 0 in
    for i = 1 to 10_000 do
      acc := !acc + Prng.int rng (1 + i) + Prng.int_in rng (-i) i + (Prng.bits62 rng land 1)
    done;
    !acc
  in
  ignore (round ());
  let w0 = Gc.minor_words () in
  let r = round () in
  let w1 = Gc.minor_words () in
  ignore (Sys.opaque_identity r);
  Alcotest.(check (float 0.)) "minor words for 30K draws" 0. (w1 -. w0)

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 () and b = Prng.create ~seed:2 () in
  Alcotest.(check bool) "different streams" false (Prng.bits64 a = Prng.bits64 b)

let test_prng_int_range () =
  let rng = Prng.create ~seed:7 () in
  for _ = 1 to 10_000 do
    let v = Prng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_in_range () =
  let rng = Prng.create ~seed:8 () in
  for _ = 1 to 1_000 do
    let v = Prng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in range" true (v >= -5 && v <= 5)
  done

let test_prng_int_covers () =
  let rng = Prng.create ~seed:9 () in
  let seen = Array.make 6 false in
  for _ = 1 to 1_000 do
    seen.(Prng.int rng 6) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_prng_float_range () =
  let rng = Prng.create ~seed:10 () in
  for _ = 1 to 10_000 do
    let v = Prng.float rng 3.5 in
    Alcotest.(check bool) "in [0, 3.5)" true (v >= 0. && v < 3.5)
  done

let test_prng_bad_args () =
  let rng = Prng.create ~seed:1 () in
  Alcotest.check_raises "int 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0));
  Alcotest.check_raises "empty range" (Invalid_argument "Prng.int_in: empty range")
    (fun () -> ignore (Prng.int_in rng 3 2))

let test_prng_split_independent () =
  let a = Prng.create ~seed:5 () in
  let b = Prng.split a in
  Alcotest.(check bool) "streams differ" false (Prng.bits64 a = Prng.bits64 b)

let test_prng_exponential_mean () =
  let rng = Prng.create ~seed:11 () in
  let stats = Stats.create () in
  for _ = 1 to 50_000 do
    Stats.add stats (Prng.exponential rng ~mean:2.0)
  done;
  Alcotest.(check bool) "mean close to 2" true (abs_float (Stats.mean stats -. 2.0) < 0.05)

let test_prng_shuffle_permutation () =
  let rng = Prng.create ~seed:12 () in
  let a = Array.init 100 (fun i -> i) in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 100 (fun i -> i)) sorted

let test_sample_without_replacement () =
  let rng = Prng.create ~seed:13 () in
  let s = Prng.sample_without_replacement rng 10 50 in
  Alcotest.(check int) "k elements" 10 (Array.length s);
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun v ->
      Alcotest.(check bool) "in range" true (v >= 0 && v < 50);
      Alcotest.(check bool) "distinct" false (Hashtbl.mem tbl v);
      Hashtbl.add tbl v ())
    s

(* ---------- Stats ---------- *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check_float "mean" 5.0 (Stats.mean s);
  Alcotest.(check bool) "variance" true (abs_float (Stats.variance s -. 4.571428571) < 1e-6);
  check_float "min" 2. (Stats.min s);
  check_float "max" 9. (Stats.max s);
  check_float "total" 40. (Stats.total s);
  Alcotest.(check int) "count" 8 (Stats.count s)

let test_stats_empty () =
  let s = Stats.create () in
  check_float "mean of empty" 0. (Stats.mean s);
  check_float "variance of empty" 0. (Stats.variance s)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () and all = Stats.create () in
  let xs = [ 1.; 2.; 3. ] and ys = [ 10.; 20.; 30.; 40. ] in
  List.iter (Stats.add a) xs;
  List.iter (Stats.add b) ys;
  List.iter (Stats.add all) (xs @ ys);
  let m = Stats.merge a b in
  Alcotest.(check int) "count" (Stats.count all) (Stats.count m);
  Alcotest.(check bool) "mean" true (abs_float (Stats.mean all -. Stats.mean m) < 1e-9);
  Alcotest.(check bool) "variance" true
    (abs_float (Stats.variance all -. Stats.variance m) < 1e-9)

(* ---------- Dist ---------- *)

let test_cdf_basic () =
  let c = Dist.cdf_of_samples [| 1.; 2.; 3.; 4. |] in
  check_float "P(X<=0)" 0. (Dist.cdf_at c 0.);
  check_float "P(X<=2)" 0.5 (Dist.cdf_at c 2.);
  check_float "P(X<=4)" 1. (Dist.cdf_at c 4.);
  check_float "P(X>=3)" 0.5 (Dist.fraction_at_least c 3.);
  check_float "P(X>=1)" 1. (Dist.fraction_at_least c 1.);
  check_float "P(X>=5)" 0. (Dist.fraction_at_least c 5.)

let test_percentile () =
  let c = Dist.cdf_of_samples (Array.init 100 (fun i -> float_of_int (i + 1))) in
  check_float "median" 50. (Dist.percentile c 50.);
  check_float "p100" 100. (Dist.percentile c 100.);
  check_float "p1" 1. (Dist.percentile c 1.)

let test_percentile_empty () =
  let c = Dist.cdf_of_samples [||] in
  Alcotest.check_raises "empty" (Invalid_argument "Dist.percentile: empty sample")
    (fun () -> ignore (Dist.percentile c 50.))

let test_histogram () =
  let h = Dist.histogram ~bins:4 ~lo:0. ~hi:4. [| 0.5; 1.5; 1.6; 2.5; 3.5; 9. |] in
  Alcotest.(check (array int)) "counts (overflow clamped)" [| 1; 2; 1; 2 |]
    (Dist.histogram_counts h);
  let lo, hi = Dist.bin_bounds h 1 in
  check_float "bin lo" 1. lo;
  check_float "bin hi" 2. hi

let test_counts_of_ints () =
  let c = Dist.counts_of_ints ~max_value:3 [| 0; 1; 1; 2; 7; 9 |] in
  Alcotest.(check (array int)) "fold into last" [| 1; 2; 1; 2 |] c

let test_evenly_spaced () =
  let xs = Dist.evenly_spaced ~lo:0. ~hi:10. ~n:5 in
  Alcotest.(check (array (float 1e-9))) "5 points" [| 0.; 2.5; 5.; 7.5; 10. |] xs

(* ---------- Heap ---------- *)

let test_heap_sorts () =
  let h = Heap.create ~cmp:compare () in
  List.iter (Heap.push h) [ 5; 3; 8; 1; 9; 2 ];
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 5; 8; 9 ] (Heap.to_sorted_list h);
  Alcotest.(check int) "pop min" 1 (Heap.pop_exn h);
  Alcotest.(check int) "pop next" 2 (Heap.pop_exn h);
  Alcotest.(check int) "length" 4 (Heap.length h)

let test_heap_empty () =
  let h = Heap.create ~cmp:compare () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "pop none" None (Heap.pop h);
  Alcotest.check_raises "pop_exn" (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Heap.pop_exn h))

let test_heap_of_array () =
  let h = Heap.of_array ~cmp:compare [| 4; 2; 7; 1 |] in
  Alcotest.(check (list int)) "heapify" [ 1; 2; 4; 7 ] (Heap.to_sorted_list h)

let prop_heap_sorts =
  QCheck2.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck2.Gen.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:compare () in
      List.iter (Heap.push h) xs;
      Heap.to_sorted_list h = List.sort compare xs)

(* ---------- Union_find ---------- *)

let test_union_find () =
  let uf = Union_find.create 6 in
  Alcotest.(check int) "initial sets" 6 (Union_find.count_sets uf);
  Alcotest.(check bool) "union" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "redundant union" false (Union_find.union uf 1 0);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 0 3);
  Alcotest.(check bool) "same" true (Union_find.same uf 1 2);
  Alcotest.(check bool) "not same" false (Union_find.same uf 1 5);
  Alcotest.(check int) "sets" 3 (Union_find.count_sets uf)

(* ---------- Vec ---------- *)

let test_vec () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Vec.set v 42 (-1);
  Alcotest.(check int) "set" (-1) (Vec.get v 42);
  Alcotest.(check (option int)) "pop" (Some 99) (Vec.pop v);
  let removed = Vec.swap_remove v 0 in
  Alcotest.(check int) "swap_remove returns" 0 removed;
  Alcotest.(check int) "swap_remove moved last" 98 (Vec.get v 0);
  Alcotest.check_raises "out of bounds" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 2000))

let test_vec_fold_iter () =
  let v = Vec.of_array [| 1; 2; 3 |] in
  Alcotest.(check int) "fold" 6 (Vec.fold_left ( + ) 0 v);
  let acc = ref [] in
  Vec.iter (fun x -> acc := x :: !acc) v;
  Alcotest.(check (list int)) "iter order" [ 3; 2; 1 ] !acc

let test_vec_ensure () =
  let v = Vec.create () in
  Vec.ensure v 3 7;
  Alcotest.(check int) "grown" 3 (Vec.length v);
  Alcotest.(check int) "filled" 7 (Vec.get v 0);
  Alcotest.(check int) "filled" 7 (Vec.get v 2);
  Vec.set v 1 (-1);
  Vec.ensure v 2 99;
  Alcotest.(check int) "no-op keeps length" 3 (Vec.length v);
  Alcotest.(check int) "no-op keeps values" (-1) (Vec.get v 1);
  Vec.ensure v 10 0;
  Alcotest.(check int) "regrown" 10 (Vec.length v);
  Alcotest.(check int) "old values kept" (-1) (Vec.get v 1);
  Alcotest.(check int) "new fill" 0 (Vec.get v 9)

(* ---------- Sort ---------- *)

let test_sort_ints_matches_array_sort () =
  (* deterministic LCG so the test needs no seed plumbing *)
  let state = ref 12345 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod 1000
  in
  for len = 0 to 40 do
    let base = len mod 5 in
    let n = base + len + 8 in
    let a = Array.init n (fun _ -> next ()) in
    let b = Array.copy a in
    Mifo_util.Sort.sort_ints a base len;
    let expect = Array.sub b base len in
    Array.sort Int.compare expect;
    Alcotest.(check (array int)) "sorted range" expect (Array.sub a base len);
    Alcotest.(check (array int)) "prefix untouched" (Array.sub b 0 base) (Array.sub a 0 base);
    Alcotest.(check (array int))
      "suffix untouched"
      (Array.sub b (base + len) (n - base - len))
      (Array.sub a (base + len) (n - base - len))
  done

(* ---------- Table ---------- *)

let test_fmt_count () =
  Alcotest.(check string) "thousands" "44,340" (Table.fmt_count 44_340);
  Alcotest.(check string) "small" "7" (Table.fmt_count 7);
  Alcotest.(check string) "million" "1,234,567" (Table.fmt_count 1_234_567);
  Alcotest.(check string) "negative" "-1,000" (Table.fmt_count (-1000))

let test_fmt_float () =
  Alcotest.(check string) "trim" "1.5" (Table.fmt_float 1.50);
  Alcotest.(check string) "keep one" "2.0" (Table.fmt_float 2.0);
  Alcotest.(check string) "decimals" "3.142" (Table.fmt_float ~decimals:3 3.14159)

let test_fmt_percent () =
  Alcotest.(check string) "percent" "41.7%" (Table.fmt_percent 0.417)

let test_render_shape () =
  let out = Table.render ~header:[ "a"; "bb" ] ~rows:[ [ "1"; "2" ]; [ "333" ] ] in
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "header + sep + 2 rows" 4 (List.length lines)

(* ---------- Obs ---------- *)

let test_obs_counters_gauges () =
  let c = Obs.counter "test.obs.counter" in
  let v0 = Obs.value c in
  Obs.incr c;
  Obs.add c 4;
  Alcotest.(check int) "incr + add" (v0 + 5) (Obs.value c);
  Alcotest.(check int) "readable by name" (v0 + 5) (Obs.counter_value "test.obs.counter");
  Alcotest.(check int) "unknown counter reads 0" 0 (Obs.counter_value "test.obs.nope");
  Alcotest.(check bool) "same name, same cell" true (Obs.counter "test.obs.counter" == c);
  let g = Obs.gauge "test.obs.gauge" in
  Alcotest.(check bool) "fresh gauge is nan" true
    (Float.is_nan (Obs.gauge_value "test.obs.gauge"));
  Obs.add_gauge g 1.5;
  Obs.add_gauge g 1.0;
  check_float "accumulates from zero" 2.5 (Obs.gauge_value "test.obs.gauge");
  Obs.set_gauge g 7.0;
  check_float "set overrides" 7.0 (Obs.gauge_value "test.obs.gauge")

(* An int gauge's steps read like a float gauge's and cost no
   allocation: the [fib.entries] pattern.  A name is one kind of gauge
   only, so float updates can never mix with int steps. *)
let test_obs_gauge_int_steps () =
  let g = Obs.int_gauge "test.obs.intgauge" in
  Alcotest.(check bool) "fresh gauge is nan" true
    (Float.is_nan (Obs.gauge_value "test.obs.intgauge"));
  Obs.add_int_gauge g 1;
  ignore (Gc.minor_words ());
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    Obs.add_int_gauge g 1
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "1,000 int steps allocate nothing" 0. (w1 -. w0);
  check_float "int steps from zero" 1001. (Obs.gauge_value "test.obs.intgauge");
  Alcotest.(check bool) "same name, same cell" true (Obs.int_gauge "test.obs.intgauge" == g);
  Alcotest.(check bool) "the snapshot reads it" true
    (match Obs.Json.member "gauges" (Obs.Json.parse (Obs.snapshot_json ())) with
     | Some (Obs.Json.Obj kvs) ->
       List.assoc_opt "test.obs.intgauge" kvs = Some (Obs.Json.Num 1001.)
     | _ -> false);
  let kind_clash f =
    match f () with exception Invalid_argument msg -> Some msg | _ -> None
  in
  Alcotest.(check (option string)) "no float gauge of an int gauge's name"
    (Some "Obs.gauge: test.obs.intgauge is an int gauge")
    (kind_clash (fun () -> ignore (Obs.gauge "test.obs.intgauge")));
  ignore (Obs.gauge "test.obs.floatgauge");
  Alcotest.(check (option string)) "no int gauge of a float gauge's name"
    (Some "Obs.int_gauge: test.obs.floatgauge is a float gauge")
    (kind_clash (fun () -> ignore (Obs.int_gauge "test.obs.floatgauge")))

let test_obs_max_gauge () =
  let g = Obs.gauge "test.obs.maxgauge" in
  Alcotest.(check bool) "fresh max gauge is nan" true
    (Float.is_nan (Obs.gauge_value "test.obs.maxgauge"));
  Obs.max_gauge g 3.0;
  check_float "first observation seeds the max" 3.0 (Obs.gauge_value "test.obs.maxgauge");
  Obs.max_gauge g 1.0;
  check_float "lower observation ignored" 3.0 (Obs.gauge_value "test.obs.maxgauge");
  Obs.max_gauge g 9.5;
  check_float "higher observation wins" 9.5 (Obs.gauge_value "test.obs.maxgauge")

let test_obs_histogram () =
  let h = Obs.histogram ~bounds:[| 1.; 2.; 4. |] "test.obs.hist" in
  List.iter (Obs.observe h) [ 0.5; 1.; 1.5; 3.; 100. ];
  Alcotest.(check int) "count" 5 (Obs.histogram_count "test.obs.hist");
  (* bucket placement visible in the snapshot: bounds are inclusive upper
     bounds plus an overflow bucket *)
  let j = Obs.Json.parse (Obs.snapshot_json ()) in
  (match Obs.Json.member "histograms" j with
   | Some (Obs.Json.Obj kvs) ->
     (match List.assoc_opt "test.obs.hist" kvs with
      | Some hj ->
        (match Obs.Json.member "counts" hj with
         | Some (Obs.Json.Arr counts) ->
           Alcotest.(check (list (float 1e-9))) "bucket placement" [ 2.; 1.; 1.; 1. ]
             (List.map (function Obs.Json.Num x -> x | _ -> Float.nan) counts)
         | _ -> Alcotest.fail "no counts array")
      | None -> Alcotest.fail "histogram missing from snapshot")
   | _ -> Alcotest.fail "no histograms object");
  Alcotest.(check bool) "non-increasing bounds rejected" true
    (match Obs.histogram ~bounds:[| 2.; 1. |] "test.obs.hist2" with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* The named histogram's sum, as the snapshot reads it. *)
let histogram_sum name =
  match Obs.Json.member "histograms" (Obs.Json.parse (Obs.snapshot_json ())) with
  | Some (Obs.Json.Obj kvs) -> (
    match Option.bind (List.assoc_opt name kvs) (Obs.Json.member "sum") with
    | Some (Obs.Json.Num x) -> x
    | _ -> Alcotest.failf "no sum for %s" name)
  | _ -> Alcotest.fail "no histograms object"

(* Hot paths observe without allocating: the sum is added unboxed.  A
   serial run adds in call order, and racing domains lose no update. *)
let test_obs_observe_allocates_nothing () =
  let h = Obs.histogram "test.obs.observe" in
  Obs.observe h 0.3;
  Obs.observe_n h 0.7 2;
  ignore (Gc.minor_words ());
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    Obs.observe h 0.3;
    Obs.observe_n h 0.7 2
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "1,000 observe + observe_n calls allocate nothing" 0. (w1 -. w0);
  let expect = ref 0. in
  for _ = 0 to 1_000 do
    expect := !expect +. 0.3;
    expect := !expect +. (0.7 *. 2.)
  done;
  Alcotest.(check int64) "serial sum, in call order" (Int64.bits_of_float !expect)
    (Int64.bits_of_float (histogram_sum "test.obs.observe"));
  let racing = Obs.histogram "test.obs.observe.racing" in
  let arrived = Atomic.make 0 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            (* released together, so the adds overlap *)
            Atomic.incr arrived;
            while Atomic.get arrived < 4 do
              Domain.cpu_relax ()
            done;
            for _ = 1 to 100_000 do
              Obs.observe racing 1.
            done))
  in
  List.iter Domain.join domains;
  check_float "4 racing domains lose no update" 400_000. (histogram_sum "test.obs.observe.racing")

let test_obs_trace_ring () =
  Obs.set_trace_capacity 3;
  Alcotest.(check bool) "enabled" true (Obs.trace_enabled ());
  for i = 0 to 4 do
    Obs.event ~t:(float_of_int i) "tick" [ ("i", Obs.Int i) ]
  done;
  let evs = Obs.events () in
  Alcotest.(check int) "ring bounds retention" 3 (List.length evs);
  (match evs with
   | (seq, Some t, "tick", [ ("i", Obs.Int i) ]) :: _ ->
     Alcotest.(check int) "oldest kept is #2" 2 seq;
     check_float "time carried" 2. t;
     Alcotest.(check int) "field carried" 2 i
   | _ -> Alcotest.fail "unexpected event shape");
  let lines = String.split_on_char '\n' (String.trim (Obs.trace_jsonl ())) in
  Alcotest.(check int) "three JSONL lines" 3 (List.length lines);
  List.iteri
    (fun k line ->
      match Obs.Json.member "seq" (Obs.Json.parse line) with
      | Some (Obs.Json.Num s) ->
        Alcotest.(check int) "seq ascending" (2 + k) (int_of_float s)
      | _ -> Alcotest.fail "seq missing")
    lines;
  Obs.set_trace_capacity 0;
  Alcotest.(check bool) "disabled" false (Obs.trace_enabled ());
  Obs.event "ignored" [];
  Alcotest.(check int) "no events when disabled" 0 (List.length (Obs.events ()))

let test_obs_snapshot_parses () =
  let c = Obs.counter "test.obs.snap" in
  Obs.incr c;
  let j = Obs.Json.parse (Obs.snapshot_json ()) in
  match Obs.Json.member "counters" j with
  | Some (Obs.Json.Obj kvs) ->
    Alcotest.(check bool) "counter present with its value" true
      (match List.assoc_opt "test.obs.snap" kvs with
       | Some (Obs.Json.Num v) -> v >= 1.
       | _ -> false);
    let names = List.map fst kvs in
    Alcotest.(check (list string)) "names sorted (deterministic output)"
      (List.sort compare names) names
  | _ -> Alcotest.fail "no counters object"

(* [Obs.Json.parse] either returns or raises its documented [Failure];
   no stray stdlib exception (Not_found, Invalid_argument, an index out
   of bounds) escapes on garbage or truncated documents. *)
let prop_json_parse_fuzz =
  QCheck2.Test.make ~name:"json parse: garbage raises only Failure" ~count:2000
    ~print:(Printf.sprintf "%S")
    (Parser_fuzz.gen ~alphabet:"{}[]\",:-+.0123456789eEtrufalsn \\/ubx"
       ~samples:
         [
           "{\"a\": [1, -2.5e3, true, false, null], \"b\": {\"c\": \"x\\\"y\\u0041\"}}";
           "[[], {}, \"\", 0, 1e-7]";
           "{\"counters\": {\"x\": 3}}";
         ])
    (fun s ->
      match Obs.Json.parse s with
      | _ -> true
      | exception Failure _ -> true)

let test_obs_json_roundtrip () =
  let open Obs.Json in
  let j =
    Obj
      [
        ("a", Num 1.);
        ("b", Str "x\"y\n");
        ("c", Arr [ Bool true; Null; Num 2.5 ]);
        ("d", Obj []);
      ]
  in
  Alcotest.(check bool) "round trip" true (parse (to_string j) = j);
  Alcotest.(check bool) "whitespace and escapes" true
    (parse "  { \"k\" : [ 1 , -2.5e1 , \"\\u0041\" ] }  "
     = Obj [ ("k", Arr [ Num 1.; Num (-25.); Str "A" ]) ]);
  Alcotest.(check string) "non-finite floats emit null" "null" (to_string (Num Float.nan));
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "rejects %S" s) true
        (match parse s with
         | exception Failure _ -> true
         | _ -> false))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

let test_obs_time_phase () =
  let r = Obs.time_phase "testphase" (fun () -> 42) in
  Alcotest.(check int) "result passed through" 42 r;
  Alcotest.(check int) "run counted" 1 (Obs.counter_value "phase.testphase.runs");
  Alcotest.(check bool) "seconds recorded" true
    (Obs.gauge_value "phase.testphase.seconds" >= 0.);
  (match Obs.time_phase "testphase" (fun () -> failwith "boom") with
   | exception Failure _ -> ()
   | _ -> Alcotest.fail "exception swallowed");
  Alcotest.(check int) "raising run still counted" 2
    (Obs.counter_value "phase.testphase.runs")

(* Trim must release memory on empty (capacity back to zero — the deep
   packet-train backlog case) and shrink to fit otherwise, all without
   touching the live prefix. *)
let test_vec_trim () =
  let v = Vec.create () in
  for i = 0 to 999 do
    Vec.push v i
  done;
  Alcotest.(check bool) "capacity >= length" true (Vec.capacity v >= 1000);
  for _ = 1 to 990 do
    ignore (Vec.pop v)
  done;
  Vec.trim v;
  Alcotest.(check int) "shrunk to fit" 10 (Vec.capacity v);
  Alcotest.(check int) "length kept" 10 (Vec.length v);
  for i = 0 to 9 do
    Alcotest.(check int) "values kept" i (Vec.get v i)
  done;
  Vec.clear v;
  Vec.trim v;
  Alcotest.(check int) "empty trim releases the buffer" 0 (Vec.capacity v);
  Vec.push v 7;
  Alcotest.(check int) "usable after release" 7 (Vec.get v 0)

(* ---------- Parallel ---------- *)

let with_pool jobs f =
  let pool = Parallel.create ~jobs () in
  Fun.protect ~finally:(fun () -> Parallel.shutdown pool) (fun () -> f pool)

let test_parallel_map_empty () =
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          Alcotest.(check (array int)) "empty" [||] (Parallel.parallel_map pool (fun x -> x) [||])))
    [ 1; 4 ]

let test_parallel_map_matches_serial () =
  (* sizes straddling the chunking boundaries: < jobs, = jobs, around
     4*jobs (the chunk count), and a big non-multiple *)
  List.iter
    (fun n ->
      let input = Array.init n (fun i -> i) in
      let expected = Array.map (fun x -> (x * x) + 1) input in
      with_pool 4 (fun pool ->
          let got = Parallel.parallel_map pool (fun x -> (x * x) + 1) input in
          Alcotest.(check (array int)) (Printf.sprintf "n=%d" n) expected got))
    [ 1; 2; 3; 4; 5; 15; 16; 17; 33; 1000 ]

let test_parallel_for_covers_range () =
  with_pool 3 (fun pool ->
      let n = 101 in
      let hits = Array.make n 0 in
      Parallel.parallel_for pool ~lo:0 ~hi:n (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool) "each index exactly once" true
        (Array.for_all (fun h -> h = 1) hits);
      (* empty and reversed ranges are no-ops *)
      Parallel.parallel_for pool ~lo:5 ~hi:5 (fun _ -> Alcotest.fail "ran on empty range");
      Parallel.parallel_for pool ~lo:5 ~hi:0 (fun _ -> Alcotest.fail "ran on empty range"))

exception Boom of int

let test_parallel_exception_propagates () =
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          let raised =
            try
              ignore
                (Parallel.parallel_map pool
                   (fun x -> if x = 37 then raise (Boom x) else x)
                   (Array.init 100 (fun i -> i)));
              false
            with Boom 37 -> true
          in
          Alcotest.(check bool)
            (Printf.sprintf "worker exception reaches caller (jobs=%d)" jobs)
            true raised))
    [ 1; 4 ]

let test_parallel_pool_reuse () =
  (* several batches through one pool; workers must survive batches *)
  with_pool 4 (fun pool ->
      for round = 1 to 5 do
        let got = Parallel.parallel_map pool (fun x -> x + round) (Array.init 64 (fun i -> i)) in
        Alcotest.(check int) "first" round got.(0);
        Alcotest.(check int) "last" (63 + round) got.(63)
      done)

let test_fork_join_barrier () =
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          let n = 17 in
          let hits = Array.make n 0 in
          Parallel.fork_join pool n (fun i -> hits.(i) <- hits.(i) + 1);
          Alcotest.(check bool)
            (Printf.sprintf "each task exactly once (jobs=%d)" jobs)
            true
            (Array.for_all (fun h -> h = 1) hits);
          (* the join is a barrier: every effect is visible at return *)
          let acc = Array.make n 0 in
          Parallel.fork_join pool n (fun i -> acc.(i) <- i * i);
          let sum = Array.fold_left ( + ) 0 acc in
          Alcotest.(check int) "all effects joined" 1496 sum;
          Parallel.fork_join pool 0 (fun _ -> Alcotest.fail "ran on n=0")))
    [ 1; 4 ];
  with_pool 2 (fun pool ->
      match Parallel.fork_join pool (-1) (fun _ -> ()) with
      | () -> Alcotest.fail "negative task count accepted"
      | exception Invalid_argument _ -> ())

let test_set_default_jobs_rejects_nonpositive () =
  List.iter
    (fun bad ->
      match Parallel.set_default_jobs bad with
      | () -> Alcotest.fail (Printf.sprintf "jobs=%d accepted" bad)
      | exception Invalid_argument msg ->
        Alcotest.(check bool) "message names the bad value" true
          (String.length msg > 0))
    [ 0; -1; -100 ]

let () =
  Alcotest.run "mifo_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "int_in range" `Quick test_prng_int_in_range;
          Alcotest.test_case "int covers all values" `Quick test_prng_int_covers;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "bad arguments" `Quick test_prng_bad_args;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "exponential mean" `Slow test_prng_exponential_mean;
          Alcotest.test_case "shuffle is a permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
          Alcotest.test_case "golden streams" `Quick test_prng_golden;
          Alcotest.test_case "allocation gate: int draws allocate nothing" `Quick
            test_prng_allocation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/variance/min/max" `Quick test_stats_basic;
          Alcotest.test_case "empty accumulator" `Quick test_stats_empty;
          Alcotest.test_case "merge" `Quick test_stats_merge;
        ] );
      ( "dist",
        [
          Alcotest.test_case "ecdf" `Quick test_cdf_basic;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "percentile of empty raises" `Quick test_percentile_empty;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "counts_of_ints" `Quick test_counts_of_ints;
          Alcotest.test_case "evenly_spaced" `Quick test_evenly_spaced;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "of_array" `Quick test_heap_of_array;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
        ] );
      ("union_find", [ Alcotest.test_case "union/find/count" `Quick test_union_find ]);
      ( "vec",
        [
          Alcotest.test_case "push/get/set/pop/swap_remove" `Quick test_vec;
          Alcotest.test_case "fold/iter" `Quick test_vec_fold_iter;
          Alcotest.test_case "ensure grows with fill" `Quick test_vec_ensure;
          Alcotest.test_case "trim shrinks and releases" `Quick test_vec_trim;
        ] );
      ( "sort",
        [
          Alcotest.test_case "ints match Array.sort" `Quick test_sort_ints_matches_array_sort;
        ] );
      ( "table",
        [
          Alcotest.test_case "fmt_count" `Quick test_fmt_count;
          Alcotest.test_case "fmt_float" `Quick test_fmt_float;
          Alcotest.test_case "fmt_percent" `Quick test_fmt_percent;
          Alcotest.test_case "render shape" `Quick test_render_shape;
        ] );
      ( "obs",
        [
          Alcotest.test_case "counters and gauges" `Quick test_obs_counters_gauges;
          Alcotest.test_case "max gauge high-water mark" `Quick test_obs_max_gauge;
          Alcotest.test_case "int gauge steps allocate nothing" `Quick test_obs_gauge_int_steps;
          Alcotest.test_case "histogram buckets" `Quick test_obs_histogram;
          Alcotest.test_case "observe allocates nothing" `Quick
            test_obs_observe_allocates_nothing;
          Alcotest.test_case "trace ring buffer" `Quick test_obs_trace_ring;
          Alcotest.test_case "snapshot is valid sorted JSON" `Quick test_obs_snapshot_parses;
          Alcotest.test_case "json round trip + rejection" `Quick test_obs_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_parse_fuzz;
          Alcotest.test_case "phase timing" `Quick test_obs_time_phase;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "map empty input" `Quick test_parallel_map_empty;
          Alcotest.test_case "map matches serial across chunk boundaries" `Quick
            test_parallel_map_matches_serial;
          Alcotest.test_case "for covers the range exactly once" `Quick
            test_parallel_for_covers_range;
          Alcotest.test_case "worker exception propagates" `Quick
            test_parallel_exception_propagates;
          Alcotest.test_case "pool reuse across batches" `Quick test_parallel_pool_reuse;
          Alcotest.test_case "fork_join covers all tasks and joins" `Quick
            test_fork_join_barrier;
          Alcotest.test_case "set_default_jobs rejects non-positive" `Quick
            test_set_default_jobs_rejects_nonpositive;
        ] );
    ]
