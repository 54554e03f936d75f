(* Unit and property tests for Mifo_netsim: event queue, max-min
   allocator, TCP state machine, flow-level simulator and packet-level
   simulator. *)

module Eventq = Mifo_netsim.Eventq
module Maxmin = Mifo_netsim.Maxmin
module Maxmin_ref = Mifo_oracle.Maxmin_ref
module Heap_queue = Mifo_oracle.Heap_queue
module Tcp = Mifo_netsim.Tcp
module Flowsim = Mifo_netsim.Flowsim
module Packetsim = Mifo_netsim.Packetsim
module Routing_table = Mifo_bgp.Routing_table
module Prefix = Mifo_bgp.Prefix
module Fib = Mifo_core.Fib
module Engine = Mifo_core.Engine
module Deployment = Mifo_core.Deployment
module Generator = Mifo_topology.Generator
module As_graph = Mifo_topology.As_graph
module Relationship = Mifo_topology.Relationship

let check_float = Alcotest.(check (float 1e-6))

(* ---------- Eventq ---------- *)

let test_eventq_order () =
  let q = Eventq.create () in
  Eventq.schedule q ~time:3. "c";
  Eventq.schedule q ~time:1. "a";
  Eventq.schedule q ~time:2. "b";
  Alcotest.(check (option (float 1e-9))) "peek" (Some 1.) (Eventq.peek_time q);
  let order = List.init 3 (fun _ -> snd (Option.get (Eventq.next q))) in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] order

let test_eventq_stable () =
  let q = Eventq.create () in
  Eventq.schedule q ~time:1. "first";
  Eventq.schedule q ~time:1. "second";
  Alcotest.(check string) "fifo on ties" "first" (snd (Option.get (Eventq.next q)));
  Alcotest.(check string) "fifo on ties 2" "second" (snd (Option.get (Eventq.next q)))

let test_eventq_rejects_bad_time () =
  let q = Eventq.create () in
  Alcotest.(check bool) "negative" true
    (match Eventq.schedule q ~time:(-1.) () with
     | exception Invalid_argument _ -> true
     | _ -> false);
  Alcotest.(check bool) "nan" true
    (match Eventq.schedule q ~time:Float.nan () with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* Property: equal timestamps pop in insertion order whatever the
   schedule interleaving - the simulators rely on this for
   determinism. *)
let prop_eventq_fifo_ties =
  QCheck2.Test.make ~name:"eventq: FIFO among equal timestamps" ~count:200
    QCheck2.Gen.(list_size (int_range 1 50) (int_bound 3))
    (fun times ->
      let q = Eventq.create () in
      List.iteri (fun i t -> Eventq.schedule q ~time:(float_of_int t) (t, i)) times;
      let rec drain acc =
        match Eventq.next q with
        | None -> List.rev acc
        | Some (_, payload) -> drain (payload :: acc)
      in
      let rec ordered = function
        | (t1, i1) :: ((t2, i2) :: _ as rest) ->
          (t1 < t2 || (t1 = t2 && i1 < i2)) && ordered rest
        | _ -> true
      in
      ordered (drain []))

(* Regression: [clear] used to empty the queue but leave the sequence
   counter running, so a reused queue tie-broke differently from a
   fresh one — a determinism leak across resets. *)
let test_eventq_clear_resets_seq () =
  let q = Eventq.create () in
  Eventq.schedule q ~time:1. "x";
  Eventq.schedule q ~time:2. "y";
  ignore (Eventq.pop_before q ~until:3.);
  Eventq.clear q;
  Alcotest.(check bool) "empty" true (Eventq.is_empty q);
  check_float "last_time reset" 0. (Eventq.last_time q);
  Eventq.schedule q ~time:4. "z";
  (match Eventq.peek_key q with
   | Some (t, s) ->
     check_float "time" 4. t;
     Alcotest.(check int) "seq restarts at 0" 0 s
   | None -> Alcotest.fail "empty after schedule");
  Alcotest.(check int) "peak length reset" 1 (Eventq.peak_length q)

(* A cleared queue reuses its arrays: refill it past the size it had,
   and every event still pops in (time, seq) order with its own
   payload. *)
let test_eventq_clear_reuses_storage () =
  let q = Eventq.create () in
  let fill n =
    for k = 0 to n - 1 do
      Eventq.schedule q ~time:(float_of_int (k * 37 mod 50)) k
    done
  in
  fill 100;
  for _ = 1 to 50 do ignore (Eventq.next q) done;
  Eventq.clear q;
  fill 150;
  let expect = List.sort compare (List.init 150 (fun k -> (k * 37 mod 50, k))) in
  let got =
    List.init 150 (fun _ ->
        match Eventq.next q with Some (t, k) -> (int_of_float t, k) | None -> (-1, -1))
  in
  Alcotest.(check (list (pair int int))) "(time, seq) order with payloads" expect got;
  Alcotest.(check bool) "drained" true (Eventq.is_empty q)

let test_eventq_pop_before_time_cell () =
  let q = Eventq.create () in
  let cell = Eventq.time_cell q in
  Eventq.schedule q ~time:5e-6 "a";
  Eventq.schedule q ~time:9e-6 "b";
  Alcotest.(check (option string)) "beyond horizon" None (Eventq.pop_before q ~until:1e-6);
  Alcotest.(check (option string)) "within horizon" (Some "a")
    (Eventq.pop_before q ~until:6e-6);
  check_float "last_time" 5e-6 (Eventq.last_time q);
  Alcotest.(check (option string)) "rest" (Some "b")
    (Eventq.pop_before q ~until:Float.infinity);
  check_float "shared cell tracks pops" 9e-6 cell.(0)

let test_eventq_precedes () =
  let q = Eventq.create () in
  let precedes time seq = Eventq.precedes_head_at q [| time |] 0 ~seq in
  Alcotest.(check bool) "empty precedes" true (precedes 1e3 0);
  for _ = 1 to 7 do ignore (Eventq.alloc_seq q : int) done;
  Eventq.schedule_at q [| 5e-6 |] 0 ~seq:(Eventq.alloc_seq q) ();
  Alcotest.(check bool) "earlier time" true (precedes 1e-6 99);
  Alcotest.(check bool) "same time lower seq" true (precedes 5e-6 3);
  Alcotest.(check bool) "same key is not strict" false (precedes 5e-6 7);
  Alcotest.(check bool) "same time higher seq" false (precedes 5e-6 8);
  Alcotest.(check bool) "later time" false (precedes 6e-6 0)

(* The flat heap against the boxed binary-heap reference queue
   (Mifo_oracle.Heap_queue): any interleaving of schedules, pops,
   horizon-bounded pops, claimed-then-scheduled seqs (the packet-train
   discipline, scheduled out of claim order) and the allocation-free
   [due]/[take] pair — duplicate times, far-future outliers including
   +inf — pops bit-identically, keys and the time cell included, and
   [precedes_head_at] agrees with the oracle's head after every step. *)
let eventq_time_gen =
  QCheck2.Gen.(
    frequency
      [
        (6, map (fun k -> float_of_int k *. 1e-7) (int_bound 300));
        (1, map (fun k -> 1000. +. float_of_int k) (int_bound 3));
        (1, return Float.infinity);
      ])

let prop_eventq_engines_agree =
  QCheck2.Test.make ~name:"eventq: pops match the heap oracle" ~count:300
    QCheck2.Gen.(list_size (int_range 1 250) (pair (int_bound 5) eventq_time_gen))
    (fun ops ->
      let qh = Heap_queue.create () in
      let qw = Eventq.create () in
      let cell = Eventq.time_cell qw in
      let times = [| 0. |] in
      let claimed = ref [] in
      let i = ref 0 and agree = ref true in
      let same popped_h popped_w =
        match (popped_h, popped_w) with
        | None, None -> false
        | Some (th, ph), Some (tw, pw) ->
          if not (Int64.bits_of_float th = Int64.bits_of_float tw && ph = pw) then
            agree := false;
          true
        | Some _, None | None, Some _ ->
          agree := false;
          false
      in
      let pop_both () = same (Heap_queue.next qh) (Eventq.next qw) in
      let pop_both_before until =
        let w =
          Option.map (fun p -> (Eventq.last_time qw, p)) (Eventq.pop_before qw ~until)
        in
        ignore (same (Heap_queue.pop_before qh ~until) w)
      in
      let take_both until =
        let w = if Eventq.due qw ~until then Some (Eventq.take qw) else None in
        let w = Option.map (fun p -> (cell.(0), p)) w in
        ignore (same (Heap_queue.pop_before qh ~until) w)
      in
      let precedes_agrees time seq =
        times.(0) <- time;
        let expect =
          match Heap_queue.peek_key qh with
          | None -> true
          | Some (th, sh) -> time < th || (time = th && seq < sh)
        in
        Eventq.precedes_head_at qw times 0 ~seq = expect
      in
      List.iter
        (fun (op, t) ->
          (match op with
          | 0 -> ignore (pop_both ())
          | 1 -> pop_both_before t
          | 2 ->
            Eventq.schedule qw ~time:t !i;
            Heap_queue.schedule qh ~time:t !i;
            incr i
          | 3 ->
            let seq = Eventq.alloc_seq qw in
            if seq <> Heap_queue.alloc_seq qh then agree := false;
            claimed := (t, seq) :: !claimed
          | 4 -> (
            match !claimed with
            | [] -> ()
            | (t, seq) :: rest ->
              claimed := rest;
              times.(0) <- t;
              Eventq.schedule_at qw times 0 ~seq !i;
              Heap_queue.schedule_seq qh ~time:t ~seq !i;
              incr i)
          | _ -> take_both t);
          if Heap_queue.peek_key qh <> Eventq.peek_key qw then agree := false;
          if not (precedes_agrees t !i) then agree := false;
          match Heap_queue.peek_key qh with
          | Some (th, sh) ->
            if not (precedes_agrees th (sh - 1) && precedes_agrees th sh) then
              agree := false
          | None -> ())
        ops;
      while pop_both () do () done;
      !agree && Heap_queue.is_empty qh && Eventq.is_empty qw)

(* Allocation gate: on a warmed queue of 300 pending events, the
   hot-path calls the packet loop makes per event — claim a seq, test
   it against the head, schedule from a flat time array, [due], [take]
   — allocate nothing.  A queue that boxes an item per event, or a float
   per call, fails it. *)
let test_eventq_allocation_gate () =
  let q = Eventq.create () in
  let cell = Eventq.time_cell q in
  let times = [| 0. |] in
  for k = 0 to 299 do
    times.(0) <- float_of_int (k * 7919 mod 300) *. 1e-7;
    Eventq.schedule_at q times 0 ~seq:(Eventq.alloc_seq q) k
  done;
  let ahead = ref 0 in
  let round () =
    for _ = 1 to 10_000 do
      if Eventq.due q ~until:Float.infinity then begin
        let p = Eventq.take q in
        times.(0) <- cell.(0) +. (float_of_int ((p mod 300) + 1) *. 1e-7);
        let seq = Eventq.alloc_seq q in
        if Eventq.precedes_head_at q times 0 ~seq then incr ahead;
        Eventq.schedule_at q times 0 ~seq (p + 1)
      end
    done
  in
  round ();
  let w0 = Gc.minor_words () in
  round ();
  let w1 = Gc.minor_words () in
  Alcotest.(check int) "still 300 pending" 300 (Eventq.length q);
  Alcotest.(check bool) "some rescheduled events run ahead of the queue" true (!ahead > 0);
  Alcotest.(check (float 0.)) "minor words for 10K queue rounds" 0. (w1 -. w0)

(* ---------- Maxmin ---------- *)

(* Production max-min: a fresh Solver over [capacities] with every
   flow's deduplicated link set registered in order; returns the rates
   and the per-link allocation. *)
let solve ~capacities ~flow_links =
  let sv = Maxmin.Solver.create ~nlinks:(Array.length capacities) () in
  Array.iteri (Maxmin.Solver.set_capacity sv) capacities;
  let slots =
    Array.map (fun links -> Maxmin.Solver.register sv (Maxmin.dedup_links links)) flow_links
  in
  Maxmin.Solver.solve sv slots (Array.length slots);
  (Array.map (Maxmin.Solver.rate sv) slots, Array.copy (Maxmin.Solver.link_allocs sv))

let rates ~capacities ~flow_links = fst (solve ~capacities ~flow_links)

let test_maxmin_two_flows_one_link () =
  let rates = rates ~capacities:[| 10. |] ~flow_links:[| [| 0 |]; [| 0 |] |] in
  check_float "fair split" 5. rates.(0);
  check_float "fair split" 5. rates.(1)

let test_maxmin_classic () =
  (* classic example: links A(cap 10) and B(cap 4); flow1 on A+B, flow2 on
     B, flow3 on A.  Max-min: flow1 = flow2 = 2 (B bottleneck), flow3 = 8. *)
  let rates =
    rates ~capacities:[| 10.; 4. |] ~flow_links:[| [| 0; 1 |]; [| 1 |]; [| 0 |] |]
  in
  check_float "flow1" 2. rates.(0);
  check_float "flow2" 2. rates.(1);
  check_float "flow3" 8. rates.(2)

let test_maxmin_empty_path () =
  (* A flow crossing no link is unconstrained: infinity, explicitly —
     not the largest capacity of links it never touches. *)
  let rates1 = rates ~capacities:[| 7. |] ~flow_links:[| [||] |] in
  Alcotest.(check bool) "unconstrained is infinite" true (rates1.(0) = Float.infinity);
  (* and it must not rob constrained flows of anything *)
  let rates3 = rates ~capacities:[| 7. |] ~flow_links:[| [||]; [| 0 |]; [| 0 |] |] in
  Alcotest.(check bool) "still infinite beside others" true (rates3.(0) = Float.infinity);
  check_float "others unaffected" 3.5 rates3.(1);
  check_float "others unaffected" 3.5 rates3.(2)

let test_maxmin_all_empty_flows () =
  let rs, alloc = solve ~capacities:[| 5.; 2. |] ~flow_links:[| [||]; [||] |] in
  Array.iter
    (fun r -> Alcotest.(check bool) "all unconstrained" true (r = Float.infinity))
    rs;
  check_float "nothing allocated" 0. alloc.(0);
  check_float "nothing allocated" 0. alloc.(1);
  (* no links at all: same answer, no division by a fold over nothing *)
  let rs = rates ~capacities:[||] ~flow_links:[| [||] |] in
  Alcotest.(check bool) "no links" true (rs.(0) = Float.infinity)

let test_maxmin_duplicate_links_counted_once () =
  let rates = rates ~capacities:[| 6. |] ~flow_links:[| [| 0; 0 |]; [| 0 |] |] in
  check_float "dedup" 3. rates.(0);
  check_float "dedup" 3. rates.(1)

let test_maxmin_rejects_bad_input () =
  Alcotest.(check bool) "bad link id" true
    (match rates ~capacities:[| 1. |] ~flow_links:[| [| 3 |] |] with
     | exception Invalid_argument _ -> true
     | _ -> false);
  Alcotest.(check bool) "negative capacity" true
    (match rates ~capacities:[| -1. |] ~flow_links:[||] with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* Properties: feasibility and the bottleneck characterization of max-min
   fairness: every flow crosses a saturated link on which it has the
   maximal rate. *)
let maxmin_instance_gen =
  QCheck2.Gen.(
    let* nlinks = int_range 1 12 in
    let* nflows = int_range 1 20 in
    let* caps = array_size (return nlinks) (float_range 1. 100.) in
    let* flows =
      array_size (return nflows)
        (list_size (int_range 1 5) (int_bound (nlinks - 1)))
    in
    return (caps, Array.map Array.of_list flows))

let prop_maxmin_feasible =
  QCheck2.Test.make ~name:"max-min allocation never exceeds capacity" ~count:300
    maxmin_instance_gen
    (fun (caps, flows) ->
      let _, alloc = solve ~capacities:caps ~flow_links:flows in
      Array.for_all2 (fun a c -> a <= c +. 1e-6) alloc caps)

let prop_maxmin_bottleneck =
  QCheck2.Test.make ~name:"every flow has a saturated bottleneck where it is maximal"
    ~count:300 maxmin_instance_gen
    (fun (caps, flows) ->
      let rates, alloc = solve ~capacities:caps ~flow_links:flows in
      let max_rate_on = Array.make (Array.length caps) 0. in
      Array.iteri
        (fun f links ->
          Array.iter (fun l -> max_rate_on.(l) <- Float.max max_rate_on.(l) rates.(f)) links)
        flows;
      Array.for_all
        (fun f ->
          Array.length flows.(f) = 0
          || Array.exists
               (fun l -> alloc.(l) >= caps.(l) -. 1e-6 && rates.(f) >= max_rate_on.(l) -. 1e-6)
               flows.(f))
        (Array.init (Array.length flows) Fun.id))

(* ---------- Incremental solver ---------- *)

(* Richer instances than the fairness properties: zero-capacity links,
   empty link sets, duplicate link ids — the corners the incremental
   solver must agree with the reference allocator (Mifo_oracle.Maxmin_ref)
   on, bit for bit. *)
let solver_instance_gen =
  QCheck2.Gen.(
    let* nlinks = int_range 1 12 in
    let* nflows = int_range 0 20 in
    let* caps =
      array_size (return nlinks)
        (oneof [ return 0.; float_range 1. 100. ])
    in
    let* flows =
      array_size (return nflows)
        (list_size (int_range 0 5) (int_bound (nlinks - 1)))
    in
    return (caps, Array.map Array.of_list flows))

let exactly_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b

let prop_solver_matches_reference =
  QCheck2.Test.make
    ~name:"Solver rates and link allocs are bit-identical to the reference"
    ~count:500 solver_instance_gen
    (fun (caps, flows) ->
      let expect = Maxmin_ref.allocate ~capacities:caps ~flow_links:flows in
      let deduped = Array.map Maxmin.dedup_links flows in
      let expect_alloc =
        Maxmin_ref.link_allocation ~capacities:caps ~flow_links:deduped ~rates:expect
      in
      let sv = Maxmin.Solver.create ~nlinks:(Array.length caps) () in
      Array.iteri (fun l c -> Maxmin.Solver.set_capacity sv l c) caps;
      let slots = Array.map (fun links -> Maxmin.Solver.register sv links) deduped in
      Maxmin.Solver.solve sv slots (Array.length slots);
      let got = Array.map (fun s -> Maxmin.Solver.rate sv s) slots in
      exactly_equal expect got
      && exactly_equal expect_alloc (Maxmin.Solver.link_allocs sv))

(* Slot reuse: solving, retiring a subset of flows, admitting new ones,
   and solving again must still match a fresh reference run — the
   freelist and stale per-slot state must not leak into the next solve. *)
let prop_solver_slot_reuse =
  QCheck2.Test.make
    ~name:"Solver matches the reference across unregister/register churn"
    ~count:300
    QCheck2.Gen.(
      let* inst = solver_instance_gen in
      let* inst2 = solver_instance_gen in
      let* keep_mask = array_size (return (Array.length (snd inst))) bool in
      return (inst, inst2, keep_mask))
    (fun (((caps, flows), (_, flows2), keep_mask)) ->
      let nlinks = Array.length caps in
      let clamp links =
        Maxmin.dedup_links (Array.map (fun l -> l mod nlinks) links)
      in
      let sv = Maxmin.Solver.create ~nlinks () in
      Array.iteri (fun l c -> Maxmin.Solver.set_capacity sv l c) caps;
      let slots1 =
        Array.map (fun links -> Maxmin.Solver.register sv (clamp links)) flows
      in
      Maxmin.Solver.solve sv slots1 (Array.length slots1);
      (* churn: drop the unmasked flows, admit the second instance's *)
      let kept =
        Array.of_list
          (List.filteri
             (fun i _ -> keep_mask.(i))
             (Array.to_list slots1))
      in
      Array.iteri
        (fun i s -> if not keep_mask.(i) then Maxmin.Solver.unregister sv s)
        slots1;
      let fresh =
        Array.map (fun links -> Maxmin.Solver.register sv (clamp links)) flows2
      in
      let active = Array.append kept fresh in
      Maxmin.Solver.solve sv active (Array.length active);
      let kept_links =
        Array.of_list
          (List.filteri (fun i _ -> keep_mask.(i)) (Array.to_list flows))
      in
      let ref_links =
        Array.map clamp (Array.append kept_links flows2)
      in
      let expect = Maxmin_ref.allocate ~capacities:caps ~flow_links:ref_links in
      let got = Array.map (fun s -> Maxmin.Solver.rate sv s) active in
      exactly_equal expect got)

(* Flowsim skips the solve on clean epochs, which is sound only because
   re-solving is idempotent: a second solve with no register,
   unregister, set_links or set_capacity in between reproduces the
   rates and link allocations bit for bit — checked on a fresh solver
   and again after unregister/register churn has recycled slots. *)
let prop_solver_idempotent =
  QCheck2.Test.make ~name:"Solver re-solve with no change is bit-identical" ~count:300
    QCheck2.Gen.(
      let* ((_, flows) as inst) = solver_instance_gen in
      let* flows2 = array_size (int_range 0 8) (list_size (int_range 0 5) (int_bound 11)) in
      let* keep_mask = array_size (return (Array.length flows)) bool in
      return (inst, Array.map Array.of_list flows2, keep_mask))
    (fun ((caps, flows), flows2, keep_mask) ->
      let nlinks = Array.length caps in
      let clamp links = Maxmin.dedup_links (Array.map (fun l -> l mod nlinks) links) in
      let sv = Maxmin.Solver.create ~nlinks () in
      Array.iteri (Maxmin.Solver.set_capacity sv) caps;
      let twice active =
        let n = Array.length active in
        Maxmin.Solver.solve sv active n;
        let rates = Array.map (Maxmin.Solver.rate sv) active in
        let allocs = Array.copy (Maxmin.Solver.link_allocs sv) in
        Maxmin.Solver.solve sv active n;
        exactly_equal rates (Array.map (Maxmin.Solver.rate sv) active)
        && exactly_equal allocs (Maxmin.Solver.link_allocs sv)
      in
      let slots = Array.map (fun links -> Maxmin.Solver.register sv (clamp links)) flows in
      let fresh_ok = twice slots in
      Array.iteri (fun i s -> if not keep_mask.(i) then Maxmin.Solver.unregister sv s) slots;
      let kept = List.filteri (fun i _ -> keep_mask.(i)) (Array.to_list slots) in
      let added = Array.map (fun links -> Maxmin.Solver.register sv (clamp links)) flows2 in
      fresh_ok && twice (Array.append (Array.of_list kept) added))

let test_solver_validation () =
  let expect_invalid name f =
    Alcotest.(check bool) name true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  expect_invalid "negative nlinks" (fun () ->
      Maxmin.Solver.create ~nlinks:(-1) ());
  expect_invalid "nan capacity" (fun () ->
      Maxmin.Solver.create ~capacity:Float.nan ~nlinks:1 ());
  let sv = Maxmin.Solver.create ~capacity:1. ~nlinks:3 () in
  expect_invalid "unsorted links" (fun () ->
      Maxmin.Solver.register sv [| 2; 1 |]);
  expect_invalid "duplicate links" (fun () ->
      Maxmin.Solver.register sv [| 1; 1 |]);
  expect_invalid "out-of-range link" (fun () ->
      Maxmin.Solver.register sv [| 0; 3 |]);
  expect_invalid "negative capacity" (fun () ->
      Maxmin.Solver.set_capacity sv 0 (-1.));
  let s = Maxmin.Solver.register sv [| 0; 2 |] in
  Maxmin.Solver.unregister sv s;
  expect_invalid "stale slot" (fun () -> Maxmin.Solver.rate sv s);
  expect_invalid "unknown slot in solve" (fun () ->
      Maxmin.Solver.solve sv [| 99 |] 1);
  (* empty link set: unconstrained, infinity, even after slot reuse *)
  let s2 = Maxmin.Solver.register sv [||] in
  Maxmin.Solver.solve sv [| s2 |] 1;
  Alcotest.(check bool) "empty set is unconstrained" true
    (Maxmin.Solver.rate sv s2 = Float.infinity);
  Alcotest.(check int) "solve count" 1 (Maxmin.Solver.solves sv)

(* ---------- Tcp ---------- *)

let test_tcp_window_pump () =
  let s = Tcp.Sender.create ~total:100 in
  let sent = ref [] in
  let rec pump () =
    match Tcp.Sender.next_to_send s with
    | Some seq ->
      sent := seq :: !sent;
      pump ()
    | None -> ()
  in
  pump ();
  (* initial cwnd of 10 segments *)
  Alcotest.(check (list int)) "initial window" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !sent)

let test_tcp_slow_start_growth () =
  let s = Tcp.Sender.create ~total:1000 in
  let before = Tcp.Sender.cwnd s in
  ignore (Tcp.Sender.next_to_send s);
  ignore (Tcp.Sender.on_ack s 1);
  Alcotest.(check bool) "cwnd +1 in slow start" true (Tcp.Sender.cwnd s = before +. 1.)

let test_tcp_fast_retransmit () =
  let s = Tcp.Sender.create ~total:100 in
  for _ = 1 to 12 do
    ignore (Tcp.Sender.next_to_send s)
  done;
  ignore (Tcp.Sender.on_ack s 1);
  (* three duplicate ACKs for 1 *)
  Alcotest.(check (list int)) "no rtx yet" [] (Tcp.Sender.on_ack s 1);
  Alcotest.(check (list int)) "no rtx yet" [] (Tcp.Sender.on_ack s 1);
  Alcotest.(check (list int)) "fast retransmit of 1" [ 1 ] (Tcp.Sender.on_ack s 1);
  Alcotest.(check bool) "cwnd halved" true (Tcp.Sender.cwnd s <= 6.)

let test_tcp_timeout_gobackn () =
  let s = Tcp.Sender.create ~total:100 in
  for _ = 1 to 10 do
    ignore (Tcp.Sender.next_to_send s)
  done;
  let gen = Tcp.Sender.arm_timer s in
  Alcotest.(check (list int)) "stale generation ignored" []
    (Tcp.Sender.on_timeout s ~gen:(gen - 1));
  Alcotest.(check (list int)) "head retransmitted" [ 0 ] (Tcp.Sender.on_timeout s ~gen);
  Alcotest.(check bool) "cwnd collapsed" true (Tcp.Sender.cwnd s = 1.)

let test_tcp_done () =
  let s = Tcp.Sender.create ~total:3 in
  for _ = 1 to 3 do
    ignore (Tcp.Sender.next_to_send s)
  done;
  ignore (Tcp.Sender.on_ack s 3);
  Alcotest.(check bool) "done" true (Tcp.Sender.is_done s);
  Alcotest.(check bool) "no more to send" true (Tcp.Sender.next_to_send s = None)

let test_tcp_rtt_estimator () =
  let s = Tcp.Sender.create ~total:10 in
  Tcp.Sender.observe_rtt s 0.010;
  Alcotest.(check bool) "rto above srtt" true (Tcp.Sender.rto s >= 0.010);
  Tcp.Sender.observe_rtt s 0.010;
  Tcp.Sender.observe_rtt s 0.010;
  Alcotest.(check bool) "rto converges near srtt" true (Tcp.Sender.rto s < 0.05)

let test_tcp_receiver_reorder () =
  let r = Tcp.Receiver.create () in
  Alcotest.(check int) "in order" 1 (Tcp.Receiver.on_data r 0);
  Alcotest.(check int) "gap held" 1 (Tcp.Receiver.on_data r 2);
  Alcotest.(check int) "gap held" 1 (Tcp.Receiver.on_data r 3);
  Alcotest.(check int) "gap filled advances past buffer" 4 (Tcp.Receiver.on_data r 1);
  Alcotest.(check int) "duplicate is harmless" 4 (Tcp.Receiver.on_data r 2)

(* Property: whatever event sequence the network throws at a sender -
   spurious ACKs beyond what was sent, timeouts, adversarial RTT samples
   (zero, negative, nan, huge) - the core safety invariants hold:
   snd_una never regresses, cwnd stays >= 1 segment, and the RTO stays
   inside its clamp. *)
let tcp_op_gen =
  QCheck2.Gen.(
    oneof
      [
        return `Send;
        map (fun a -> `Ack a) (int_bound 60);
        return `Timeout;
        map
          (fun r -> `Rtt r)
          (oneofl [ -1.; 0.; Float.nan; 1e-9; 1e-6; 0.004; 0.05; 1.; 10.; 1000. ]);
      ])

let prop_tcp_sender_invariants =
  QCheck2.Test.make ~name:"tcp sender: snd_una monotone, cwnd >= 1, rto clamped"
    ~count:500
    QCheck2.Gen.(list_size (int_range 1 200) tcp_op_gen)
    (fun ops ->
      let s = Tcp.Sender.create ~total:50 in
      List.for_all
        (fun op ->
          let una0 = Tcp.Sender.snd_una s in
          (match op with
           | `Send -> ignore (Tcp.Sender.next_to_send s)
           | `Ack a -> ignore (Tcp.Sender.on_ack s a)
           | `Timeout ->
             let gen = Tcp.Sender.arm_timer s in
             ignore (Tcp.Sender.on_timeout s ~gen)
           | `Rtt r -> Tcp.Sender.observe_rtt s r);
          Tcp.Sender.snd_una s >= una0
          && Tcp.Sender.cwnd s >= 1.
          && Tcp.Sender.rto s >= Tcp.Sender.min_rto
          && Tcp.Sender.rto s <= Tcp.Sender.max_rto)
        ops)

(* ---------- Flowsim ---------- *)

let topo = lazy (Generator.generate ~seed:31 ())
let table = lazy (Routing_table.create (Lazy.force topo).Generator.graph)

let quick_params =
  { Flowsim.default_params with Flowsim.max_time = 30. }

let mk_flows specs =
  Array.of_list
    (List.map
       (fun (src, dst, start) ->
         { Flowsim.src; dst; size_bits = 8e6 (* 1 MB *); start })
       specs)

let test_flowsim_single_flow () =
  let table = Lazy.force table in
  (* 10 MB so the transfer spans many epochs and the average is sharp *)
  let flows = [| { Flowsim.src = 100; dst = 200; size_bits = 8e7; start = 0. } |] in
  let r = Flowsim.run ~params:quick_params table Flowsim.Bgp flows in
  Alcotest.(check int) "one flow" 1 (Array.length r.Flowsim.flows);
  let s = r.Flowsim.flows.(0) in
  Alcotest.(check bool) "completed" true s.Flowsim.completed;
  (* alone in the network: full link rate *)
  Alcotest.(check bool) "rate ~1Gbps" true (s.Flowsim.throughput > 0.85e9);
  Alcotest.(check int) "no switches under BGP" 0 s.Flowsim.switches

let test_flowsim_sharing () =
  let table = Lazy.force table in
  (* many flows between the same pair share the same default path *)
  let flows = mk_flows (List.init 4 (fun _ -> (100, 200, 0.))) in
  let r = Flowsim.run ~params:quick_params table Flowsim.Bgp flows in
  Array.iter
    (fun (s : Flowsim.flow_stats) ->
      Alcotest.(check bool) "quarter of the link each" true
        (s.Flowsim.throughput < 0.3e9 && s.Flowsim.throughput > 0.15e9))
    r.Flowsim.flows

let test_flowsim_deterministic () =
  let table = Lazy.force table in
  let n = As_graph.n (Routing_table.graph table) in
  let flows =
    Mifo_traffic.Traffic.uniform (Mifo_util.Prng.create ~seed:3 ()) ~n_ases:n ~count:150
      ~rate:2000. ()
  in
  let d = Deployment.full ~n in
  let r1 = Flowsim.run ~params:quick_params table (Flowsim.Mifo d) flows in
  let r2 = Flowsim.run ~params:quick_params table (Flowsim.Mifo d) flows in
  Alcotest.(check (array (float 1e-9))) "identical runs"
    (Flowsim.throughputs r1) (Flowsim.throughputs r2)

let test_flowsim_bgp_never_offloads () =
  let table = Lazy.force table in
  let flows = mk_flows (List.init 10 (fun i -> (100 + i, 200, 0.))) in
  let r = Flowsim.run ~params:quick_params table Flowsim.Bgp flows in
  check_float "no offload" 0. r.Flowsim.offload_fraction

let test_flowsim_mifo_paths_valley_free () =
  let table = Lazy.force table in
  let g = Routing_table.graph table in
  let n = As_graph.n g in
  let flows =
    Mifo_traffic.Traffic.uniform (Mifo_util.Prng.create ~seed:4 ()) ~n_ases:n ~count:300
      ~rate:4000. ()
  in
  let r = Flowsim.run ~params:quick_params table (Flowsim.Mifo (Deployment.full ~n)) flows in
  let switched = ref 0 in
  Array.iter
    (fun (s : Flowsim.flow_stats) ->
      if s.Flowsim.used_alt then incr switched;
      Alcotest.(check bool) "final path valley-free" true
        (As_graph.path_is_valley_free g (Array.to_list s.Flowsim.final_path)))
    r.Flowsim.flows;
  Alcotest.(check bool) "some flows actually deflected" true (!switched > 0)

(* Diamond with a link failure: BGP flows stall forever, MIFO routes
   around within an epoch. *)
let test_flowsim_link_failure () =
  let g =
    As_graph.create ~n:6
      ~edges:
        [
          (1, 0, As_graph.Provider_customer);
          (2, 0, As_graph.Provider_customer);
          (3, 1, As_graph.Provider_customer);
          (3, 2, As_graph.Provider_customer);
          (3, 4, As_graph.Provider_customer);
          (3, 5, As_graph.Provider_customer);
        ]
  in
  let table = Routing_table.create g in
  let flows =
    [|
      { Flowsim.src = 4; dst = 0; size_bits = 8e7; start = 0. };
      { Flowsim.src = 5; dst = 0; size_bits = 8e7; start = 0. };
    |]
  in
  let params = { Flowsim.default_params with Flowsim.max_time = 5. } in
  (* default paths run 3 -> 1 -> 0; cut (3, 1) at t = 0.05 *)
  let failures = [ (0.05, (3, 1)) ] in
  let bgp = Flowsim.run ~params ~failures table Flowsim.Bgp flows in
  Array.iter
    (fun (s : Flowsim.flow_stats) ->
      Alcotest.(check bool) "BGP flow stalls on the dead link" false s.Flowsim.completed)
    bgp.Flowsim.flows;
  let mifo = Flowsim.run ~params ~failures table (Flowsim.Mifo (Deployment.full ~n:6)) flows in
  Array.iter
    (fun (s : Flowsim.flow_stats) ->
      Alcotest.(check bool) "MIFO flow routes around" true s.Flowsim.completed;
      Alcotest.(check bool) "finishes quickly" true (s.Flowsim.finish < 1.0))
    mifo.Flowsim.flows

let test_flowsim_failure_validation () =
  let table = Lazy.force table in
  let flows = mk_flows [ (1, 2, 0.) ] in
  Alcotest.(check bool) "non-adjacent failure rejected" true
    (match Flowsim.run ~failures:[ (0., (1, 1)) ] table Flowsim.Bgp flows with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_flowsim_rejects_bad_specs () =
  let table = Lazy.force table in
  let bad = [| { Flowsim.src = 1; dst = 1; size_bits = 1.; start = 0. } |] in
  Alcotest.(check bool) "src=dst rejected" true
    (match Flowsim.run table Flowsim.Bgp bad with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* Bit-level digest of a float sequence, for pinning long outputs. *)
let digest_floats xs =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.map (fun f -> Printf.sprintf "%Lx" (Int64.bits_of_float f)) xs)))

(* Outputs of the reference engine — a fresh per-epoch
   Mifo_oracle.Maxmin_ref allocation on every epoch — on the workload
   below, recorded while that engine still ran inside Flowsim.  The
   production solver, which skips clean epochs, must reproduce them bit
   for bit: skipping a solve is only sound because re-running it would
   reproduce the exact same floats. *)
let reference_throughput_bits =
  [|
    0x41c3de4355555552L; 0x41c4090135c81132L; 0x41cd6f34587e6b6fL; 0x41cdcd64fffffff7L;
    0x41cdcd65000000b3L; 0x41cdcd65000000b3L; 0x41cdcd65000000d8L; 0x41cdcd65000000b3L;
  |]

let reference_series_digest = "f98a0e8fd459a631e556c82cc419bc4e"
let reference_epochs = 200

let test_flowsim_engines_bit_identical () =
  let topo = Lazy.force topo in
  let table = Lazy.force table in
  let n = As_graph.n topo.Generator.graph in
  (* long-lived flows (hundreds of epochs each) so that most epochs see
     no arrival/completion/switch and are skippable *)
  let flows =
    Array.of_list
      (List.map
         (fun (src, dst, start) ->
           { Flowsim.src; dst; size_bits = 4e8; start })
         [
           (100, 200, 0.); (101, 200, 0.1); (102, 200, 0.2); (150, 250, 0.3);
           (151, 250, 2.0); (152, 250, 6.0); (103, 200, 6.1); (104, 200, 12.0);
         ])
  in
  let r =
    Flowsim.run
      ~params:{ quick_params with Flowsim.max_time = 20. }
      table
      (Flowsim.Mifo (Deployment.full ~n))
      flows
  in
  Alcotest.(check (array int64))
    "throughputs = reference" reference_throughput_bits
    (Array.map Int64.bits_of_float (Flowsim.throughputs r));
  Alcotest.(check string)
    "series = reference" reference_series_digest
    (digest_floats (List.concat_map (fun (t, v) -> [ t; v ]) (Array.to_list r.Flowsim.series)));
  Alcotest.(check int) "same epochs" reference_epochs r.Flowsim.epochs;
  (* the whole point: clean epochs were actually skipped *)
  Alcotest.(check bool) "skipping happened" true (r.Flowsim.solves < r.Flowsim.epochs)

(* Series sampling must stay phase-locked to the interval grid.  With
   dt = 0.01 and interval = 0.025, anchoring the cursor at the (dt-
   quantized) epoch time drifts the effective period to 0.03 — a 20%
   sample deficit.  The grid-snapped cursor yields exactly one sample
   per grid point covered by the run. *)
let test_flowsim_series_grid () =
  let table = Lazy.force table in
  let params =
    {
      Flowsim.default_params with
      Flowsim.max_time = 10.;
      series_interval = 0.025;
    }
  in
  (* one flow too large to finish: the sim runs the full horizon *)
  let flows = [| { Flowsim.src = 100; dst = 200; size_bits = 1e12; start = 0. } |] in
  let r = Flowsim.run ~params table Flowsim.Bgp flows in
  let expected =
    1 + int_of_float (Float.floor (r.Flowsim.sim_end /. params.Flowsim.series_interval))
  in
  Alcotest.(check int) "one sample per grid point" expected
    (Array.length r.Flowsim.series);
  (* sample timestamps strictly increase and never bunch (no catch-up
     bursts after idle gaps); a sample may fire up to dt late while the
     next lands back on the grid, so the spacing floor is interval - dt *)
  let late = mk_flows [ (100, 200, 0.); (101, 200, 8.) ] in
  let r2 = Flowsim.run ~params table Flowsim.Bgp late in
  let min_spacing =
    params.Flowsim.series_interval -. params.Flowsim.dt -. 1e-9
  in
  let ok = ref true in
  Array.iteri
    (fun i (t, _) ->
      if i > 0 then begin
        let prev, _ = r2.Flowsim.series.(i - 1) in
        if t -. prev < min_spacing then ok := false
      end)
    r2.Flowsim.series;
  Alcotest.(check bool) "no sample bunching" true !ok

(* ---------- Packetsim ---------- *)

(* Two hosts connected through two routers in a line. *)
let line_network ?config ?(rate = 1e9) () =
  let sim = Packetsim.create ?config () in
  let h1 = Packetsim.add_host sim ~addr:(Prefix.host_of_as 1 1) in
  let h2 = Packetsim.add_host sim ~addr:(Prefix.host_of_as 2 1) in
  let r1 = Packetsim.add_router sim ~as_id:1 in
  let r2 = Packetsim.add_router sim ~as_id:2 in
  let local = Engine.Local in
  let _, r1h = Packetsim.connect sim ~a:h1 ~b:r1 ~kind_ab:local ~kind_ba:local ~rate () in
  let _, r2h = Packetsim.connect sim ~a:h2 ~b:r2 ~kind_ab:local ~kind_ba:local ~rate () in
  let r1r2, r2r1 =
    Packetsim.connect sim ~a:r1 ~b:r2
      ~kind_ab:(Engine.Ebgp { neighbor_as = 2; rel = Relationship.Customer })
      ~kind_ba:(Engine.Ebgp { neighbor_as = 1; rel = Relationship.Provider })
      ~rate ()
  in
  Fib.insert (Packetsim.fib sim r1) (Prefix.of_as 2) ~out_port:r1r2 ();
  Fib.insert (Packetsim.fib sim r1) (Prefix.of_as 1) ~out_port:r1h ();
  Fib.insert (Packetsim.fib sim r2) (Prefix.of_as 2) ~out_port:r2h ();
  Fib.insert (Packetsim.fib sim r2) (Prefix.of_as 1) ~out_port:r2r1 ();
  (sim, h1, h2)

let test_packetsim_transfer_completes () =
  let sim, h1, h2 = line_network () in
  let _ = Packetsim.add_flow sim ~src:h1 ~dst:h2 ~bytes:1_000_000 ~start:0. in
  Packetsim.run sim;
  let results = Packetsim.flow_results sim in
  Alcotest.(check int) "one flow" 1 (Array.length results);
  (match results.(0).Packetsim.finish with
   | Some f ->
     (* 8 Mbit at ~1 Gbps with ACK overhead: well under 100 ms *)
     Alcotest.(check bool) "reasonable FCT" true (f > 0.008 && f < 0.1)
   | None -> Alcotest.fail "did not finish");
  let c = Packetsim.counters sim in
  Alcotest.(check int) "all segments delivered" 1000 c.Packetsim.delivered_packets;
  Alcotest.(check int) "no valley drops" 0 c.Packetsim.dropped_valley

let test_packetsim_goodput_series () =
  let sim, h1, h2 = line_network () in
  let _ = Packetsim.add_flow sim ~src:h1 ~dst:h2 ~bytes:2_000_000 ~start:0. in
  Packetsim.run sim;
  let series = Packetsim.throughput_series sim in
  let total_bits =
    Array.fold_left (fun acc (_, v) -> acc +. (v *. (Packetsim.config sim).Packetsim.series_interval)) 0. series
  in
  Alcotest.(check bool) "series accounts for the transfer" true
    (abs_float (total_bits -. 16e6) < 16e4)

let test_packetsim_two_flows_share () =
  let sim, h1, h2 = line_network () in
  let _ = Packetsim.add_flow sim ~src:h1 ~dst:h2 ~bytes:2_000_000 ~start:0. in
  let _ = Packetsim.add_flow sim ~src:h1 ~dst:h2 ~bytes:2_000_000 ~start:0. in
  Packetsim.run sim;
  let results = Packetsim.flow_results sim in
  Array.iter
    (fun (r : Packetsim.flow_result) ->
      match r.Packetsim.finish with
      | Some f -> Alcotest.(check bool) "both slower than solo" true (f > 0.02)
      | None -> Alcotest.fail "did not finish")
    results

(* End-to-end bit-identity of the event queue: a TCP transfer with
   queue drops and retransmissions plus an open-loop UDP blast.  The
   fingerprint below was recorded from the binary-heap queue with
   per-packet scheduling (no trains) while that queue still ran inside
   Packetsim; the production queue, whose links batch departures into
   trains, must reproduce it. *)
let pkt_fingerprint sim =
  let finishes =
    Array.map
      (fun (r : Packetsim.flow_result) ->
        match r.Packetsim.finish with
        | Some f -> Int64.bits_of_float f
        | None -> Int64.minus_one)
      (Packetsim.flow_results sim)
  in
  (Packetsim.events_processed sim, finishes, Packetsim.counters sim)

let heap_oracle_fingerprint =
  ( 2755,
    [| 0x3fa7f7dd8a217d63L; Int64.minus_one |],
    {
      Packetsim.delivered_packets = 479;
      dropped_queue = 167;
      dropped_ttl = 0;
      dropped_valley = 0;
      dropped_no_route = 0;
      encapsulated = 0;
      deflected = 0;
    } )

let test_packetsim_engines_bit_identical () =
  let config = { Packetsim.default_config with Packetsim.queue_bits = 100_000 } in
  let sim, h1, h2 = line_network ~config ~rate:1e8 () in
  let _ = Packetsim.add_flow sim ~src:h1 ~dst:h2 ~bytes:400_000 ~start:0. in
  let _ = Packetsim.add_udp_flow sim ~src:h1 ~dst:h2 ~bytes:200_000 ~start:0.002 () in
  Packetsim.run ~until:30. sim;
  let c = Packetsim.counters sim in
  Alcotest.(check bool) "small queue forces drops" true (c.Packetsim.dropped_queue > 0);
  Alcotest.(check bool) "bit-identical to the heap oracle" true
    (pkt_fingerprint sim = heap_oracle_fingerprint)

(* Packet conservation: every packet a host originated is delivered,
   absorbed as an ACK or a stray, dropped, or still in flight. *)
let conserved sim =
  let c = Packetsim.counters sim in
  Packetsim.originated sim
  = c.Packetsim.delivered_packets + Packetsim.acks_absorbed sim
    + Packetsim.strays_absorbed sim + c.dropped_queue + c.dropped_ttl + c.dropped_valley
    + c.dropped_no_route + Packetsim.in_flight sim

(* Step [sim] one daemon period at a time up to [until], counting the
   steps after which conservation does not hold. *)
let step_conserved sim ~until =
  let period = (Packetsim.config sim).Packetsim.daemon_period in
  let broken = ref 0 in
  let steps = int_of_float (Float.ceil (until /. period)) in
  for k = 1 to steps do
    Packetsim.run ~until:(Float.min until (float_of_int k *. period)) sim;
    if not (conserved sim) then incr broken
  done;
  !broken

(* The lossy line network of the end-to-end eventq test, stepped one
   daemon period at a time: conservation holds at every step, nothing
   is left in flight at the end, and the stepped run still matches the
   pinned fingerprint. *)
let test_packetsim_conservation_lossy_line () =
  let config = { Packetsim.default_config with Packetsim.queue_bits = 100_000 } in
  let sim, h1, h2 = line_network ~config ~rate:1e8 () in
  let _ = Packetsim.add_flow sim ~src:h1 ~dst:h2 ~bytes:400_000 ~start:0. in
  let _ = Packetsim.add_udp_flow sim ~src:h1 ~dst:h2 ~bytes:200_000 ~start:0.002 () in
  Alcotest.(check int) "periods violating conservation" 0 (step_conserved sim ~until:30.);
  Alcotest.(check int) "nothing in flight" 0 (Packetsim.in_flight sim);
  Alcotest.(check bool) "ACKs absorbed" true (Packetsim.acks_absorbed sim > 0);
  Alcotest.(check bool) "stepping keeps the pinned run" true
    (pkt_fingerprint sim = heap_oracle_fingerprint)

(* Misrouted packets are absorbed as strays, not lost: r1 sends AS1's
   traffic to h3, so h1's ACKs-to-be (from h2) and h2's UDP blast to h1
   both end at a host with no sender or sink for them. *)
let test_packetsim_strays_counted () =
  let sim = Packetsim.create () in
  let h1 = Packetsim.add_host sim ~addr:(Prefix.host_of_as 1 1) in
  let h2 = Packetsim.add_host sim ~addr:(Prefix.host_of_as 2 1) in
  let h3 = Packetsim.add_host sim ~addr:(Prefix.host_of_as 3 1) in
  let r1 = Packetsim.add_router sim ~as_id:1 in
  let local = Engine.Local in
  let attach h = snd (Packetsim.connect sim ~a:h ~b:r1 ~kind_ab:local ~kind_ba:local ~rate:1e9 ()) in
  let _ = attach h1 in
  let r1_h2 = attach h2 in
  let r1_h3 = attach h3 in
  Fib.insert (Packetsim.fib sim r1) (Prefix.of_as 2) ~out_port:r1_h2 ();
  Fib.insert (Packetsim.fib sim r1) (Prefix.of_as 1) ~out_port:r1_h3 ();
  let _ = Packetsim.add_flow sim ~src:h1 ~dst:h2 ~bytes:8_000 ~start:0. in
  let _ = Packetsim.add_udp_flow sim ~src:h2 ~dst:h1 ~bytes:80_000 ~start:0. () in
  Alcotest.(check int) "periods violating conservation" 0 (step_conserved sim ~until:1.);
  let c = Packetsim.counters sim in
  Alcotest.(check bool) "data reached h2" true (c.Packetsim.delivered_packets > 0);
  Alcotest.(check int) "no ACK reached its sender" 0 (Packetsim.acks_absorbed sim);
  Alcotest.(check bool) "the UDP blast and the ACKs are strays" true
    (Packetsim.strays_absorbed sim >= 10 + c.Packetsim.delivered_packets)

(* [connect] rejects what no link can be, the views name a missing port,
   and a link added after the port map was built is seen at once. *)
let test_packetsim_connect_validation () =
  let sim = Packetsim.create () in
  let r1 = Packetsim.add_router sim ~as_id:1 and r2 = Packetsim.add_router sim ~as_id:2 in
  let local = Engine.Local in
  let invalid name msg f =
    Alcotest.(check (option string)) name (Some msg)
      (match f () with exception Invalid_argument m -> Some m | _ -> None)
  in
  invalid "self-link" "Packetsim.connect: a link needs two distinct nodes" (fun () ->
      Packetsim.connect sim ~a:r1 ~b:r1 ~kind_ab:local ~kind_ba:local ~rate:1e9 ());
  invalid "zero rate" "Packetsim.connect: rate must be positive" (fun () ->
      Packetsim.connect sim ~a:r1 ~b:r2 ~kind_ab:local ~kind_ba:local ~rate:0. ());
  Alcotest.(check (pair int int)) "first link" (0, 0)
    (Packetsim.connect sim ~a:r1 ~b:r2 ~kind_ab:local ~kind_ba:local ~rate:1e9 ());
  Alcotest.(check (pair int int)) "far end" (r2, 0) (Packetsim.port_peer sim r1 0);
  invalid "missing port" "Packetsim: no such port" (fun () -> Packetsim.port_peer sim r1 1);
  let ibgp = Engine.Ibgp { peer_router = r1 } in
  Alcotest.(check (pair int int)) "second link" (1, 1)
    (Packetsim.connect sim ~a:r1 ~b:r2 ~kind_ab:local ~kind_ba:ibgp ~rate:2e9 ~delay:1e-3
       ~queue_bits:4_000 ());
  Alcotest.(check (pair int int)) "second link, far end" (r1, 1) (Packetsim.port_peer sim r2 1);
  Alcotest.(check bool) "kind" true (Packetsim.port_kind sim r2 1 = ibgp);
  Alcotest.(check (list (float 0.))) "rate, delay" [ 2e9; 1e-3 ]
    [ Packetsim.port_rate sim r1 1; Packetsim.port_delay sim r2 1 ];
  Alcotest.(check int) "queue limit" 4_000 (Packetsim.port_queue_bits sim r1 1);
  Alcotest.(check int) "first link unchanged" 1_000_000 (Packetsim.port_queue_bits sim r2 0);
  Alcotest.(check int) "iBGP session" 1 (Packetsim.ibgp_route sim r2 r1)

(* The five set-up calls, each tried once: the message each raises, or
   a note that it did not. *)
let frozen_set_up sim =
  let local = Engine.Local in
  let raised fn f =
    match f () with exception Invalid_argument m -> m | () -> fn ^ " did not raise"
  in
  [
    raised "add_router" (fun () -> ignore (Packetsim.add_router sim ~as_id:9));
    raised "add_host" (fun () -> ignore (Packetsim.add_host sim ~addr:(Prefix.host_of_as 9 1)));
    raised "connect" (fun () ->
        ignore (Packetsim.connect sim ~a:0 ~b:1 ~kind_ab:local ~kind_ba:local ~rate:1e9 ()));
    raised "reserve_ports" (fun () -> Packetsim.reserve_ports sim 64);
    raised "set_tracer" (fun () -> Packetsim.set_tracer sim (fun _ _ _ _ -> ()));
  ]

let frozen_messages =
  List.map
    (fun fn -> "Packetsim." ^ fn ^ ": the network is frozen once run has started")
    [ "add_router"; "add_host"; "connect"; "reserve_ports"; "set_tracer" ]

(* Once [run] has started, the wiring is frozen: every set-up call
   raises and changes nothing, and the run goes on to deliver every
   flow.  Here the calls come from a completion hook that fires
   mid-drain.  Two open-loop flows from [h1] into [h2] share r1's port
   toward [h2]; [h1]'s link is 100 times faster, so both flows'
   segments queue on that port and reach [h2] back to back, one drain.
   The short flow's hook fires on its last segment with the long
   flow's segments behind it, and a flow sent over that port after the
   drain still finishes. *)
let test_packetsim_hook_cannot_wire () =
  let sim = Packetsim.create () in
  let r1 = Packetsim.add_router sim ~as_id:1 in
  let local = Engine.Local in
  let attach ?(rate = 1e9) v =
    let h = Packetsim.add_host sim ~addr:(Prefix.host_of_as v 1) in
    let _, port = Packetsim.connect sim ~a:h ~b:r1 ~kind_ab:local ~kind_ba:local ~rate () in
    Fib.insert (Packetsim.fib sim r1) (Prefix.of_as v) ~out_port:port ();
    h
  in
  let h1 = attach ~rate:1e11 1 and h2 = attach 2 in
  let short = Packetsim.add_udp_flow sim ~src:h1 ~dst:h2 ~bytes:20_000 ~start:0. () in
  let long = Packetsim.add_udp_flow sim ~src:h1 ~dst:h2 ~bytes:80_000 ~start:0. () in
  (* sent once that drain is over, onto the port it left behind *)
  let late = Packetsim.add_udp_flow sim ~src:h1 ~dst:h2 ~bytes:8_000 ~start:0.002 () in
  let queued_behind = ref (-1) and in_hook = ref [] in
  Packetsim.set_completion_hook sim (fun flow ->
      if flow = short then begin
        queued_behind := Packetsim.in_flight sim;
        in_hook := frozen_set_up sim
      end);
  Packetsim.run sim;
  Alcotest.(check bool) "packets queued behind the hook's segment" true (!queued_behind > 0);
  Alcotest.(check (list string)) "each call raises in the hook" frozen_messages !in_hook;
  Alcotest.(check (pair int int)) "nodes and r1's ports unchanged" (3, 2)
    (Packetsim.node_count sim, Packetsim.port_count sim r1);
  Alcotest.(check bool) "conservation" true (conserved sim);
  Alcotest.(check int) "nothing left in flight" 0 (Packetsim.in_flight sim);
  Alcotest.(check (list bool)) "every flow finishes" [ true; true; true ]
    (List.map
       (fun f -> (Packetsim.flow_results sim).(f).Packetsim.finish <> None)
       [ short; long; late ])

(* The same freeze between [run ~until] steps: on the serial line
   network, and on the same line split into two shards
   ([set_shards]), where a tracer installed between runs once ran on a
   worker domain and a host and link added between runs made the next
   run index past the shard map.  Each call raises between two runs,
   and the stepped sharded run is bit-identical to the serial one. *)
let test_packetsim_stepped_runs_refuse_wiring () =
  Mifo_util.Parallel.set_default_jobs 2;
  let stepped shards =
    let sim, h1, h2 = line_network ~rate:1e8 () in
    (* node order in line_network: h1 h2 r1 r2 *)
    if shards then Packetsim.set_shards sim [| 0; 1; 0; 1 |];
    let _ = Packetsim.add_flow sim ~src:h1 ~dst:h2 ~bytes:500_000 ~start:0. in
    Alcotest.(check (list string)) "each call raises between runs" frozen_messages
      (Packetsim.run ~until:0.002 sim;
       frozen_set_up sim);
    Alcotest.(check int) "nodes unchanged" 4 (Packetsim.node_count sim);
    Alcotest.(check int) "periods violating conservation" 0 (step_conserved sim ~until:1.);
    Packetsim.run sim;
    Alcotest.(check int) "nothing left in flight" 0 (Packetsim.in_flight sim);
    Alcotest.(check bool) "the flow finishes" true
      ((Packetsim.flow_results sim).(0).Packetsim.finish <> None);
    Alcotest.(check int) "event loops" (if shards then 2 else 1)
      (Packetsim.shard_stats sim).Packetsim.shards;
    pkt_fingerprint sim
  in
  let serial = stepped false in
  Alcotest.(check bool) "stepped sharded run bit-identical to serial" true
    (stepped true = serial)

(* A tracer installed before the first run keeps a [domains = 2]
   network on one event loop, so every tracer call runs on the domain
   that called [run]; without the tracer the same network shards. *)
let test_packetsim_tracer_keeps_serial () =
  Mifo_util.Parallel.set_default_jobs 2;
  let config = { Packetsim.default_config with Packetsim.domains = 2 } in
  let shards ~traced =
    let sim, h1, h2 = line_network ~config ~rate:1e8 () in
    let calls = ref 0 and elsewhere = ref 0 in
    let self = Domain.self () in
    if traced then
      Packetsim.set_tracer sim (fun _ _ _ _ ->
          incr calls;
          if Domain.self () <> self then incr elsewhere);
    let _ = Packetsim.add_flow sim ~src:h1 ~dst:h2 ~bytes:200_000 ~start:0. in
    Packetsim.run sim;
    ((Packetsim.shard_stats sim).Packetsim.shards, !calls > 0, !elsewhere)
  in
  Alcotest.(check (triple int bool int)) "traced: one loop, every call here" (1, true, 0)
    (shards ~traced:true);
  Alcotest.(check int) "untraced: the config shards" 2
    (let n, _, _ = shards ~traced:false in
     n)

let test_packetsim_ttl_on_routing_loop () =
  (* misconfigured FIBs that point at each other: packets must die by TTL,
     not hang the simulator *)
  let sim = Packetsim.create () in
  let h1 = Packetsim.add_host sim ~addr:(Prefix.host_of_as 1 1) in
  let r1 = Packetsim.add_router sim ~as_id:1 in
  let r2 = Packetsim.add_router sim ~as_id:2 in
  let local = Engine.Local in
  ignore (Packetsim.connect sim ~a:h1 ~b:r1 ~kind_ab:local ~kind_ba:local ~rate:1e9 ());
  let r1r2, r2r1 =
    Packetsim.connect sim ~a:r1 ~b:r2
      ~kind_ab:(Engine.Ebgp { neighbor_as = 2; rel = Relationship.Peer })
      ~kind_ba:(Engine.Ebgp { neighbor_as = 1; rel = Relationship.Peer })
      ~rate:1e9 ()
  in
  (* both routers send AS1-destined traffic at each other: a routing loop *)
  Fib.insert (Packetsim.fib sim r1) (Prefix.of_as 1) ~out_port:r1r2 ();
  Fib.insert (Packetsim.fib sim r2) (Prefix.of_as 1) ~out_port:r2r1 ();
  let _ = Packetsim.add_flow sim ~src:h1 ~dst:h1 ~bytes:1000 ~start:0. in
  Packetsim.run ~until:1.0 sim;
  let c = Packetsim.counters sim in
  Alcotest.(check bool) "loop killed by ttl" true (c.Packetsim.dropped_ttl > 0)

let test_packetsim_tunnel_transit () =
  (* Regression (tunnel-transit bug).  AS 1 has three border routers
     r1 -- r2 -- r3 in a line (non-full-mesh iBGP, so r1's tunnel to r3
     transits r2) plus an eBGP neighbor rx.  r1's default egress for the
     destination is congested-by-decree (deflect_buckets pinned at max),
     so every packet is tunneled to r3 and crosses r2 IN TRANSIT.  r2
     itself also deflects the destination prefix toward its eBGP
     alternative.  Pre-fix, r2 looked the tunneled packet up by its
     INNER destination, hash-deflected it out the eBGP port still
     encapsulated, and the transfer stalled at a no-route neighbor;
     post-fix it is routed on the outer header to r3, decapsulated there
     and delivered. *)
  let sim = Packetsim.create () in
  let h1 = Packetsim.add_host sim ~addr:(Prefix.host_of_as 1 1) in
  let h2 = Packetsim.add_host sim ~addr:(Prefix.host_of_as 2 1) in
  let r1 = Packetsim.add_router sim ~as_id:1 in
  let r2 = Packetsim.add_router sim ~as_id:1 in
  let r3 = Packetsim.add_router sim ~as_id:1 in
  let rx = Packetsim.add_router sim ~as_id:3 in
  let local = Engine.Local in
  let rate = 1e9 in
  let _, r1h = Packetsim.connect sim ~a:h1 ~b:r1 ~kind_ab:local ~kind_ba:local ~rate () in
  let _, r3h = Packetsim.connect sim ~a:h2 ~b:r3 ~kind_ab:local ~kind_ba:local ~rate () in
  (* r1 reaches iBGP peer r3 through r2: the port toward r2 is how r1
     sees the path to r3, and r2 in turn owns a direct port to r3 *)
  let r1_r2, r2_r1 =
    Packetsim.connect sim ~a:r1 ~b:r2
      ~kind_ab:(Engine.Ibgp { peer_router = r3 })
      ~kind_ba:(Engine.Ibgp { peer_router = r1 })
      ~rate ()
  in
  let r2_r3, r3_r2 =
    Packetsim.connect sim ~a:r2 ~b:r3
      ~kind_ab:(Engine.Ibgp { peer_router = r3 })
      ~kind_ba:(Engine.Ibgp { peer_router = r2 })
      ~rate ()
  in
  (* eBGP customer rx: r1's default egress and r2's tempting alternative.
     A CUSTOMER, so the tag-check alone would not stop the leak. *)
  let r1_rx, _ =
    Packetsim.connect sim ~a:r1 ~b:rx
      ~kind_ab:(Engine.Ebgp { neighbor_as = 3; rel = Relationship.Customer })
      ~kind_ba:(Engine.Ebgp { neighbor_as = 1; rel = Relationship.Provider })
      ~rate ()
  in
  let r2_rx, _ =
    Packetsim.connect sim ~a:r2 ~b:rx
      ~kind_ab:(Engine.Ebgp { neighbor_as = 3; rel = Relationship.Customer })
      ~kind_ba:(Engine.Ebgp { neighbor_as = 1; rel = Relationship.Provider })
      ~rate ()
  in
  let pin fib prefix ~out_port ~alt_port =
    Fib.insert fib prefix ~out_port ~alt_port ();
    Fib.set_deflect_buckets fib (Fib.find fib prefix) Fib.buckets
  in
  let dst = Prefix.of_as 2 and back = Prefix.of_as 1 in
  (* r1: default egress rx (a dead end), alternative = tunnel to r3 *)
  pin (Packetsim.fib sim r1) dst ~out_port:r1_rx ~alt_port:r1_r2;
  Fib.insert (Packetsim.fib sim r1) back ~out_port:r1h ();
  (* r2: also deflecting the destination prefix toward its eBGP port *)
  pin (Packetsim.fib sim r2) dst ~out_port:r2_r3 ~alt_port:r2_rx;
  Fib.insert (Packetsim.fib sim r2) back ~out_port:r2_r1 ();
  Fib.insert (Packetsim.fib sim r3) dst ~out_port:r3h ();
  Fib.insert (Packetsim.fib sim r3) back ~out_port:r3_r2 ();
  (* rx: no route anywhere - a leaked tunnel dies here *)
  let transit0 = Mifo_util.Obs.counter_value "engine.transit.routed" in
  let transits = ref 0 and leaked = ref 0 in
  Packetsim.set_tracer sim (fun _ node p action ->
      match action with
      | Engine.Send { port; packet = p'; _ } ->
        if node = r2 && p.Mifo_core.Packet.encap <> None then begin
          incr transits;
          if port <> r2_r3 || p'.Mifo_core.Packet.encap = None then incr leaked
        end
      | Engine.Drop _ -> ());
  let _ = Packetsim.add_flow sim ~src:h1 ~dst:h2 ~bytes:100_000 ~start:0. in
  Packetsim.run ~until:1.0 sim;
  Alcotest.(check bool) "tunneled packets crossed r2" true (!transits > 0);
  Alcotest.(check int) "none deflected off the tunnel path" 0 !leaked;
  (match (Packetsim.flow_results sim).(0).Packetsim.finish with
   | Some _ -> ()
   | None -> Alcotest.fail "transfer stalled: tunnel leaked out of the AS");
  let c = Packetsim.counters sim in
  Alcotest.(check int) "all segments delivered" 100 c.Packetsim.delivered_packets;
  Alcotest.(check int) "nothing lost to no-route" 0 c.Packetsim.dropped_no_route;
  Alcotest.(check bool) "transit hops counted" true
    (Mifo_util.Obs.counter_value "engine.transit.routed" > transit0)

let test_packetsim_ranked_chooser () =
  (* A ranked chooser drives Daemon.epoch_ranked from the daemon tick:
     r1's slow default link to AS 2 congests, the chooser offers its two
     fast parallel links as a ranked pair, and the daemon installs both
     slots and ramps the deflection level against the set. *)
  let sim = Packetsim.create () in
  let h1 = Packetsim.add_host sim ~addr:(Prefix.host_of_as 1 1) in
  let h2 = Packetsim.add_host sim ~addr:(Prefix.host_of_as 2 1) in
  let r1 = Packetsim.add_router sim ~as_id:1 in
  let r2 = Packetsim.add_router sim ~as_id:2 in
  let local = Engine.Local in
  let down = Engine.Ebgp { neighbor_as = 2; rel = Relationship.Customer } in
  let up = Engine.Ebgp { neighbor_as = 1; rel = Relationship.Provider } in
  let _, r1h = Packetsim.connect sim ~a:h1 ~b:r1 ~kind_ab:local ~kind_ba:local ~rate:1e9 () in
  let _, r2h = Packetsim.connect sim ~a:h2 ~b:r2 ~kind_ab:local ~kind_ba:local ~rate:1e9 () in
  let slow, slow_back =
    Packetsim.connect sim ~a:r1 ~b:r2 ~kind_ab:down ~kind_ba:up ~rate:10e6 ()
  in
  let alt_a, _ = Packetsim.connect sim ~a:r1 ~b:r2 ~kind_ab:down ~kind_ba:up ~rate:1e9 () in
  let alt_b, _ = Packetsim.connect sim ~a:r1 ~b:r2 ~kind_ab:down ~kind_ba:up ~rate:1e9 () in
  Fib.insert (Packetsim.fib sim r1) (Prefix.of_as 2) ~out_port:slow ();
  Fib.insert (Packetsim.fib sim r1) (Prefix.of_as 1) ~out_port:r1h ();
  Fib.insert (Packetsim.fib sim r2) (Prefix.of_as 2) ~out_port:r2h ();
  Fib.insert (Packetsim.fib sim r2) (Prefix.of_as 1) ~out_port:slow_back ();
  Packetsim.set_ranked_chooser sim r1 (fun _ _ buf ->
      buf.(0) <- alt_a;
      buf.(1) <- alt_b;
      2);
  let _ = Packetsim.add_flow sim ~src:h1 ~dst:h2 ~bytes:2_000_000 ~start:0. in
  let _ = Packetsim.add_flow sim ~src:h1 ~dst:h2 ~bytes:2_000_000 ~start:0. in
  Packetsim.run ~until:10. sim;
  let fib = Packetsim.fib sim r1 in
  let entry = Fib.find fib (Prefix.of_as 2) in
  Alcotest.(check (list int)) "ranked pair installed" [ alt_a; alt_b; -1; -1 ]
    (List.init Fib.max_alts (Fib.alt_at fib entry));
  Alcotest.(check bool) "daemon ramped against the set" true
    (Fib.deflect_buckets fib entry > 0);
  let c = Packetsim.counters sim in
  Alcotest.(check bool) "packets deflected" true (c.Packetsim.deflected > 0);
  Array.iter
    (fun (r : Packetsim.flow_result) ->
      match r.Packetsim.finish with
      | Some _ -> ()
      | None -> Alcotest.fail "transfer did not complete")
    (Packetsim.flow_results sim)

(* ---------- Sharded packetsim ---------- *)

(* The deterministic two-shard split of the line network: hosts ride
   with their routers, the single eBGP link is the cut. *)
let test_packetsim_sharded_line () =
  Mifo_util.Parallel.set_default_jobs 2;
  let serial =
    let sim, h1, h2 = line_network ~rate:1e8 () in
    let _ = Packetsim.add_flow sim ~src:h1 ~dst:h2 ~bytes:500_000 ~start:0. in
    Packetsim.run sim;
    pkt_fingerprint sim
  in
  let sim, h1, h2 = line_network ~rate:1e8 () in
  (* node order in line_network: h1 h2 r1 r2 *)
  Packetsim.set_shards sim [| 0; 1; 0; 1 |];
  let _ = Packetsim.add_flow sim ~src:h1 ~dst:h2 ~bytes:500_000 ~start:0. in
  Packetsim.run sim;
  Alcotest.(check bool) "sharded bit-identical to serial" true
    (pkt_fingerprint sim = serial);
  let st = Packetsim.shard_stats sim in
  Alcotest.(check int) "two shards" 2 st.Packetsim.shards;
  Alcotest.(check int) "one cut link" 1 st.Packetsim.cut_links;
  check_float "lookahead = link delay" 50e-6 st.Packetsim.lookahead;
  Alcotest.(check bool) "windows ran" true (st.Packetsim.windows > 1);
  Alcotest.(check bool) "barrier ticks ran" true (st.Packetsim.barrier_ticks > 0)

let test_packetsim_shard_validation () =
  let sim, _, _ = line_network () in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Packetsim.set_shards: need exactly one shard id per node")
    (fun () -> Packetsim.set_shards sim [| 0; 1 |]);
  Alcotest.check_raises "zero-latency cut"
    (Invalid_argument
       "Packetsim.set_shards: zero-latency cross-shard link leaves no lookahead")
    (fun () ->
      let sim = Packetsim.create () in
      let r1 = Packetsim.add_router sim ~as_id:1 in
      let r2 = Packetsim.add_router sim ~as_id:2 in
      ignore
        (Packetsim.connect sim ~a:r1 ~b:r2
           ~kind_ab:(Engine.Ebgp { neighbor_as = 2; rel = Relationship.Peer })
           ~kind_ba:(Engine.Ebgp { neighbor_as = 1; rel = Relationship.Peer })
           ~rate:1e9 ~delay:0. ());
      Packetsim.set_shards sim [| 0; 1 |]);
  let sim2, h1, h2 = line_network () in
  Packetsim.set_shards sim2 [| 0; 1; 0; 1 |];
  let _ = Packetsim.add_flow sim2 ~src:h1 ~dst:h2 ~bytes:8_000 ~start:0. in
  Packetsim.run sim2;
  Alcotest.check_raises "reassignment after run"
    (Invalid_argument "Packetsim.set_shards: must be called before the first run")
    (fun () -> Packetsim.set_shards sim2 [| 0; 1; 0; 1 |])

(* Mailbox drain order on a crafted exact-float tie.  Two source shards
   each deliver one UDP segment to the same destination router at the
   same instant (symmetric links, symmetric sources).  The shard seqs
   are symmetric too, so the drain rule's last key — source shard id —
   decides which packet is scheduled first and wins the one-packet
   bottleneck queue toward the sink; the other is tail-dropped.  Serial
   agrees: flow A was added first, so its segment transmits first. *)
let test_packetsim_mailbox_tie_order () =
  let run ~sharded =
    let sim = Packetsim.create () in
    let ha = Packetsim.add_host sim ~addr:(Prefix.host_of_as 1 1) in
    let hb = Packetsim.add_host sim ~addr:(Prefix.host_of_as 2 1) in
    let hc = Packetsim.add_host sim ~addr:(Prefix.host_of_as 3 1) in
    let ra = Packetsim.add_router sim ~as_id:1 in
    let rb = Packetsim.add_router sim ~as_id:2 in
    let rc = Packetsim.add_router sim ~as_id:3 in
    let local = Engine.Local in
    let down as' = Engine.Ebgp { neighbor_as = as'; rel = Relationship.Customer } in
    let up as' = Engine.Ebgp { neighbor_as = as'; rel = Relationship.Provider } in
    let rate = 1e8 in
    ignore (Packetsim.connect sim ~a:ha ~b:ra ~kind_ab:local ~kind_ba:local ~rate ());
    ignore (Packetsim.connect sim ~a:hb ~b:rb ~kind_ab:local ~kind_ba:local ~rate ());
    let _, rc_h =
      (* sink link: room for one 8000-bit segment in flight, not two *)
      Packetsim.connect sim ~a:hc ~b:rc ~kind_ab:local ~kind_ba:local ~rate
        ~queue_bits:9_000 ()
    in
    let ra_rc, rc_ra =
      Packetsim.connect sim ~a:ra ~b:rc ~kind_ab:(down 3) ~kind_ba:(up 1) ~rate
        ~delay:100e-6 ()
    in
    let rb_rc, rc_rb =
      Packetsim.connect sim ~a:rb ~b:rc ~kind_ab:(down 3) ~kind_ba:(up 2) ~rate
        ~delay:100e-6 ()
    in
    Fib.insert (Packetsim.fib sim ra) (Prefix.of_as 3) ~out_port:ra_rc ();
    Fib.insert (Packetsim.fib sim rb) (Prefix.of_as 3) ~out_port:rb_rc ();
    Fib.insert (Packetsim.fib sim rc) (Prefix.of_as 3) ~out_port:rc_h ();
    Fib.insert (Packetsim.fib sim rc) (Prefix.of_as 1) ~out_port:rc_ra ();
    Fib.insert (Packetsim.fib sim rc) (Prefix.of_as 2) ~out_port:rc_rb ();
    if sharded then Packetsim.set_shards sim [| 1; 2; 0; 1; 2; 0 |];
    let fa = Packetsim.add_udp_flow sim ~src:ha ~dst:hc ~bytes:1_000 ~start:0. () in
    let fb = Packetsim.add_udp_flow sim ~src:hb ~dst:hc ~bytes:1_000 ~start:0. () in
    Packetsim.run sim;
    let finished f = Option.is_some (Packetsim.flow_results sim).(f).Packetsim.finish in
    let c = Packetsim.counters sim in
    ( finished fa,
      finished fb,
      c.Packetsim.delivered_packets,
      c.Packetsim.dropped_queue )
  in
  let serial = run ~sharded:false in
  let sharded = run ~sharded:true in
  Alcotest.(check bool) "sharded tie resolves like serial" true (serial = sharded);
  let a_won, b_won, delivered, dropped = sharded in
  Alcotest.(check bool) "lower source shard wins the tie" true a_won;
  Alcotest.(check bool) "higher source shard loses the queue race" false b_won;
  Alcotest.(check int) "one segment through" 1 delivered;
  Alcotest.(check int) "one segment tail-dropped" 1 dropped

(* Random dumbbells for the 2x2x2 identity gate: n_l + n_r stub ASes
   (one router + one host each) joined through two core routers over a
   narrow bottleneck.  Per-stub delay jitter keeps cross-shard arrivals
   off exact float ties; the tiny core rate forces queue drops. *)
let dumbbell_network ?config ~n_l ~n_r () =
  let sim = Packetsim.create ?config () in
  let local = Engine.Local in
  let down as' = Engine.Ebgp { neighbor_as = as'; rel = Relationship.Customer } in
  let up as' = Engine.Ebgp { neighbor_as = as'; rel = Relationship.Provider } in
  let lcore = Packetsim.add_router sim ~as_id:100 in
  let rcore = Packetsim.add_router sim ~as_id:200 in
  let mk_stub ~core ~core_as i as_id =
    let r = Packetsim.add_router sim ~as_id in
    let h = Packetsim.add_host sim ~addr:(Prefix.host_of_as as_id 1) in
    let _, r_h =
      Packetsim.connect sim ~a:h ~b:r ~kind_ab:local ~kind_ba:local ~rate:1e8 ()
    in
    let delay = 50e-6 *. (1. +. (float_of_int ((7 * i) + 1) /. 13.)) in
    let r_core, core_r =
      Packetsim.connect sim ~a:r ~b:core ~kind_ab:(down core_as)
        ~kind_ba:(up as_id) ~rate:1e8 ~delay ()
    in
    (r, h, r_h, r_core, core_r)
  in
  let left = Array.init n_l (fun i -> mk_stub ~core:lcore ~core_as:100 i (1 + i)) in
  let right =
    Array.init n_r (fun i -> mk_stub ~core:rcore ~core_as:200 (n_l + i) (51 + i))
  in
  let lc_rc, rc_lc =
    Packetsim.connect sim ~a:lcore ~b:rcore ~kind_ab:(down 200) ~kind_ba:(up 100)
      ~rate:20e6 ~delay:200e-6 ()
  in
  (* stub i's own prefix: down its host port from both its router and
     its core; every far-side prefix: toward the core / the bottleneck *)
  Array.iteri
    (fun i (r, _, r_h, r_core, core_r) ->
      Fib.insert (Packetsim.fib sim r) (Prefix.of_as (1 + i)) ~out_port:r_h ();
      Fib.insert (Packetsim.fib sim lcore) (Prefix.of_as (1 + i)) ~out_port:core_r ();
      for j = 0 to n_r - 1 do
        Fib.insert (Packetsim.fib sim r) (Prefix.of_as (51 + j)) ~out_port:r_core ()
      done)
    left;
  Array.iteri
    (fun j (r, _, r_h, r_core, core_r) ->
      Fib.insert (Packetsim.fib sim r) (Prefix.of_as (51 + j)) ~out_port:r_h ();
      Fib.insert (Packetsim.fib sim rcore) (Prefix.of_as (51 + j)) ~out_port:core_r ();
      for i = 0 to n_l - 1 do
        Fib.insert (Packetsim.fib sim r) (Prefix.of_as (1 + i)) ~out_port:r_core ()
      done)
    right;
  for j = 0 to n_r - 1 do
    Fib.insert (Packetsim.fib sim lcore) (Prefix.of_as (51 + j)) ~out_port:lc_rc ()
  done;
  for i = 0 to n_l - 1 do
    Fib.insert (Packetsim.fib sim rcore) (Prefix.of_as (1 + i)) ~out_port:rc_lc ()
  done;
  let hosts arr = Array.map (fun (_, h, _, _, _) -> h) arr in
  (sim, hosts left, hosts right)

(* A two-shard dumbbell with queue drops and a UDP blast, stepped one
   daemon period at a time: boundary packets in mailboxes count as in
   flight, and conservation holds at every barrier and at the end. *)
let test_packetsim_sharded_conservation () =
  Mifo_util.Parallel.set_default_jobs 2;
  let config =
    { Packetsim.default_config with Packetsim.domains = 2; queue_bits = 100_000 }
  in
  let sim, lh, rh = dumbbell_network ~config ~n_l:2 ~n_r:2 () in
  ignore (Packetsim.add_flow sim ~src:lh.(0) ~dst:rh.(0) ~bytes:300_000 ~start:0.);
  ignore (Packetsim.add_flow sim ~src:rh.(1) ~dst:lh.(1) ~bytes:200_000 ~start:0.001);
  ignore (Packetsim.add_udp_flow sim ~src:lh.(1) ~dst:rh.(1) ~bytes:300_000 ~start:0.002 ());
  Alcotest.(check int) "periods violating conservation" 0 (step_conserved sim ~until:5.);
  let st = Packetsim.shard_stats sim in
  Alcotest.(check int) "two shards" 2 st.Packetsim.shards;
  Alcotest.(check bool) "a cut link" true (st.Packetsim.cut_links > 0);
  Alcotest.(check bool) "queue drops" true
    ((Packetsim.counters sim).Packetsim.dropped_queue > 0);
  Alcotest.(check int) "nothing in flight" 0 (Packetsim.in_flight sim)

let shard_obs_keys =
  [
    "packetsim.delivered";
    "packetsim.dropped.queue";
    "packetsim.dropped.ttl";
    "engine.encap";
    "engine.deflect.ebgp";
    "daemon.alt_changed";
    "daemon.buckets_reset";
  ]

(* One run of a generated workload on [domains] event loops; returns
   the full observable fingerprint including Obs counter deltas. *)
let run_dumbbell ~domains (n_l, n_r, flow_specs) =
  let config = { Packetsim.default_config with Packetsim.domains; queue_bits = 100_000 } in
  let sim, lh, rh = dumbbell_network ~config ~n_l ~n_r () in
  List.iteri
    (fun k (ltr, si, di, kb, start_ms, udp) ->
      let src, dst =
        if ltr then (lh.(si mod n_l), rh.(di mod n_r))
        else (rh.(si mod n_r), lh.(di mod n_l))
      in
      let bytes = 8_000 + (kb * 1_000) in
      let start = float_of_int ((start_ms * 2) + k) /. 1000. in
      if udp then ignore (Packetsim.add_udp_flow sim ~src ~dst ~bytes ~start ())
      else ignore (Packetsim.add_flow sim ~src ~dst ~bytes ~start))
    flow_specs;
  let obs0 = List.map Mifo_util.Obs.counter_value shard_obs_keys in
  Packetsim.run ~until:30. sim;
  let obs_delta =
    List.map2
      (fun k v0 -> Mifo_util.Obs.counter_value k - v0)
      shard_obs_keys obs0
  in
  let series =
    Array.map (fun (_, v) -> Int64.bits_of_float v) (Packetsim.throughput_series sim)
  in
  (pkt_fingerprint sim, obs_delta, series, Packetsim.path_switches sim)

(* Sharded runs on two and three event loops, bit-identical (counters,
   finish times, event counts, goodput series, Obs counters) to the
   serial run on random dumbbells with drops and UDP blasts. *)
let prop_packetsim_sharded_identical =
  QCheck2.Test.make ~name:"packetsim: sharded bit-identical to serial"
    ~count:6
    QCheck2.Gen.(
      triple (int_range 2 3) (int_range 2 3)
        (list_size (int_range 2 6)
           (tup6 bool (int_bound 3) (int_bound 3) (int_range 12 120)
              (int_bound 10) bool)))
    (fun workload ->
      Mifo_util.Parallel.set_default_jobs 2;
      let oracle = run_dumbbell ~domains:1 workload in
      List.for_all (fun domains -> run_dumbbell ~domains workload = oracle) [ 2; 3 ])

let () =
  Alcotest.run "mifo_netsim"
    [
      ( "eventq",
        [
          Alcotest.test_case "time order" `Quick test_eventq_order;
          Alcotest.test_case "stable on ties" `Quick test_eventq_stable;
          Alcotest.test_case "rejects bad times" `Quick test_eventq_rejects_bad_time;
          Alcotest.test_case "clear resets the sequence counter" `Quick
            test_eventq_clear_resets_seq;
          Alcotest.test_case "clear reuses storage" `Quick test_eventq_clear_reuses_storage;
          Alcotest.test_case "pop_before drives the time cell" `Quick
            test_eventq_pop_before_time_cell;
          QCheck_alcotest.to_alcotest prop_eventq_fifo_ties;
          Alcotest.test_case "precedes" `Quick test_eventq_precedes;
          QCheck_alcotest.to_alcotest prop_eventq_engines_agree;
          Alcotest.test_case "allocation gate: hot path allocates nothing" `Quick
            test_eventq_allocation_gate;
        ] );
      ( "maxmin",
        [
          Alcotest.test_case "two flows one link" `Quick test_maxmin_two_flows_one_link;
          Alcotest.test_case "classic three flows" `Quick test_maxmin_classic;
          Alcotest.test_case "empty path" `Quick test_maxmin_empty_path;
          Alcotest.test_case "all flows empty" `Quick test_maxmin_all_empty_flows;
          Alcotest.test_case "duplicate links" `Quick test_maxmin_duplicate_links_counted_once;
          Alcotest.test_case "input validation" `Quick test_maxmin_rejects_bad_input;
          QCheck_alcotest.to_alcotest prop_maxmin_feasible;
          QCheck_alcotest.to_alcotest prop_maxmin_bottleneck;
        ] );
      ( "maxmin_solver",
        [
          Alcotest.test_case "input validation and slot lifecycle" `Quick
            test_solver_validation;
          QCheck_alcotest.to_alcotest prop_solver_matches_reference;
          QCheck_alcotest.to_alcotest prop_solver_slot_reuse;
          QCheck_alcotest.to_alcotest prop_solver_idempotent;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "window pump" `Quick test_tcp_window_pump;
          Alcotest.test_case "slow start" `Quick test_tcp_slow_start_growth;
          Alcotest.test_case "fast retransmit" `Quick test_tcp_fast_retransmit;
          Alcotest.test_case "timeout go-back-n" `Quick test_tcp_timeout_gobackn;
          Alcotest.test_case "completion" `Quick test_tcp_done;
          Alcotest.test_case "rtt estimator" `Quick test_tcp_rtt_estimator;
          Alcotest.test_case "receiver reordering" `Quick test_tcp_receiver_reorder;
          QCheck_alcotest.to_alcotest prop_tcp_sender_invariants;
        ] );
      ( "flowsim",
        [
          Alcotest.test_case "single flow at line rate" `Quick test_flowsim_single_flow;
          Alcotest.test_case "flows share fairly" `Quick test_flowsim_sharing;
          Alcotest.test_case "deterministic" `Quick test_flowsim_deterministic;
          Alcotest.test_case "bgp never offloads" `Quick test_flowsim_bgp_never_offloads;
          Alcotest.test_case "mifo final paths valley-free" `Quick
            test_flowsim_mifo_paths_valley_free;
          Alcotest.test_case "spec validation" `Quick test_flowsim_rejects_bad_specs;
          Alcotest.test_case "link failure: BGP stalls, MIFO survives" `Quick
            test_flowsim_link_failure;
          Alcotest.test_case "failure validation" `Quick test_flowsim_failure_validation;
          Alcotest.test_case "engines bit-identical, skipping real" `Quick
            test_flowsim_engines_bit_identical;
          Alcotest.test_case "series locked to the sampling grid" `Quick
            test_flowsim_series_grid;
        ] );
      ( "packetsim",
        [
          Alcotest.test_case "tcp transfer completes" `Quick test_packetsim_transfer_completes;
          Alcotest.test_case "goodput series conserves bytes" `Quick test_packetsim_goodput_series;
          Alcotest.test_case "two flows share a link" `Quick test_packetsim_two_flows_share;
          Alcotest.test_case "routing loop dies by ttl" `Quick test_packetsim_ttl_on_routing_loop;
          Alcotest.test_case "eventq engines bit-identical end to end" `Quick
            test_packetsim_engines_bit_identical;
          Alcotest.test_case "tunnel transits an intermediate router" `Quick
            test_packetsim_tunnel_transit;
          Alcotest.test_case "ranked chooser drives epoch_ranked" `Quick
            test_packetsim_ranked_chooser;
          Alcotest.test_case "conservation every period, lossy line" `Quick
            test_packetsim_conservation_lossy_line;
          Alcotest.test_case "misrouted packets absorbed as strays" `Quick
            test_packetsim_strays_counted;
          Alcotest.test_case "connect validation and the port views" `Quick
            test_packetsim_connect_validation;
          Alcotest.test_case "a hook cannot wire mid-drain" `Quick test_packetsim_hook_cannot_wire;
          Alcotest.test_case "stepped runs refuse wiring" `Quick
            test_packetsim_stepped_runs_refuse_wiring;
          Alcotest.test_case "a tracer keeps a sharded config serial" `Quick
            test_packetsim_tracer_keeps_serial;
        ] );
      ( "packetsim_sharded",
        [
          Alcotest.test_case "two-shard line bit-identical" `Quick
            test_packetsim_sharded_line;
          Alcotest.test_case "shard assignment validation" `Quick
            test_packetsim_shard_validation;
          Alcotest.test_case "mailbox drain order on an exact tie" `Quick
            test_packetsim_mailbox_tie_order;
          Alcotest.test_case "two-shard dumbbell conserves packets" `Quick
            test_packetsim_sharded_conservation;
          QCheck_alcotest.to_alcotest prop_packetsim_sharded_identical;
        ] );
    ]
