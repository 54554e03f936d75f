let dedup_sorted a =
  let n = Array.length a in
  if n <= 1 then a
  else begin
    let out = Array.make n a.(0) in
    let k = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(i - 1) then begin
        out.(!k) <- a.(i);
        incr k
      end
    done;
    Array.sub out 0 !k
  end

let dedup_links links =
  let sorted = Array.copy links in
  Array.sort Int.compare sorted;
  dedup_sorted sorted

(* ------------------------------------------------------------------ *)
(* Persistent incremental solver.

   Progressive filling over state that persists across calls (the test
   tree's reference allocator evaluates the same float expressions in
   an order that yields bit-identical rates): flows register their pre-deduplicated link
   arrays once, every per-link/per-flow scratch array is preallocated
   and reused, link membership is a CSR pair of int arrays rebuilt
   in-place each solve, and the lazy min-heap is a flat (float array,
   int array) pair instead of boxed tuples under a closure comparator.
   A solve allocates nothing once the arenas have reached their
   high-water marks.

   A solve touches only the links its flows cross, apart from one
   ascending scan of [unfrozen]: [unfrozen] is all zero between solves
   (every flow with links freezes, and freezing takes it off each of
   its links), and [frozen_alloc] / [alloc] are nonzero only on the
   links the previous solve loaded, which [touched] lists. *)

module Solver = struct
  type t = {
    nlinks : int;
    capacities : float array;
    (* per-flow-slot state; arrays grow geometrically with [register] *)
    mutable links : int array array;  (* registered duplicate-free link ids *)
    mutable slot_used : bool array;
    mutable rates : float array;
    mutable frozen : bool array;
    mutable free : int array;  (* freelist stack of released slots *)
    mutable free_top : int;
    mutable high : int;  (* slots ever handed out *)
    (* per-link scratch, all length [nlinks] *)
    unfrozen : int array;  (* all zero between solves *)
    frozen_alloc : float array;
    alloc : float array;
    member_start : int array;  (* CSR start of a loaded link's flows *)
    cursor : int array;  (* ... and, once filled, its end *)
    mutable member_flow : int array;  (* CSR payload, grown on demand *)
    touched : int array;  (* the links the last solve loaded, ascending *)
    mutable ntouched : int;
    (* flat lazy min-heap of (level, link); capacity [nlinks] is enough:
       each pop re-pushes at most one stale entry *)
    heap_key : float array;
    heap_link : int array;
    mutable heap_size : int;
    mutable solves : int;
  }

  let no_links : int array array = [||]

  let create ?(capacity = 0.) ~nlinks () =
    if nlinks < 0 then invalid_arg "Maxmin.Solver.create: negative nlinks";
    if capacity < 0. || Float.is_nan capacity then
      invalid_arg "Maxmin.Solver.create: bad capacity";
    {
      nlinks;
      capacities = Array.make nlinks capacity;
      links = no_links;
      slot_used = [||];
      rates = [||];
      frozen = [||];
      free = [||];
      free_top = 0;
      high = 0;
      unfrozen = Array.make nlinks 0;
      frozen_alloc = Array.make nlinks 0.;
      alloc = Array.make nlinks 0.;
      member_start = Array.make nlinks 0;
      cursor = Array.make nlinks 0;
      member_flow = [||];
      touched = Array.make nlinks 0;
      ntouched = 0;
      heap_key = Array.make nlinks 0.;
      heap_link = Array.make nlinks 0;
      heap_size = 0;
      solves = 0;
    }

  let nlinks t = t.nlinks
  let capacity t l = t.capacities.(l)

  let set_capacity t l c =
    if c < 0. || Float.is_nan c then invalid_arg "Maxmin.Solver: bad capacity";
    t.capacities.(l) <- c

  let validate_links t links =
    let n = Array.length links in
    for i = 0 to n - 1 do
      let l = links.(i) in
      if l < 0 || l >= t.nlinks then invalid_arg "Maxmin.Solver: link id out of range";
      if i > 0 && l <= links.(i - 1) then
        invalid_arg "Maxmin.Solver: links must be sorted and duplicate-free"
    done

  let grow_slots t =
    let cap = Array.length t.slot_used in
    let ncap = Stdlib.max 16 (2 * cap) in
    let g mk a =
      let na = mk ncap in
      Array.blit a 0 na 0 cap;
      na
    in
    t.links <- g (fun n -> Array.make n [||]) t.links;
    t.slot_used <- g (fun n -> Array.make n false) t.slot_used;
    t.rates <- g (fun n -> Array.make n Float.infinity) t.rates;
    t.frozen <- g (fun n -> Array.make n false) t.frozen;
    t.free <- g (fun n -> Array.make n 0) t.free

  let register t links =
    validate_links t links;
    let slot =
      if t.free_top > 0 then begin
        t.free_top <- t.free_top - 1;
        t.free.(t.free_top)
      end
      else begin
        if t.high = Array.length t.slot_used then grow_slots t;
        let s = t.high in
        t.high <- t.high + 1;
        s
      end
    in
    t.links.(slot) <- links;
    t.slot_used.(slot) <- true;
    t.rates.(slot) <- Float.infinity;
    slot

  let check_slot t slot =
    if slot < 0 || slot >= t.high || not t.slot_used.(slot) then
      invalid_arg "Maxmin.Solver: unknown flow slot"

  let set_links t slot links =
    check_slot t slot;
    validate_links t links;
    t.links.(slot) <- links

  let unregister t slot =
    check_slot t slot;
    t.slot_used.(slot) <- false;
    t.links.(slot) <- [||];
    t.free.(t.free_top) <- slot;
    t.free_top <- t.free_top + 1

  (* Flat heap: exactly [Mifo_util.Heap]'s sift rules specialized to a
     float key, so the pop sequence — and therefore every rounding —
     matches the test tree's heap-based reference allocator bit for
     bit.  [heap_push] and [level] are inlined, so no key is boxed on
     its way into the arrays and the top is read straight out of them. *)

  let[@inline] heap_push t key link =
    let i = ref t.heap_size in
    t.heap_size <- t.heap_size + 1;
    t.heap_key.(!i) <- key;
    t.heap_link.(!i) <- link;
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      if t.heap_key.(!i) < t.heap_key.(parent) then begin
        let k = t.heap_key.(!i) and l = t.heap_link.(!i) in
        t.heap_key.(!i) <- t.heap_key.(parent);
        t.heap_link.(!i) <- t.heap_link.(parent);
        t.heap_key.(parent) <- k;
        t.heap_link.(parent) <- l;
        i := parent
      end
      else continue := false
    done

  let rec heap_sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.heap_size && t.heap_key.(l) < t.heap_key.(!smallest) then smallest := l;
    if r < t.heap_size && t.heap_key.(r) < t.heap_key.(!smallest) then smallest := r;
    if !smallest <> i then begin
      let k = t.heap_key.(i) and lk = t.heap_link.(i) in
      t.heap_key.(i) <- t.heap_key.(!smallest);
      t.heap_link.(i) <- t.heap_link.(!smallest);
      t.heap_key.(!smallest) <- k;
      t.heap_link.(!smallest) <- lk;
      heap_sift_down t !smallest
    end

  (* precondition: heap non-empty; the caller reads the top from
     [heap_key.(0)] / [heap_link.(0)] first *)
  let heap_drop_top t =
    t.heap_size <- t.heap_size - 1;
    if t.heap_size > 0 then begin
      t.heap_key.(0) <- t.heap_key.(t.heap_size);
      t.heap_link.(0) <- t.heap_link.(t.heap_size);
      heap_sift_down t 0
    end

  let[@inline] level t l =
    (t.capacities.(l) -. t.frozen_alloc.(l)) /. float_of_int t.unfrozen.(l)

  let solve t active n =
    if n < 0 || n > Array.length active then invalid_arg "Maxmin.Solver.solve";
    (* every slot is checked before any state changes, so a rejected
       call leaves [unfrozen] all zero *)
    for i = 0 to n - 1 do
      check_slot t active.(i)
    done;
    (* the previous solve's sums, on the links it loaded *)
    for j = 0 to t.ntouched - 1 do
      let l = t.touched.(j) in
      t.frozen_alloc.(l) <- 0.;
      t.alloc.(l) <- 0.
    done;
    (* membership counts, flow resets, and the CSR size in one pass *)
    let total = ref 0 in
    let remaining = ref 0 in
    for i = 0 to n - 1 do
      let s = active.(i) in
      t.rates.(s) <- Float.infinity;
      t.frozen.(s) <- false;
      let ls = t.links.(s) in
      let len = Array.length ls in
      if len > 0 then incr remaining;
      total := !total + len;
      for k = 0 to len - 1 do
        let l = ls.(k) in
        t.unfrozen.(l) <- t.unfrozen.(l) + 1
      done
    done;
    if Array.length t.member_flow < !total then
      t.member_flow <- Array.make (Stdlib.max !total (2 * Array.length t.member_flow)) 0;
    (* One ascending scan over the links: CSR starts and fill cursors of
       the loaded links, the [touched] list, and the heap pushes in link
       order (the reference's push order, hence its pop order). *)
    let acc = ref 0 in
    let nt = ref 0 in
    t.heap_size <- 0;
    for l = 0 to t.nlinks - 1 do
      let c = t.unfrozen.(l) in
      if c > 0 then begin
        t.member_start.(l) <- !acc;
        t.cursor.(l) <- !acc;
        acc := !acc + c;
        t.touched.(!nt) <- l;
        incr nt;
        heap_push t (level t l) l
      end
    done;
    t.ntouched <- !nt;
    for i = 0 to n - 1 do
      let s = active.(i) in
      let ls = t.links.(s) in
      for k = 0 to Array.length ls - 1 do
        let l = ls.(k) in
        t.member_flow.(t.cursor.(l)) <- s;
        t.cursor.(l) <- t.cursor.(l) + 1
      done
    done;
    (* waterfilling, identical to the reference *)
    while !remaining > 0 do
      (* cannot be empty while flows remain: every unfrozen flow crosses
         a link that is still in the heap *)
      assert (t.heap_size > 0);
      let key = t.heap_key.(0) and l = t.heap_link.(0) in
      heap_drop_top t;
      if t.unfrozen.(l) > 0 then begin
        let current = level t l in
        if current > key +. (1e-9 *. Float.max 1. current) then
          (* stale key: the link's level grew since it was pushed *)
          heap_push t current l
        else begin
          let fair = Float.max 0. current in
          for j = t.member_start.(l) to t.cursor.(l) - 1 do
            let s = t.member_flow.(j) in
            if not t.frozen.(s) then begin
              t.frozen.(s) <- true;
              t.rates.(s) <- fair;
              decr remaining;
              let ls = t.links.(s) in
              for k = 0 to Array.length ls - 1 do
                let m = ls.(k) in
                t.frozen_alloc.(m) <- t.frozen_alloc.(m) +. fair;
                t.unfrozen.(m) <- t.unfrozen.(m) - 1
              done
            end
          done
        end
      end
    done;
    (* link allocation: flows in caller order, so the per-link sums
       accumulate in a fixed order and round reproducibly *)
    for i = 0 to n - 1 do
      let s = active.(i) in
      let r = t.rates.(s) in
      let ls = t.links.(s) in
      for k = 0 to Array.length ls - 1 do
        let l = ls.(k) in
        t.alloc.(l) <- t.alloc.(l) +. r
      done
    done;
    t.solves <- t.solves + 1

  let[@inline] rate t slot =
    check_slot t slot;
    t.rates.(slot)

  let rates_into t active n dst =
    if n < 0 || n > Array.length active || n > Array.length dst then
      invalid_arg "Maxmin.Solver.rates_into";
    for i = 0 to n - 1 do
      let s = active.(i) in
      check_slot t s;
      dst.(i) <- t.rates.(s)
    done

  let link_allocs t = t.alloc
  let solves t = t.solves
end
