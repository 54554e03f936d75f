(* The original per-call progressive-filling allocator, kept as the
   oracle for Mifo_netsim.Maxmin.Solver.  A lazy min-heap of per-link
   saturation levels: a link's level (cap - frozen) / unfrozen only grows
   as flows freeze, so a popped stale key can simply be re-pushed. *)

module Heap = Mifo_util.Heap

let dedup_links = Mifo_netsim.Maxmin.dedup_links

let allocate ~capacities ~flow_links =
  let nlinks = Array.length capacities in
  let nflows = Array.length flow_links in
  Array.iter
    (fun c -> if c < 0. || Float.is_nan c then invalid_arg "Maxmin_ref: bad capacity")
    capacities;
  (* Per-flow deduplicated link sets; validate ids. *)
  let paths =
    Array.map
      (fun links ->
        Array.iter
          (fun l ->
            if l < 0 || l >= nlinks then invalid_arg "Maxmin_ref: link id out of range")
          links;
        dedup_links links)
      flow_links
  in
  (* A flow crossing no link is unconstrained: its rate is [infinity],
     explicitly.  (It used to inherit the largest link capacity as an
     artifact of the initial fill — a value that depended on unrelated
     links.)  Every flow with at least one link is frozen by the loop
     below, so the initial fill only ever survives for empty flows. *)
  let rates = Array.make nflows Float.infinity in
  (* Per-link bookkeeping. *)
  let unfrozen = Array.make nlinks 0 in
  let frozen_alloc = Array.make nlinks 0. in
  let members = Array.make nlinks [] in
  Array.iteri
    (fun f links ->
      Array.iter
        (fun l ->
          unfrozen.(l) <- unfrozen.(l) + 1;
          members.(l) <- f :: members.(l))
        links)
    paths;
  let flow_frozen = Array.make nflows false in
  let remaining = ref 0 in
  Array.iter (fun links -> if Array.length links > 0 then incr remaining) paths;
  let level l = (capacities.(l) -. frozen_alloc.(l)) /. float_of_int unfrozen.(l) in
  let heap = Heap.create ~cmp:(fun (a, _) (b, _) -> Float.compare a b) () in
  for l = 0 to nlinks - 1 do
    if unfrozen.(l) > 0 then Heap.push heap (level l, l)
  done;
  while !remaining > 0 do
    match Heap.pop heap with
    | None ->
      (* cannot happen while flows remain: every unfrozen flow crosses a
         link that is still in the heap *)
      assert false
    | Some (key, l) ->
      if unfrozen.(l) > 0 then begin
        let current = level l in
        if current > key +. (1e-9 *. Float.max 1. current) then
          (* stale key: the link's level grew since it was pushed *)
          Heap.push heap (current, l)
        else begin
          (* [l] is the next bottleneck: freeze everything unfrozen on it *)
          let fair = Float.max 0. current in
          List.iter
            (fun f ->
              if not flow_frozen.(f) then begin
                flow_frozen.(f) <- true;
                rates.(f) <- fair;
                decr remaining;
                Array.iter
                  (fun m ->
                    frozen_alloc.(m) <- frozen_alloc.(m) +. fair;
                    unfrozen.(m) <- unfrozen.(m) - 1)
                  paths.(f)
              end)
            members.(l)
        end
      end
  done;
  rates

let link_allocation ~capacities ~flow_links ~rates =
  let alloc = Array.make (Array.length capacities) 0. in
  Array.iteri
    (fun f links -> Array.iter (fun l -> alloc.(l) <- alloc.(l) +. rates.(f)) links)
    flow_links;
  alloc

