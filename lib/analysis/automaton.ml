module As_graph = Mifo_topology.As_graph
module Routing = Mifo_bgp.Routing
module Policy = Mifo_core.Policy
module Alt_select = Mifo_core.Alt_select
module Deployment = Mifo_core.Deployment
module Relationship = Mifo_topology.Relationship

type move = { at : int; tag : bool; via : int; slot : int; deflected : bool }

(* The failure overlay as data.  [cut_u]/[cut_v] are the failed link's
   endpoints (-1 when healthy); [cut_u] is also the root of the
   withdrawn subtree.  [repair_at]'s default edge is RIB entry
   [repair_slot] (-1 when nothing is repaired). *)
type overlay = { cut_u : int; cut_v : int; repair_at : int; repair_slot : int }

let default_overlay = { cut_u = -1; cut_v = -1; repair_at = -1; repair_slot = 0 }

(* [root] on the default chain of [x]: [x] sits in [root]'s default
   subtree.  Reads entry 0 of each RIB (the default), so the walk boxes
   nothing. *)
let in_subtree rt ~root x =
  let dest = Routing.dest rt in
  let x = ref x in
  while !x <> root && !x <> dest && Routing.rib_size rt !x > 0 do
    x := Routing.rib_via rt !x 0
  done;
  !x = root

let[@inline] link_up ov ~at ~via =
  not ((at = ov.cut_u && via = ov.cut_v) || (at = ov.cut_v && via = ov.cut_u))

(* The local-repair failure model for one failed default-tree link
   [(u, v = next_hop u)]: the link is masked in both directions, [u]
   promotes its first surviving RIB alternative to an unchecked default
   (local BGP reconvergence), and every RIB alternative anywhere whose
   recorded route runs through [u] is withdrawn — the failure breaks the
   advertised path, and the control plane propagates the withdrawal
   before the static question is asked.  RIB vias are distinct
   neighbors, so with [rib_size u >= 2] the promoted slot is always 1;
   links below that are the caller's "unprotectable" census, not an
   overlay.

   The withdrawal rule is what makes the model compose: an alternative
   via [x] routes through [u] iff [x] sits in [u]'s default subtree, so
   under the overlay no surviving deflection can re-enter that subtree.
   [u]'s own alternatives always survive (BGP's loop filter already
   keeps [u] off their paths), so the repaired default escapes the
   subtree and rejoins the intact part of the tree — on a loop-free
   base automaton the repaired one stays loop-free, and the sweep's
   delta certificates almost never escalate. *)
let fail_link rt ~u ~v =
  let ov = { default_overlay with cut_u = u; cut_v = v } in
  (* At most one endpoint loses its default (the default graph is a tree
     toward the destination, so u->v and v->u cannot both be default
     hops); that endpoint repairs locally onto its first RIB alternative
     over a live link — slot 1, as vias are distinct neighbors. *)
  let repaired w = Alt_select.local_repair rt w ~link_up:(fun via -> link_up ov ~at:w ~via) in
  match repaired u with
  | s when s > 0 -> { ov with repair_at = u; repair_slot = s }
  | _ -> (
    match repaired v with s when s > 0 -> { ov with repair_at = v; repair_slot = s } | _ -> ov)

type t = {
  g : As_graph.t;
  rt : Routing.t;
  tag_check : bool;
  max_alt : int;
  n : int;
  dest : int;
  ov : overlay;
  deployment : Deployment.t option; (* [None]: every AS deflects *)
}

let create ?(tag_check = true) ?(overlay = default_overlay) ?k ?deployment g rt =
  let max_alt = match k with None -> Stdlib.max_int | Some kk -> kk in
  {
    g;
    rt;
    tag_check;
    max_alt;
    n = As_graph.n g;
    dest = Routing.dest rt;
    ov = overlay;
    deployment;
  }

let n_states t = 2 * t.n
let dest t = t.dest
let routing t = t.rt
let graph t = t.g
let enc _t v tag = (2 * v) + if tag then 1 else 0
let[@inline] node s = s lsr 1

let[@inline] legacy t v =
  match t.deployment with None -> false | Some d -> not (Deployment.capable d v)

let[@inline] default_slot t v = if v = t.ov.repair_at then t.ov.repair_slot else 0

(* [Policy]'s two predicates, tabulated once over the three
   relationships so the per-edge cursor makes no calls for them.  The
   stored relationship is [via]'s role relative to [v]. *)
let rel_index = function
  | Relationship.Customer -> 0
  | Relationship.Peer -> 1
  | Relationship.Provider -> 2

let rels = [| Relationship.Customer; Relationship.Peer; Relationship.Provider |]

(* [passes.(2 * i + tag)]: the exit-point Tag-Check toward a downstream
   of relationship [rels.(i)]. *)
let passes =
  Array.init 6 (fun c -> Policy.check ~tag:(c land 1 = 1) ~downstream:rels.(c / 2))

(* [tag_bit.(i)]: the tag after a hop to a [rels.(i)] neighbour,
   rewritten at its entering point from the inverse (upstream) role. *)
let tag_bit =
  Array.map (fun r -> if Policy.tag_of_upstream (Relationship.inverse r) then 1 else 0) rels

(* The transition function, as an int cursor.  Outgoing transitions of
   product state (v, tag): the default route is always available and
   never checked; every other RIB entry is a deflection gated by the
   exit-point Tag-Check and by the overlay (a withdrawn RIB alternative,
   a failed physical link, the post-failure promoted default).  A
   legacy AS (outside [deployment]) keeps only its default edge.
   [max_alt] caps the deflectable RIB indices at the first k
   alternatives, which over-approximates a chooser that draws from that
   pool (Alt_select.ranked_alternatives); the greedy chooser
   As_network.build installs scans the whole RIB, so only the unbounded
   automaton covers it.  Everything is read through the packed RIB
   accessors and passed as ints, which is what keeps the 44K product DFS
   inside the CSR arena.

   Position order is load-bearing: the (possibly repaired) default edge
   at 0, then deflections by ascending RIB index — [As_check.find_loop]
   counterexamples are bit-identical to the historical checker because
   this order is. *)
let next t s p =
  let v = node s in
  if v = t.dest then -1
  else begin
    let rt = t.rt in
    let k = Routing.rib_size rt v in
    let ds = default_slot t v in
    let cut = t.ov.cut_u >= 0 in
    if p = 0 && ds < k && ((not cut) || link_up t.ov ~at:v ~via:(Routing.rib_via rt v ds))
    then 0
    else if legacy t v then -1
    else begin
      let tag = s land 1 in
      let last = Stdlib.min t.max_alt (k - 1) in
      let i = ref (if p < 1 then 1 else p) in
      let found = ref (-1) in
      while !found < 0 && !i <= last do
        let j = !i in
        if
          j <> ds
          && ((not t.tag_check) || passes.((2 * rel_index (Routing.rib_rel_at rt v j)) + tag))
          && ((not cut)
             ||
             let via = Routing.rib_via rt v j in
             link_up t.ov ~at:v ~via && not (in_subtree rt ~root:t.ov.cut_u via))
        then found := j
        else incr i
      done;
      !found
    end
  end

let target t s p =
  let v = node s in
  let slot = if p = 0 then default_slot t v else p in
  (2 * Routing.rib_via t.rt v slot) + tag_bit.(rel_index (Routing.rib_rel_at t.rt v slot))

let move t s p =
  let v = node s in
  let slot = if p = 0 then default_slot t v else p in
  { at = v; tag = s land 1 = 1; via = Routing.rib_via t.rt v slot; slot; deflected = p > 0 }

(* Epoch-stamped scratch: an int-per-state map whose clear is O(1) (bump
   the epoch), so per-destination and per-failed-link rounds at 44K
   never memset the 2n-cell arrays.  Unstamped cells read 0.  Next to
   the map, an int stack (DFS frames, work lists) whose storage
   outlives its rounds. *)
module Scratch = struct
  type t = {
    mutable epoch : int;
    mutable stamp : int array;
    mutable data : int array;
    mutable stack : int array;
    mutable depth : int;
  }

  let create () = { epoch = 0; stamp = [||]; data = [||]; stack = [||]; depth = 0 }

  let round t ~states =
    t.depth <- 0;
    if Array.length t.stamp < states then begin
      t.stamp <- Array.make states 0;
      t.data <- Array.make states 0;
      t.epoch <- 1
    end
    else t.epoch <- t.epoch + 1

  let[@inline] get t s = if t.stamp.(s) = t.epoch then t.data.(s) else 0

  let[@inline] set t s x =
    t.stamp.(s) <- t.epoch;
    t.data.(s) <- x

  let push t x =
    if t.depth = Array.length t.stack then begin
      let bigger = Array.make (Stdlib.max 64 (2 * t.depth)) 0 in
      Array.blit t.stack 0 bigger 0 t.depth;
      t.stack <- bigger
    end;
    t.stack.(t.depth) <- x;
    t.depth <- t.depth + 1

  let[@inline] pop t =
    t.depth <- t.depth - 1;
    t.stack.(t.depth)

  let[@inline] depth t = t.depth
  let[@inline] peek t i = t.stack.(i)
  let[@inline] poke t i x = t.stack.(i) <- x
end

(* Memoized co-reachability of the destination over the (AS, tag)
   space, on the scratch's int stack.  Exact on an acyclic automaton
   (run the loop check first); a gray revisit would need a cycle.  Memo
   values in [scratch]: 0 unknown, 1 in progress, 2 delivers, 3 dead.
   A state is pushed once per unknown predecessor edge and settled on
   its second visit, when every successor is. *)
let co_reach t ~scratch s0 =
  match Scratch.get scratch s0 with
  | 2 -> true
  | 3 -> false
  | _ ->
    Scratch.push scratch s0;
    while Scratch.depth scratch > 0 do
      let s = Scratch.pop scratch in
      match Scratch.get scratch s with
      | 2 | 3 -> ()
      | 0 ->
        if node s = t.dest then Scratch.set scratch s 2
        else begin
          Scratch.set scratch s 1;
          (* revisit after the successors; push unknown ones on top *)
          Scratch.push scratch s;
          let p = ref (next t s 0) in
          while !p >= 0 do
            let w = target t s !p in
            if node w = t.dest then Scratch.set scratch w 2
            else if Scratch.get scratch w = 0 then Scratch.push scratch w;
            p := next t s (!p + 1)
          done
        end
      | _ ->
        let delivers = ref false in
        let p = ref (next t s 0) in
        while (not !delivers) && !p >= 0 do
          if Scratch.get scratch (target t s !p) = 2 then delivers := true;
          p := next t s (!p + 1)
        done;
        Scratch.set scratch s (if !delivers then 2 else 3)
    done;
    Scratch.get scratch s0 = 2

(* Region cycle scan: DFS from every (seed, tag) state; true iff a
   cycle is reachable from the seeds.  The resilience sweep seeds it
   with the endpoints of a failed-then-repaired link — a NEW cycle must
   run through a changed edge, so a clean scan certifies the whole
   automaton without re-walking it.  Frames are (state, position)
   pairs on the scratch stack; colours are 1 on the path, 2 done. *)
let scan_from t ~scratch s0 =
  let push s =
    Scratch.set scratch s 1;
    Scratch.push scratch s;
    Scratch.push scratch (next t s 0)
  in
  if Scratch.get scratch s0 <> 0 then false
  else begin
    push s0;
    let found = ref false in
    while (not !found) && Scratch.depth scratch > 0 do
      let top = Scratch.depth scratch - 2 in
      let s = Scratch.peek scratch top and p = Scratch.peek scratch (top + 1) in
      if p < 0 then begin
        Scratch.set scratch s 2;
        ignore (Scratch.pop scratch);
        ignore (Scratch.pop scratch)
      end
      else begin
        Scratch.poke scratch (top + 1) (next t s (p + 1));
        let w = target t s p in
        match Scratch.get scratch w with 1 -> found := true | 0 -> push w | _ -> ()
      end
    done;
    !found
  end

let rec scan_seeds t ~scratch = function
  | [] -> false
  | v :: rest ->
    scan_from t ~scratch (enc t v false)
    || scan_from t ~scratch (enc t v true)
    || scan_seeds t ~scratch rest

let cycle_from t ~scratch ~seeds =
  Scratch.round scratch ~states:(n_states t);
  scan_seeds t ~scratch seeds

(* Fig. 7's path count: the number of distinct walks from each source
   state (v, Policy.source_tag) to the destination, a post-order DFS on
   the scratch's int stack.  Frames are (state, position) pairs as in
   [scan_from]; [memo] holds a state's count, accumulated in position
   order while the state is on the path (1 in [scratch]) and final once
   it is done (2).  A child's count is added when its frame pops, before
   the parent's next position is read, so each sum runs in position
   order.  Counts are floats: dense pairs overflow 63-bit ints at
   scale. *)
let path_counts t =
  let scratch = Scratch.create () in
  Scratch.round scratch ~states:(n_states t);
  let memo = Float.Array.make (n_states t) 0. in
  let add s w = Float.Array.set memo s (Float.Array.get memo s +. Float.Array.get memo w) in
  List.iter
    (fun tag ->
      let s = enc t t.dest tag in
      Float.Array.set memo s 1.;
      Scratch.set scratch s 2)
    [ false; true ];
  let push s =
    Scratch.set scratch s 1;
    Scratch.push scratch s;
    Scratch.push scratch (next t s 0)
  in
  for v = 0 to t.n - 1 do
    let s0 = enc t v Policy.source_tag in
    if Scratch.get scratch s0 = 0 then push s0;
    while Scratch.depth scratch > 0 do
      let top = Scratch.depth scratch - 2 in
      let s = Scratch.peek scratch top and p = Scratch.peek scratch (top + 1) in
      if p < 0 then begin
        Scratch.set scratch s 2;
        ignore (Scratch.pop scratch);
        ignore (Scratch.pop scratch);
        if top > 0 then add (Scratch.peek scratch (top - 2)) s
      end
      else begin
        Scratch.poke scratch (top + 1) (next t s (p + 1));
        let w = target t s p in
        match Scratch.get scratch w with
        | 0 -> push w
        | 1 -> invalid_arg "Automaton.path_counts: the automaton has a cycle"
        | _ -> add s w
      end
    done
  done;
  Array.init t.n (fun v -> Float.Array.get memo (enc t v Policy.source_tag))

(* The walks [path_counts] counts, in position order, as move arrays.  A
   walk longer than the state space repeats a state, so the automaton
   has a cycle. *)
let enumerate t ~src ~limit =
  let found = ref [] and nfound = ref 0 in
  let rec walk s depth acc =
    if !nfound < limit then
      if node s = t.dest then begin
        found := Array.of_list (List.rev acc) :: !found;
        incr nfound
      end
      else if depth > n_states t then
        invalid_arg "Automaton.enumerate: the automaton has a cycle"
      else begin
        let p = ref (next t s 0) in
        while !p >= 0 && !nfound < limit do
          walk (target t s !p) (depth + 1) (move t s !p :: acc);
          p := next t s (!p + 1)
        done
      end
  in
  walk (enc t src Policy.source_tag) 0 [];
  List.rev !found

let script ?(cycle = 0) moves =
  let total = Array.length moves in
  let i = ref 0 in
  fun ~as_id:_ ~upstream:_ ~entries:_ ->
    let j = !i in
    incr i;
    let j = if j < total || cycle = 0 then j else total - cycle + ((j - total) mod cycle) in
    if j >= total then Mifo_core.Loop_walk.Default
    else if moves.(j).deflected then Mifo_core.Loop_walk.Deflect moves.(j).via
    else Mifo_core.Loop_walk.Default
