module As_graph = Mifo_topology.As_graph
module Routing = Mifo_bgp.Routing
module Policy = Mifo_core.Policy

type move = { at : int; tag : bool; via : int; slot : int; deflected : bool }

type overlay = {
  deflection_enabled : at:int -> via:int -> bool;
  link_enabled : at:int -> via:int -> bool;
  repair : (int * int) option;
}

let all ~at:_ ~via:_ = true
let default_overlay = { deflection_enabled = all; link_enabled = all; repair = None }

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
  let dest = Routing.dest rt in
  (* [u] on the default chain of [x] — [x] is in [u]'s subtree. *)
  let through_u x =
    let rec walk x = x = u || (x <> dest && match Routing.next_hop rt x with
      | Some y -> walk y
      | None -> false)
    in
    walk x
  in
  let deflection_enabled ~at:_ ~via = not (through_u via) in
  let link_enabled ~at ~via = not ((at = u && via = v) || (at = v && via = u)) in
  (* At most one endpoint loses its default (the default graph is a tree
     toward the destination, so u->v and v->u cannot both be default
     hops); that endpoint promotes RIB slot 1 — vias are distinct
     neighbors, so slot 1 always survives the mask. *)
  let needs_repair w x =
    (match Routing.next_hop rt w with Some nh -> nh = x | None -> false)
    && Routing.rib_size rt w >= 2
  in
  let repair =
    if needs_repair u v then Some (u, 1)
    else if needs_repair v u then Some (v, 1)
    else None
  in
  { deflection_enabled; link_enabled; repair }

type t = {
  g : As_graph.t;
  rt : Routing.t;
  tag_check : bool;
  max_alt : int;
  slots : int;
  n : int;
  dest : int;
  overlay : overlay;
}

let create ?(tag_check = true) ?(overlay = default_overlay) ?k g rt =
  let max_alt = match k with None -> Stdlib.max_int | Some kk -> kk in
  let slots = match k with None -> 1 | Some kk -> kk + 1 in
  { g; rt; tag_check; max_alt; slots; n = As_graph.n g; dest = Routing.dest rt; overlay }

let n_states t = 2 * t.n * t.slots
let n_cstates t = 2 * t.n
let slots t = t.slots
let dest t = t.dest
let routing t = t.rt
let graph t = t.g

let enc t v tag slot = (((2 * v) + (if tag then 1 else 0)) * t.slots) + slot
let cenc _t v tag = (2 * v) + if tag then 1 else 0
let slot_of_move t (m : move) = if t.slots = 1 then 0 else m.slot

(* Outgoing transitions of product state (v, tag): the default route is
   always available and never checked; every other RIB entry is a
   deflection gated by the exit-point Tag-Check and by the overlay
   ([deflection_enabled] models withdrawn RIB alternatives,
   [link_enabled] a failed physical link, [repair] the post-failure
   promoted default).  Iterates the RIB through the packed accessors —
   no boxed entries materialise, which is what keeps the 44K product DFS
   inside the CSR arena.  The tag after the hop [v -> via] is rewritten
   at [via]'s entering point to "the upstream neighbor is my customer";
   the stored relationship is [via]'s role relative to [v], so the
   upstream role is its inverse.

   Successor order is load-bearing: the (possibly repaired) default edge
   first, then deflections by ascending RIB index — [As_check.find_loop]
   counterexamples are bit-identical to the historical checker because
   this order is. *)
let edges t v tag =
  let rt = t.rt in
  if v = t.dest then []
  else begin
    let k = Routing.rib_size rt v in
    if k = 0 then []
    else begin
      let default_slot =
        match t.overlay.repair with Some (u, s) when u = v -> s | _ -> 0
      in
      let edge i deflected =
        let via = Routing.rib_via rt v i in
        let rel = Routing.rib_rel_at rt v i in
        ( { at = v; tag; via; slot = i; deflected },
          via,
          Policy.tag_of_upstream (Mifo_topology.Relationship.inverse rel) )
      in
      (* [max_alt] caps the deflectable RIB indices: a k-limited data
         plane only ever installs the first k RIB alternatives
         (Alt_select pool-caps in preference order), so admitting
         exactly indices 1..k soundly over-approximates it. *)
      let rec alts i acc =
        if i < 1 then acc
        else begin
          let via = Routing.rib_via rt v i in
          let acc =
            if
              i <> default_slot
              && ((not t.tag_check)
                 || Policy.check ~tag ~downstream:(Routing.rib_rel_at rt v i))
              && t.overlay.deflection_enabled ~at:v ~via
              && t.overlay.link_enabled ~at:v ~via
            then edge i true :: acc
            else acc
          in
          alts (i - 1) acc
        end
      in
      let tail = alts (Stdlib.min t.max_alt (k - 1)) [] in
      if
        default_slot < k
        && t.overlay.link_enabled ~at:v ~via:(Routing.rib_via rt v default_slot)
      then edge default_slot false :: tail
      else tail
    end
  end

(* Allocation-light successor iteration in exactly [edges]'s order, for
   the forward/co-reachability traversals that visit millions of states
   per 44K destination. *)
let iter_succ t v tag ~f =
  let rt = t.rt in
  if v <> t.dest then begin
    let k = Routing.rib_size rt v in
    if k > 0 then begin
      let default_slot =
        match t.overlay.repair with Some (u, s) when u = v -> s | _ -> 0
      in
      let emit i deflected =
        let via = Routing.rib_via rt v i in
        let rel = Routing.rib_rel_at rt v i in
        f
          { at = v; tag; via; slot = i; deflected }
          via
          (Policy.tag_of_upstream (Mifo_topology.Relationship.inverse rel))
      in
      if
        default_slot < k
        && t.overlay.link_enabled ~at:v ~via:(Routing.rib_via rt v default_slot)
      then emit default_slot false;
      let hi = Stdlib.min t.max_alt (k - 1) in
      for i = 1 to hi do
        if
          i <> default_slot
          && ((not t.tag_check)
             || Policy.check ~tag ~downstream:(Routing.rib_rel_at rt v i))
          && t.overlay.deflection_enabled ~at:v ~via:(Routing.rib_via rt v i)
          && t.overlay.link_enabled ~at:v ~via:(Routing.rib_via rt v i)
        then emit i true
      done
    end
  end

(* Epoch-stamped scratch: an int-per-state map whose clear is O(1) (bump
   the epoch), so per-destination and per-failed-link rounds at 44K
   never memset the 2n(k+1) arrays.  Unstamped cells read 0. *)
module Scratch = struct
  type t = { mutable epoch : int; mutable stamp : int array; mutable data : int array }

  let create () = { epoch = 0; stamp = [||]; data = [||] }

  let round t ~states =
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
end

(* Memoized co-reachability of the destination over the collapsed
   (AS, tag) space — transitions do not depend on the entering slot, so
   delivery is slot-independent and 2n cells suffice at any k.  Exact on
   an acyclic automaton (run the loop check first): the iterative DFS
   three-colors states, and a gray revisit would need a cycle.  Memo
   values in [scratch]: 0 unknown, 1 in progress, 2 delivers, 3 dead. *)
let co_reach t ~scratch v0 tag0 =
  let c0 = cenc t v0 tag0 in
  match Scratch.get scratch c0 with
  | 2 -> true
  | 3 -> false
  | _ ->
    let stack = ref [ (v0, tag0) ] in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | (v, tag) :: rest ->
        let c = cenc t v tag in
        (match Scratch.get scratch c with
        | 2 | 3 -> stack := rest
        | 0 ->
          if v = t.dest then begin
            Scratch.set scratch c 2;
            stack := rest
          end
          else begin
            Scratch.set scratch c 1;
            (* push unknown successors; settle on the revisit *)
            iter_succ t v tag ~f:(fun _m w wtag ->
                if w = t.dest then Scratch.set scratch (cenc t w wtag) 2
                else if Scratch.get scratch (cenc t w wtag) = 0 then
                  stack := (w, wtag) :: !stack)
          end
        | _ ->
          (* in progress: every successor is settled (acyclicity), fold *)
          let delivers = ref false in
          iter_succ t v tag ~f:(fun _m w wtag ->
              if Scratch.get scratch (cenc t w wtag) = 2 then delivers := true);
          Scratch.set scratch c (if !delivers then 2 else 3);
          stack := rest)
    done;
    Scratch.get scratch c0 = 2

(* Region cycle scan: DFS over the widened state space from every
   (seed, tag, slot) state; true iff a cycle is reachable from the
   seeds.  The resilience sweep seeds it with the endpoints of a
   failed-then-repaired link — a NEW cycle must run through a changed
   edge, so a clean scan certifies the whole automaton without
   re-walking it.  Starts a fresh scratch round itself. *)
let cycle_from t ~scratch ~seeds =
  Scratch.round scratch ~states:(n_states t);
  let explored = ref 0 in
  let found = ref false in
  let stack = Stack.create () in
  let push v tag slot =
    Scratch.set scratch (enc t v tag slot) 1;
    incr explored;
    Stack.push (v, tag, slot, ref (edges t v tag)) stack
  in
  let drive () =
    while (not !found) && not (Stack.is_empty stack) do
      let v, tag, slot, rest = Stack.top stack in
      match !rest with
      | [] ->
        Scratch.set scratch (enc t v tag slot) 2;
        ignore (Stack.pop stack)
      | (m, w, wtag) :: tl -> (
        rest := tl;
        let s = enc t w wtag (slot_of_move t m) in
        match Scratch.get scratch s with
        | 1 -> found := true
        | 0 -> push w wtag (slot_of_move t m)
        | _ -> ())
    done
  in
  List.iter
    (fun v ->
      List.iter
        (fun tag ->
          for slot = 0 to t.slots - 1 do
            if (not !found) && Scratch.get scratch (enc t v tag slot) = 0 then begin
              push v tag slot;
              drive ()
            end
          done)
        [ false; true ])
    seeds;
  (!found, !explored)

(* Forward reachability from every source root (v, source_tag) over the
   collapsed space, calling [f v tag entering_move] once per state in
   first-visit order.  [entering_move] is [None] at roots, otherwise the
   move by which the DFS first reached the state — a parent pointer from
   which concrete decision scripts are rebuilt. *)
let iter_reachable t ~scratch ~f =
  let pending = ref [] in
  let visit v tag m =
    let c = cenc t v tag in
    if Scratch.get scratch c = 0 then begin
      Scratch.set scratch c 1;
      f v tag m;
      pending := (v, tag) :: !pending
    end
  in
  let drain () =
    while !pending <> [] do
      match !pending with
      | [] -> ()
      | (v, tag) :: rest ->
        pending := rest;
        iter_succ t v tag ~f:(fun m w wtag -> visit w wtag (Some m))
    done
  in
  for v = 0 to t.n - 1 do
    if v <> t.dest then begin
      visit v Policy.source_tag None;
      drain ()
    end
  done
