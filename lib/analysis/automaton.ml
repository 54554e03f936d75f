module As_graph = Mifo_topology.As_graph
module Routing = Mifo_bgp.Routing
module Policy = Mifo_core.Policy
module Alt_select = Mifo_core.Alt_select

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
     hops); that endpoint repairs locally onto its first RIB alternative
     over a live link — slot 1, as vias are distinct neighbors. *)
  let repaired w =
    match Alt_select.local_repair rt w ~link_up:(fun via -> link_enabled ~at:w ~via) with
    | s when s > 0 -> Some (w, s)
    | _ -> None
  in
  let repair = match repaired u with Some r -> Some r | None -> repaired v in
  { deflection_enabled; link_enabled; repair }

type t = {
  g : As_graph.t;
  rt : Routing.t;
  tag_check : bool;
  max_alt : int;
  n : int;
  dest : int;
  overlay : overlay;
}

let create ?(tag_check = true) ?(overlay = default_overlay) ?k g rt =
  let max_alt = match k with None -> Stdlib.max_int | Some kk -> kk in
  { g; rt; tag_check; max_alt; n = As_graph.n g; dest = Routing.dest rt; overlay }

let n_states t = 2 * t.n
let dest t = t.dest
let routing t = t.rt
let graph t = t.g
let enc _t v tag = (2 * v) + if tag then 1 else 0

(* The transition function.  Outgoing transitions of product state
   (v, tag): the default route is always available and never checked;
   every other RIB entry is a deflection gated by the exit-point
   Tag-Check and by the overlay ([deflection_enabled] models withdrawn
   RIB alternatives, [link_enabled] a failed physical link, [repair] the
   post-failure promoted default).  [max_alt] caps the deflectable RIB
   indices at the first k alternatives, which over-approximates a
   chooser that draws from that pool (Alt_select.ranked_alternatives);
   the greedy chooser As_network.build installs scans the whole RIB,
   so only the unbounded automaton covers it.  Iterates the RIB through
   the packed accessors — no boxed entries materialise, which is what
   keeps the 44K product DFS inside the CSR arena.  The tag after the
   hop [v -> via] is rewritten at [via]'s entering point to "the
   upstream neighbor is my customer"; the stored relationship is [via]'s
   role relative to [v], so the upstream role is its inverse.

   Successor order is load-bearing: the (possibly repaired) default edge
   first, then deflections by ascending RIB index — [As_check.find_loop]
   counterexamples are bit-identical to the historical checker because
   this order is. *)
let iter_succ t v tag ~f =
  let rt = t.rt in
  let k = if v = t.dest then 0 else Routing.rib_size rt v in
  let default_slot = match t.overlay.repair with Some (u, s) when u = v -> s | _ -> 0 in
  let emit i deflected =
    let via = Routing.rib_via rt v i in
    if
      t.overlay.link_enabled ~at:v ~via
      && ((not deflected) || t.overlay.deflection_enabled ~at:v ~via)
    then
      f
        { at = v; tag; via; slot = i; deflected }
        via
        (Policy.tag_of_upstream (Mifo_topology.Relationship.inverse (Routing.rib_rel_at rt v i)))
  in
  if default_slot < k then emit default_slot false;
  for i = 1 to Stdlib.min t.max_alt (k - 1) do
    if
      i <> default_slot
      && ((not t.tag_check) || Policy.check ~tag ~downstream:(Routing.rib_rel_at rt v i))
    then emit i true
  done

let edges t v tag =
  let acc = ref [] in
  iter_succ t v tag ~f:(fun m w wtag -> acc := (m, w, wtag) :: !acc);
  List.rev !acc

(* Epoch-stamped scratch: an int-per-state map whose clear is O(1) (bump
   the epoch), so per-destination and per-failed-link rounds at 44K
   never memset the 2n-cell arrays.  Unstamped cells read 0. *)
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

(* Memoized co-reachability of the destination over the (AS, tag)
   space.  Exact on an acyclic automaton (run the loop check first): the
   iterative DFS three-colors states, and a gray revisit would need a
   cycle.  Memo values in [scratch]: 0 unknown, 1 in progress, 2
   delivers, 3 dead. *)
let co_reach t ~scratch v0 tag0 =
  let c0 = enc t v0 tag0 in
  match Scratch.get scratch c0 with
  | 2 -> true
  | 3 -> false
  | _ ->
    let stack = ref [ (v0, tag0) ] in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | (v, tag) :: rest ->
        let c = enc t v tag in
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
                if w = t.dest then Scratch.set scratch (enc t w wtag) 2
                else if Scratch.get scratch (enc t w wtag) = 0 then
                  stack := (w, wtag) :: !stack)
          end
        | _ ->
          (* in progress: every successor is settled (acyclicity), fold *)
          let delivers = ref false in
          iter_succ t v tag ~f:(fun _m w wtag ->
              if Scratch.get scratch (enc t w wtag) = 2 then delivers := true);
          Scratch.set scratch c (if !delivers then 2 else 3);
          stack := rest)
    done;
    Scratch.get scratch c0 = 2

(* Region cycle scan: DFS from every (seed, tag) state; true iff a
   cycle is reachable from the seeds.  The resilience sweep seeds it
   with the endpoints of a failed-then-repaired link — a NEW cycle must
   run through a changed edge, so a clean scan certifies the whole
   automaton without re-walking it.  Starts a fresh scratch round
   itself. *)
let cycle_from t ~scratch ~seeds =
  Scratch.round scratch ~states:(n_states t);
  let explored = ref 0 in
  let found = ref false in
  let stack = Stack.create () in
  let push v tag =
    Scratch.set scratch (enc t v tag) 1;
    incr explored;
    Stack.push (v, tag, ref (edges t v tag)) stack
  in
  let drive () =
    while (not !found) && not (Stack.is_empty stack) do
      let v, tag, rest = Stack.top stack in
      match !rest with
      | [] ->
        Scratch.set scratch (enc t v tag) 2;
        ignore (Stack.pop stack)
      | (_m, w, wtag) :: tl -> (
        rest := tl;
        match Scratch.get scratch (enc t w wtag) with
        | 1 -> found := true
        | 0 -> push w wtag
        | _ -> ())
    done
  in
  List.iter
    (fun v ->
      List.iter
        (fun tag ->
          if (not !found) && Scratch.get scratch (enc t v tag) = 0 then begin
            push v tag;
            drive ()
          end)
        [ false; true ])
    seeds;
  (!found, !explored)

(* Forward reachability from every source root (v, source_tag), calling [f v tag entering_move] once per state in
   first-visit order.  [entering_move] is [None] at roots, otherwise the
   move by which the DFS first reached the state — a parent pointer from
   which concrete decision scripts are rebuilt. *)
let iter_reachable t ~scratch ~f =
  let pending = ref [] in
  let visit v tag m =
    let c = enc t v tag in
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
