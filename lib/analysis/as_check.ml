module As_graph = Mifo_topology.As_graph
module Routing = Mifo_bgp.Routing
module Relationship = Mifo_topology.Relationship
module Policy = Mifo_core.Policy
module Loop_walk = Mifo_core.Loop_walk

type move = Automaton.move = {
  at : int;
  tag : bool;
  via : int;
  slot : int;
  deflected : bool;
}

type counterexample = {
  dest : int;
  entry : int list;
  cycle : int list;
  entry_moves : move list;
  cycle_moves : move list;
}

type loop_result = { counterexample : counterexample option; states_explored : int }

module Scratch = Automaton.Scratch

(* Exhaustive DFS over the product automaton from every source root
   [(v, source_tag)].  The transition relation, state encoding and
   overlay live in {!Automaton}; this function owns only the cycle
   search and counterexample extraction.

   Frames are int pairs (state, position) on [scratch]'s stack; the
   position is the edge being explored, so it still names the move
   taken at the frame while the child runs.  [scratch]'s map colours
   states: 0 unvisited, 1 finished, [2 + i] on the path at frame [i].

   With [dp], each frame also folds its successors' values as they
   finish (post-order): 0 unreached, 1 reached but stranding, [d + 2]
   delivering with worst deliverable length [d].  Once the automaton is
   acyclic, post-order is reverse topological, so the values are final:
   [d] is 1 + the largest [d] of a delivering successor. *)
let find_loop_in ?(scratch = Scratch.create ()) ?dp auto =
  let n = As_graph.n (Automaton.graph auto) in
  let dest = Automaton.dest auto in
  let states = Automaton.n_states auto in
  Scratch.round scratch ~states;
  let fill = Option.is_some dp in
  (* without [?dp], [fill] is false and the alias is never read *)
  let dp = match dp with Some d -> d | None -> scratch in
  if fill then Scratch.round dp ~states;
  let explored = ref 0 in
  let result = ref None in
  let push s =
    Scratch.set scratch s (2 + (Scratch.depth scratch / 2));
    Scratch.push scratch s;
    Scratch.push scratch (Automaton.next auto s 0);
    incr explored;
    if fill then Scratch.set dp s (if Automaton.node s = dest then 2 else 1)
  in
  (* [s] gains the delivering successor [w]. *)
  let relax s w =
    let x = Scratch.get dp w + 1 in
    if x >= 3 && x > Scratch.get dp s then Scratch.set dp s x
  in
  (* A path target at frame [target] closes a cycle: frames
     [0 .. target-1] are the entry, [target ..] the cycle, and frame
     [i]'s position is the move taken at frame [i]. *)
  let extract target =
    let frames = Scratch.depth scratch / 2 in
    let state i = Scratch.peek scratch (2 * i) in
    let move_at i = Automaton.move auto (state i) (Scratch.peek scratch ((2 * i) + 1)) in
    let entry = ref [] and entry_moves = ref [] in
    let cycle = ref [ Automaton.node (state target) ] and cycle_moves = ref [] in
    for i = frames - 1 downto 0 do
      if i < target then begin
        entry := Automaton.node (state i) :: !entry;
        entry_moves := move_at i :: !entry_moves
      end
      else begin
        cycle := Automaton.node (state i) :: !cycle;
        cycle_moves := move_at i :: !cycle_moves
      end
    done;
    {
      dest;
      entry = !entry;
      cycle = !cycle;
      entry_moves = !entry_moves;
      cycle_moves = !cycle_moves;
    }
  in
  (* The top frame scans its positions in locals and writes its cursor
     back only when it descends; a finished frame hands its value to its
     parent and advances the parent's cursor. *)
  let dfs () =
    while Option.is_none !result && Scratch.depth scratch > 0 do
      let top = Scratch.depth scratch - 2 in
      let s = Scratch.peek scratch top in
      let p = ref (Scratch.peek scratch (top + 1)) in
      let descended = ref false in
      while (not !descended) && !p >= 0 do
        let w = Automaton.target auto s !p in
        match Scratch.get scratch w with
        | 1 ->
          if fill then relax s w;
          p := Automaton.next auto s (!p + 1)
        | c ->
          Scratch.poke scratch (top + 1) !p;
          descended := true;
          if c = 0 then push w else result := Some (extract (c - 2))
      done;
      if not !descended then begin
        Scratch.set scratch s 1;
        ignore (Scratch.pop scratch);
        ignore (Scratch.pop scratch);
        if top > 0 then begin
          let parent = Scratch.peek scratch (top - 2) in
          let pp = Scratch.peek scratch (top - 1) in
          if fill then relax parent s;
          Scratch.poke scratch (top - 1) (Automaton.next auto parent (pp + 1))
        end
      end
    done
  in
  (* Roots: every possible source with a freshly originated packet,
     which carries the source tag (it may use any of its RIB routes). *)
  let v = ref 0 in
  while Option.is_none !result && !v < n do
    let s = Automaton.enc auto !v Policy.source_tag in
    if !v <> dest && Scratch.get scratch s = 0 then begin
      push s;
      dfs ()
    end;
    incr v
  done;
  { counterexample = !result; states_explored = !explored }

let find_loop ?(tag_check = true) ?k g rt =
  find_loop_in (Automaton.create ~tag_check ?k g rt)

let replay ?(tag_check = true) g rt cx =
  let moves = Array.of_list (cx.entry_moves @ cx.cycle_moves) in
  let cycle = List.length cx.cycle_moves in
  if cycle = 0 then invalid_arg "As_check.replay: counterexample has an empty cycle";
  let src =
    match cx.entry with v :: _ -> v | [] -> List.hd cx.cycle
  in
  (* Generous budget: the walk revisits an (AS, upstream) state within
     one extra turn of the cycle, well inside this bound. *)
  let max_hops = 2 * (Array.length moves + cycle) + 8 in
  Loop_walk.walk ~tag_check ~max_hops g rt ~decide:(Automaton.script ~cycle moves) ~src

(* The valley audit, chain-first.  A RIB path at [v] via entry [e] is
   [v :: default_path (e.via)], so both its hop count and its
   valley-freeness are functions of [e]'s direct hop plus a property of
   [via]'s default chain alone.  Per destination we memoize, for every
   node [w], the chain depth (hop count of [w]'s default path) and a
   2-bit validity mask of the chain under the valley automaton's two
   future-constraint states — S0 "anything allowed next" (still inside
   the Up* prefix) and S1 "only Down allowed" (a Flat or Down hop has
   been taken).  Each RIB entry is then audited in O(1) from the packed
   accessors; the boxed path materialises only on the cold violation
   path.  This is what keeps the 44K audit inside the CSR arena
   (previously: one boxed list per RIB entry via [rib_paths]). *)
let ok_s0 = 1 (* chain valid when entered in S0 *)
let ok_s1 = 2 (* chain valid when entered in S1 *)

let chain_masks g rt =
  let n = As_graph.n g in
  let dest = Routing.dest rt in
  let depth = Array.make n (-1) in
  let okmask = Array.make n (-1) in
  depth.(dest) <- 0;
  okmask.(dest) <- ok_s0 lor ok_s1;
  let compute w0 =
    (* walk the default chain to the first memoized node, then unwind *)
    let rec walk w acc =
      if depth.(w) >= 0 then acc
      else
        match Routing.next_hop rt w with
        | None -> acc (* unreachable: caller reports, chain unused *)
        | Some nh -> walk nh ((w, nh) :: acc)
    in
    List.iter
      (fun (w, nh) ->
        depth.(w) <- 1 + depth.(nh);
        let hop = Relationship.hop_of (As_graph.rel_exn g w nh) in
        let nh_ok = okmask.(nh) in
        let s0_ok =
          match hop with
          | Relationship.Up -> nh_ok land ok_s0 <> 0
          | Relationship.Flat | Relationship.Down -> nh_ok land ok_s1 <> 0
        in
        let s1_ok =
          match hop with
          | Relationship.Down -> nh_ok land ok_s1 <> 0
          | Relationship.Up | Relationship.Flat -> false
        in
        okmask.(w) <- (if s0_ok then ok_s0 else 0) lor if s1_ok then ok_s1 else 0)
      (walk w0 [])
  in
  (depth, okmask, compute)

let check_paths g rt =
  let dest = Routing.dest rt in
  let n = As_graph.n g in
  let violations = ref [] in
  let count = ref 0 in
  let depth, okmask, compute_chain = chain_masks g rt in
  for v = 0 to n - 1 do
    if v <> dest then
      if not (Routing.reachable rt v) then
        violations := Report.Unreachable { dest; node = v } :: !violations
      else begin
        let k = Routing.rib_size rt v in
        for i = 0 to k - 1 do
          incr count;
          let via = Routing.rib_via rt v i in
          if depth.(via) < 0 then compute_chain via;
          let actual = 1 + depth.(via) in
          if actual <> Routing.rib_len_at rt v i then
            violations :=
              Report.Rib_len_mismatch
                { dest; at = v; via; expected = Routing.rib_len_at rt v i; actual }
              :: !violations;
          let hop = Relationship.hop_of (Routing.rib_rel_at rt v i) in
          let valley_free =
            match hop with
            | Relationship.Up -> okmask.(via) land ok_s0 <> 0
            | Relationship.Flat | Relationship.Down -> okmask.(via) land ok_s1 <> 0
          in
          if not valley_free then
            violations :=
              Report.Valley_path
                { dest; at = v; via; path = v :: Routing.default_path rt via }
              :: !violations
        done
      end
  done;
  (List.rev !violations, !count)
