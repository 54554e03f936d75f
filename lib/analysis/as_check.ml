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

type frame = {
  v : int;
  tag : bool;
  entered_by : move option;  (* the move taken at the parent frame *)
  mutable rest : (move * int * bool) list;
}

let find_loop_in auto =
  (* Exhaustive DFS over the product automaton from every source root
     [(v, source_tag)].  The transition relation, state encoding and
     overlay live in {!Automaton}; this function owns only the cycle
     search and counterexample extraction. *)
  let n = As_graph.n (Automaton.graph auto) in
  let dest = Automaton.dest auto in
  let enc = Automaton.enc auto in
  let color = Array.make (Automaton.n_states auto) 0 in
  (* index of the state's frame in the current DFS path, bottom-first *)
  let pos = Array.make (Automaton.n_states auto) (-1) in
  let explored = ref 0 in
  let result = ref None in
  let path = ref [] (* top of the DFS path first *) in
  let depth = ref 0 in
  let push v tag entered_by =
    let s = enc v tag in
    color.(s) <- 1;
    pos.(s) <- !depth;
    incr depth;
    incr explored;
    path := { v; tag; entered_by; rest = Automaton.edges auto v tag } :: !path
  in
  let pop () =
    match !path with
    | [] -> ()
    | f :: rest ->
      let s = enc f.v f.tag in
      color.(s) <- 2;
      pos.(s) <- -1;
      decr depth;
      path := rest
  in
  (* A gray target at path index [target_pos] closes a cycle: frames
     [0 .. target_pos-1] are the entry, [target_pos ..] the cycle, and
     the move entering frame i+1 is the move taken AT frame i. *)
  let extract closing_move target_pos =
    let frames = Array.of_list (List.rev !path) in
    let k = Array.length frames in
    let move_at i =
      if i + 1 < k then
        match frames.(i + 1).entered_by with Some m -> m | None -> assert false
      else closing_move
    in
    let entry = ref [] and entry_moves = ref [] in
    let cycle = ref [] and cycle_moves = ref [] in
    for i = k - 1 downto 0 do
      if i < target_pos then begin
        entry := frames.(i).v :: !entry;
        entry_moves := move_at i :: !entry_moves
      end
      else begin
        cycle := frames.(i).v :: !cycle;
        cycle_moves := move_at i :: !cycle_moves
      end
    done;
    {
      dest;
      entry = !entry;
      cycle = !cycle @ [ frames.(target_pos).v ];
      entry_moves = !entry_moves;
      cycle_moves = !cycle_moves;
    }
  in
  let rec dfs () =
    if Option.is_none !result then
      match !path with
      | [] -> ()
      | f :: _ ->
        (match f.rest with
        | [] -> pop ()
        | (m, w, wtag) :: rest ->
          f.rest <- rest;
          let s = enc w wtag in
          if color.(s) = 1 then result := Some (extract m pos.(s))
          else if color.(s) = 0 then push w wtag (Some m));
        dfs ()
  in
  (* Roots: every possible source with a freshly originated packet,
     which carries the source tag (it may use any of its RIB routes). *)
  let v = ref 0 in
  while Option.is_none !result && !v < n do
    if !v <> dest && color.(enc !v Policy.source_tag) = 0 then begin
      push !v Policy.source_tag None;
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
