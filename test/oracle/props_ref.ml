(* The property suite as first written: a closure transition function
   that builds a move per edge, closure overlay masks, and one traversal
   per question (loop DFS, forward parent sweep, co-reachability memo,
   worst-distance memo).  The QCheck gate in [test_analysis] holds
   [Mifo_analysis.Props.verify_dest] to it. *)

module As_graph = Mifo_topology.As_graph
module Relationship = Mifo_topology.Relationship
module Routing = Mifo_bgp.Routing
module Policy = Mifo_core.Policy
module Alt_select = Mifo_core.Alt_select
module Prng = Mifo_util.Prng
module Automaton = Mifo_analysis.Automaton
module Props = Mifo_analysis.Props
module Report = Mifo_analysis.Report

type move = Automaton.move = { at : int; tag : bool; via : int; slot : int; deflected : bool }

(* ---- the automaton ----------------------------------------------------- *)

type overlay = {
  deflection_enabled : at:int -> via:int -> bool;
  link_enabled : at:int -> via:int -> bool;
  repair : (int * int) option;
}

let all ~at:_ ~via:_ = true
let default_overlay = { deflection_enabled = all; link_enabled = all; repair = None }

let fail_link rt ~u ~v =
  let dest = Routing.dest rt in
  let through_u x =
    let rec walk x =
      x = u || (x <> dest && match Routing.next_hop rt x with Some y -> walk y | None -> false)
    in
    walk x
  in
  let deflection_enabled ~at:_ ~via = not (through_u via) in
  let link_enabled ~at ~via = not ((at = u && via = v) || (at = v && via = u)) in
  let repaired w =
    match Alt_select.local_repair rt w ~link_up:(fun via -> link_enabled ~at:w ~via) with
    | s when s > 0 -> Some (w, s)
    | _ -> None
  in
  let repair = match repaired u with Some r -> Some r | None -> repaired v in
  { deflection_enabled; link_enabled; repair }

type auto = {
  rt : Routing.t;
  tag_check : bool;
  max_alt : int;
  n : int;
  dest : int;
  overlay : overlay;
}

let create ~tag_check ~overlay ?k g rt =
  let max_alt = match k with None -> max_int | Some kk -> kk in
  { rt; tag_check; max_alt; n = As_graph.n g; dest = Routing.dest rt; overlay }

let n_states t = 2 * t.n
let enc v tag = (2 * v) + if tag then 1 else 0

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
        (Policy.tag_of_upstream (Relationship.inverse (Routing.rib_rel_at rt v i)))
  in
  if default_slot < k then emit default_slot false;
  for i = 1 to min t.max_alt (k - 1) do
    if
      i <> default_slot
      && ((not t.tag_check) || Policy.check ~tag ~downstream:(Routing.rib_rel_at rt v i))
    then emit i true
  done

let edges t v tag =
  let acc = ref [] in
  iter_succ t v tag ~f:(fun m w wtag -> acc := (m, w, wtag) :: !acc);
  List.rev !acc

(* Epoch-stamped int map; unstamped cells read 0. *)
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

  let get t s = if t.stamp.(s) = t.epoch then t.data.(s) else 0

  let set t s x =
    t.stamp.(s) <- t.epoch;
    t.data.(s) <- x
end

(* Memo values: 0 unknown, 1 in progress, 2 delivers, 3 dead. *)
let co_reach t ~scratch v0 tag0 =
  let c0 = enc v0 tag0 in
  match Scratch.get scratch c0 with
  | 2 -> true
  | 3 -> false
  | _ ->
    let stack = ref [ (v0, tag0) ] in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | (v, tag) :: rest -> (
        let c = enc v tag in
        match Scratch.get scratch c with
        | 2 | 3 -> stack := rest
        | 0 ->
          if v = t.dest then begin
            Scratch.set scratch c 2;
            stack := rest
          end
          else begin
            Scratch.set scratch c 1;
            iter_succ t v tag ~f:(fun _m w wtag ->
                if w = t.dest then Scratch.set scratch (enc w wtag) 2
                else if Scratch.get scratch (enc w wtag) = 0 then
                  stack := (w, wtag) :: !stack)
          end
        | _ ->
          let delivers = ref false in
          iter_succ t v tag ~f:(fun _m w wtag ->
              if Scratch.get scratch (enc w wtag) = 2 then delivers := true);
          Scratch.set scratch c (if !delivers then 2 else 3);
          stack := rest)
    done;
    Scratch.get scratch c0 = 2

let cycle_from t ~scratch ~seeds =
  Scratch.round scratch ~states:(n_states t);
  let found = ref false in
  let stack = Stack.create () in
  let push v tag =
    Scratch.set scratch (enc v tag) 1;
    Stack.push (v, tag, ref (edges t v tag)) stack
  in
  let drive () =
    while (not !found) && not (Stack.is_empty stack) do
      let v, tag, rest = Stack.top stack in
      match !rest with
      | [] ->
        Scratch.set scratch (enc v tag) 2;
        ignore (Stack.pop stack)
      | (_m, w, wtag) :: tl -> (
        rest := tl;
        match Scratch.get scratch (enc w wtag) with
        | 1 -> found := true
        | 0 -> push w wtag
        | _ -> ())
    done
  in
  List.iter
    (fun v ->
      List.iter
        (fun tag ->
          if (not !found) && Scratch.get scratch (enc v tag) = 0 then begin
            push v tag;
            drive ()
          end)
        [ false; true ])
    seeds;
  !found

let iter_reachable t ~scratch ~f =
  let pending = ref [] in
  let visit v tag m =
    let c = enc v tag in
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

(* ---- the loop check ---------------------------------------------------- *)

type counterexample = { entry : int list; cycle : int list }

type frame = {
  v : int;
  tag : bool;
  entered_by : move option;
  mutable rest : (move * int * bool) list;
}

let find_loop_in auto =
  let color = Array.make (n_states auto) 0 in
  let pos = Array.make (n_states auto) (-1) in
  let explored = ref 0 in
  let result = ref None in
  let path = ref [] in
  let depth = ref 0 in
  let push v tag entered_by =
    let s = enc v tag in
    color.(s) <- 1;
    pos.(s) <- !depth;
    incr depth;
    incr explored;
    path := { v; tag; entered_by; rest = edges auto v tag } :: !path
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
  let extract target_pos =
    let frames = Array.of_list (List.rev !path) in
    let entry = ref [] and cycle = ref [] in
    for i = Array.length frames - 1 downto 0 do
      if i < target_pos then entry := frames.(i).v :: !entry
      else cycle := frames.(i).v :: !cycle
    done;
    { entry = !entry; cycle = !cycle @ [ frames.(target_pos).v ] }
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
          if color.(s) = 1 then result := Some (extract pos.(s))
          else if color.(s) = 0 then push w wtag (Some m));
        dfs ()
  in
  let v = ref 0 in
  while Option.is_none !result && !v < auto.n do
    if !v <> auto.dest && color.(enc !v Policy.source_tag) = 0 then begin
      push !v Policy.source_tag None;
      dfs ()
    end;
    incr v
  done;
  (!result, !explored)

(* ---- delivery and stretch ---------------------------------------------- *)

type stranded = { s_at : int; s_path : int list; s_moves : move list }

let stranded_scan auto ~reach_scratch ~can_scratch =
  let rt = auto.rt in
  Scratch.round reach_scratch ~states:(n_states auto);
  let parents = Array.make (n_states auto) None in
  let visited = ref 0 in
  iter_reachable auto ~scratch:reach_scratch ~f:(fun v tag m ->
      incr visited;
      parents.(enc v tag) <- m);
  let rec build v tag path moves =
    match parents.(enc v tag) with
    | None -> (v :: path, moves)
    | Some m -> build m.at m.tag (v :: path) (m :: moves)
  in
  let stranded = ref [] in
  for v = auto.n - 1 downto 0 do
    if v <> auto.dest && Routing.reachable rt v then
      List.iter
        (fun tag ->
          if
            Scratch.get reach_scratch (enc v tag) <> 0
            && not (co_reach auto ~scratch:can_scratch v tag)
          then begin
            let path, moves = build v tag [] [] in
            stranded := { s_at = v; s_path = path; s_moves = moves } :: !stranded
          end)
        [ true; false ]
  done;
  (!visited, !stranded)

let worst_dist auto ~can_scratch ~dist_scratch v0 tag0 =
  let get v tag = Scratch.get dist_scratch (enc v tag) in
  let set v tag x = Scratch.set dist_scratch (enc v tag) x in
  let stack = ref [ (v0, tag0) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (v, tag) :: rest -> (
      match get v tag with
      | x when x >= 2 -> stack := rest
      | 0 ->
        if v = auto.dest then begin
          set v tag 2;
          stack := rest
        end
        else begin
          set v tag 1;
          iter_succ auto v tag ~f:(fun _m w wtag ->
              if get w wtag = 0 && co_reach auto ~scratch:can_scratch w wtag then
                stack := (w, wtag) :: !stack)
        end
      | _ ->
        let best = ref (-1) in
        iter_succ auto v tag ~f:(fun _m w wtag ->
            let d = get w wtag in
            if d >= 2 && d - 2 > !best then best := d - 2);
        set v tag (!best + 3);
        stack := rest)
  done;
  get v0 tag0 - 2

let worst_path auto ~can_scratch ~dist_scratch v0 tag0 =
  let get v tag = Scratch.get dist_scratch (enc v tag) in
  let path = ref [ v0 ] and moves = ref [] in
  let v = ref v0 and tag = ref tag0 in
  while !v <> auto.dest do
    let d = get !v !tag in
    let chosen = ref None in
    iter_succ auto !v !tag ~f:(fun m w wtag ->
        if !chosen = None && get w wtag = d - 1 && co_reach auto ~scratch:can_scratch w wtag
        then chosen := Some (m, w, wtag));
    match !chosen with
    | None -> v := auto.dest
    | Some (m, w, wtag) ->
      path := w :: !path;
      moves := m :: !moves;
      v := w;
      tag := wtag
  done;
  (List.rev !path, List.rev !moves)

(* ---- the suite --------------------------------------------------------- *)

let verify_dest ?(tag_check = true) ?k ?(stretch_bound = Props.default_stretch_bound)
    ?fail_link:base_fail ?(fail_links = 0) ?(seed = 0) ~props g rt =
  let dest = Routing.dest rt in
  let n = As_graph.n g in
  let base_overlay =
    match base_fail with None -> default_overlay | Some (u, v) -> fail_link rt ~u ~v
  in
  let auto = create ~tag_check ~overlay:base_overlay ?k g rt in
  let has p = List.mem p props in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let states_explored = ref 0 in
  let delivery_states = ref 0 in
  let stranded_count = ref 0 in
  let stretch_states = ref 0 in
  let max_stretch = ref 0 in
  let failed_links = ref 0 in
  let unprotectable = ref 0 in
  let full_checks = ref 0 in
  let loop_cx =
    if props <> [] then begin
      let cx, explored = find_loop_in auto in
      states_explored := explored;
      cx
    end
    else None
  in
  (if has Props.Loops then
     match loop_cx with
     | None -> ()
     | Some cx ->
       add
         (Report.Forwarding_loop
            { dest; level = Report.As_level; entry = cx.entry; cycle = cx.cycle }));
  let acyclic = Option.is_none loop_cx in
  let can_scratch = Scratch.create () in
  let reach_scratch = Scratch.create () in
  let add_strandings failed_link stranded =
    List.iter
      (fun s ->
        add
          (Report.Black_hole
             { dest; at = s.s_at; path = s.s_path; moves = s.s_moves; failed_link }))
      stranded
  in
  if acyclic && (has Props.Delivery || has Props.Stretch) then begin
    Scratch.round can_scratch ~states:(n_states auto);
    if has Props.Delivery then begin
      let visited, stranded = stranded_scan auto ~reach_scratch ~can_scratch in
      delivery_states := visited;
      stranded_count := List.length stranded;
      add_strandings base_fail stranded
    end;
    if has Props.Stretch then begin
      let dist_scratch = Scratch.create () in
      Scratch.round dist_scratch ~states:(n_states auto);
      for v = 0 to n - 1 do
        if
          v <> dest
          && Routing.reachable rt v
          && co_reach auto ~scratch:can_scratch v Policy.source_tag
        then begin
          let d = worst_dist auto ~can_scratch ~dist_scratch v Policy.source_tag in
          let stretch = d - Routing.best_len rt v in
          incr stretch_states;
          if stretch > !max_stretch then max_stretch := stretch;
          if stretch > stretch_bound then begin
            let path, moves = worst_path auto ~can_scratch ~dist_scratch v Policy.source_tag in
            add
              (Report.Stretch_exceeded
                 {
                   dest;
                   src = v;
                   default_len = Routing.best_len rt v;
                   actual_len = d;
                   bound = stretch_bound;
                   path;
                   moves;
                 })
          end
        end
      done
    end
  end;
  if acyclic && has Props.Resilience then begin
    let candidates = ref [] in
    for u = n - 1 downto 0 do
      if u <> dest && Routing.reachable rt u then candidates := u :: !candidates
    done;
    let candidates = Array.of_list !candidates in
    let chosen =
      if fail_links > 0 && fail_links < Array.length candidates then begin
        let rng = Prng.create ~seed:(seed + (31 * dest)) () in
        let idx = Prng.sample_without_replacement rng fail_links (Array.length candidates) in
        Array.map (fun i -> candidates.(i)) idx
      end
      else candidates
    in
    let res_scratch = Scratch.create () in
    Array.iter
      (fun u ->
        match Routing.next_hop rt u with
        | None -> ()
        | Some v ->
          incr failed_links;
          if Routing.rib_size rt u < 2 then incr unprotectable
          else begin
            let fauto = create ~tag_check ~overlay:(fail_link rt ~u ~v) ?k g rt in
            let w1 = Routing.rib_via rt u 1 in
            let cx =
              if not (cycle_from fauto ~scratch:res_scratch ~seeds:[ u; w1 ]) then None
              else begin
                incr full_checks;
                fst (find_loop_in fauto)
              end
            in
            match cx with
            | Some cx ->
              add
                (Report.Failure_loop
                   { dest; failed_link = (u, v); entry = cx.entry; cycle = cx.cycle })
            | None ->
              Scratch.round can_scratch ~states:(n_states fauto);
              let touched_ok =
                List.for_all
                  (fun (w, tag) -> w = dest || co_reach fauto ~scratch:can_scratch w tag)
                  [ (u, true); (u, false); (v, true); (v, false) ]
              in
              if not touched_ok then begin
                incr full_checks;
                let visited, stranded = stranded_scan fauto ~reach_scratch ~can_scratch in
                delivery_states := !delivery_states + visited;
                stranded_count := !stranded_count + List.length stranded;
                add_strandings (Some (u, v)) stranded
              end
          end)
      chosen
  end;
  {
    Report.violations = List.rev !violations;
    stats =
      {
        Report.empty_stats with
        Report.dests_checked = 1;
        states_explored = !states_explored;
        delivery_states = !delivery_states;
        stranded_states = !stranded_count;
        stretch_states = !stretch_states;
        max_stretch = !max_stretch;
        failed_links = !failed_links;
        unprotectable_links = !unprotectable;
        resilience_full_checks = !full_checks;
      };
  }
