module As_graph = Mifo_topology.As_graph
module Routing = Mifo_bgp.Routing
module Policy = Mifo_core.Policy
module Loop_walk = Mifo_core.Loop_walk
module Obs = Mifo_util.Obs
module Prng = Mifo_util.Prng
module Scratch = Automaton.Scratch

type prop = Loops | Delivery | Stretch | Resilience

let all = [ Loops; Delivery; Stretch; Resilience ]

let prop_to_string = function
  | Loops -> "loops"
  | Delivery -> "delivery"
  | Stretch -> "stretch"
  | Resilience -> "resilience"

let prop_of_string = function
  | "loops" -> Some Loops
  | "delivery" -> Some Delivery
  | "stretch" -> Some Stretch
  | "resilience" -> Some Resilience
  | _ -> None

let parse_props s =
  let parts = String.split_on_char ',' s in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
      match prop_of_string (String.trim p) with
      | Some prop -> go (if List.mem prop acc then acc else prop :: acc) rest
      | None -> Error (Printf.sprintf "unknown property %S" (String.trim p)))
  in
  match go [] parts with Ok [] -> Error "empty property list" | r -> r

let default_stretch_bound = 16

(* Per-source stretch distribution: worst deliverable deflection-path
   length minus the default length, one observation per source per
   destination.  Shared across destinations and domains (Obs buckets are
   atomic; totals are scheduling-independent). *)
let h_stretch =
  Obs.histogram ~bounds:[| 0.; 1.; 2.; 3.; 4.; 6.; 8.; 12.; 16.; 24.; 32. |]
    "check.stretch"

(* ---- delivery ---------------------------------------------------------- *)

type stranded = { s_at : int; s_path : int list; s_moves : Automaton.move list }

(* Root-reachable states that cannot co-reach the destination, with a
   concrete entry script per stranding.  [can_scratch] must already hold
   a fresh round over the (AS, tag) space; it is left warm so the
   stretch pass reuses the memo.  Returns the number of states
   the forward sweep visited, and the strandings in state-index order
   (deterministic at any domain count). *)
let stranded_scan auto ~reach_scratch ~can_scratch =
  let rt = Automaton.routing auto in
  let n = As_graph.n (Automaton.graph auto) in
  let dest = Automaton.dest auto in
  Scratch.round reach_scratch ~states:(Automaton.n_states auto);
  let parents = Array.make (Automaton.n_states auto) None in
  let visited = ref 0 in
  Automaton.iter_reachable auto ~scratch:reach_scratch ~f:(fun v tag m ->
      incr visited;
      parents.(Automaton.enc auto v tag) <- m);
  let rec build v tag path moves =
    match parents.(Automaton.enc auto v tag) with
    | None -> (v :: path, moves)
    | Some (m : Automaton.move) -> build m.at m.tag (v :: path) (m :: moves)
  in
  let stranded = ref [] in
  for v = n - 1 downto 0 do
    if v <> dest && Routing.reachable rt v then
      List.iter
        (fun tag ->
          if
            Scratch.get reach_scratch (Automaton.enc auto v tag) <> 0
            && not (Automaton.co_reach auto ~scratch:can_scratch v tag)
          then begin
            let path, moves = build v tag [] [] in
            stranded := { s_at = v; s_path = path; s_moves = moves } :: !stranded
          end)
        [ true; false ]
  done;
  (!visited, !stranded)

(* ---- stretch ----------------------------------------------------------- *)

(* Longest deliverable path length from (v, tag): the DP
   [dist s = 1 + max { dist c | c successor, c delivers }] over the
   (verified acyclic) automaton, memoized in [dist_scratch] as
   [dist + 2] (0 = unset, 1 = in progress).  [can_scratch] carries the
   {!Automaton.co_reach} memo.  Only called on delivering states. *)
let worst_dist auto ~can_scratch ~dist_scratch v0 tag0 =
  let dest = Automaton.dest auto in
  let get v tag = Scratch.get dist_scratch (Automaton.enc auto v tag) in
  let set v tag x = Scratch.set dist_scratch (Automaton.enc auto v tag) x in
  let stack = ref [ (v0, tag0) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (v, tag) :: rest -> (
      match get v tag with
      | x when x >= 2 -> stack := rest
      | 0 ->
        if v = dest then begin
          set v tag 2;
          stack := rest
        end
        else begin
          set v tag 1;
          Automaton.iter_succ auto v tag ~f:(fun _m w wtag ->
              if
                get w wtag = 0
                && Automaton.co_reach auto ~scratch:can_scratch w wtag
              then stack := (w, wtag) :: !stack)
        end
      | _ ->
        (* in progress: every delivering successor is settled *)
        let best = ref (-1) in
        Automaton.iter_succ auto v tag ~f:(fun _m w wtag ->
            let d = get w wtag in
            if d >= 2 && d - 2 > !best then best := d - 2);
        set v tag (!best + 3);
        stack := rest)
  done;
  get v0 tag0 - 2

(* A concrete worst path from (v, tag): follow, at each state, the first
   successor realising [dist - 1] — by construction it ends at the
   destination after exactly [dist] hops. *)
let worst_path auto ~can_scratch ~dist_scratch v0 tag0 =
  let dest = Automaton.dest auto in
  let get v tag = Scratch.get dist_scratch (Automaton.enc auto v tag) in
  let path = ref [ v0 ] and moves = ref [] in
  let v = ref v0 and tag = ref tag0 in
  while !v <> dest do
    let d = get !v !tag in
    let chosen = ref None in
    Automaton.iter_succ auto !v !tag ~f:(fun m w wtag ->
        if
          !chosen = None
          && get w wtag = d - 1
          && Automaton.co_reach auto ~scratch:can_scratch w wtag
        then chosen := Some (m, w, wtag));
    match !chosen with
    | None -> v := dest (* unreachable under the invariant; stop defensively *)
    | Some (m, w, wtag) ->
      path := w :: !path;
      moves := m :: !moves;
      v := w;
      tag := wtag
  done;
  (List.rev !path, List.rev !moves)

(* ---- the per-destination property suite -------------------------------- *)

let verify_dest ?(tag_check = true) ?k ?(stretch_bound = default_stretch_bound)
    ?fail_link ?(fail_links = 0) ?(seed = 0) ~props g rt =
  let dest = Routing.dest rt in
  let n = As_graph.n g in
  let base_overlay =
    match fail_link with
    | None -> Automaton.default_overlay
    | Some (u, v) -> Automaton.fail_link rt ~u ~v
  in
  let auto = Automaton.create ~tag_check ~overlay:base_overlay ?k g rt in
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
  (* Loop-freedom first: delivery and stretch are exact only on an
     acyclic automaton, so they are skipped (not silently passed — the
     loop violation is the finding) when a cycle exists. *)
  let loop_cx =
    if has Loops || has Delivery || has Stretch || has Resilience then begin
      let r = As_check.find_loop_in auto in
      states_explored := r.As_check.states_explored;
      r.As_check.counterexample
    end
    else None
  in
  (if has Loops then
     match loop_cx with
     | None -> ()
     | Some cx ->
       add
         (Report.Forwarding_loop
            {
              dest;
              level = Report.As_level;
              entry = cx.As_check.entry;
              cycle = cx.As_check.cycle;
            }));
  let acyclic = Option.is_none loop_cx in
  let can_scratch = Scratch.create () in
  let reach_scratch = Scratch.create () in
  if acyclic && (has Delivery || has Stretch) then begin
    Scratch.round can_scratch ~states:(Automaton.n_states auto);
    if has Delivery then begin
      let visited, stranded =
        stranded_scan auto ~reach_scratch ~can_scratch
      in
      delivery_states := visited;
      stranded_count := List.length stranded;
      List.iter
        (fun s ->
          add
            (Report.Black_hole
               {
                 dest;
                 at = s.s_at;
                 path = s.s_path;
                 moves = s.s_moves;
                 failed_link = fail_link;
               }))
        stranded
    end;
    if has Stretch then begin
      let dist_scratch = Scratch.create () in
      Scratch.round dist_scratch ~states:(Automaton.n_states auto);
      for v = 0 to n - 1 do
        if
          v <> dest
          && Routing.reachable rt v
          && Automaton.co_reach auto ~scratch:can_scratch v Policy.source_tag
        then begin
          let d = worst_dist auto ~can_scratch ~dist_scratch v Policy.source_tag in
          let stretch = d - Routing.best_len rt v in
          incr stretch_states;
          if stretch > !max_stretch then max_stretch := stretch;
          Obs.observe h_stretch (float_of_int stretch);
          if stretch > stretch_bound then begin
            let path, moves =
              worst_path auto ~can_scratch ~dist_scratch v Policy.source_tag
            in
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
  if acyclic && has Resilience then begin
    (* Sweep single failures of default-tree links (u, next_hop u).  Per
       link: the loop delta-certificate (a new cycle must traverse the
       repaired default — seed the scan at its endpoints), then the
       delivery touched-state certificate (every surviving path either
       avoids the failed link or runs through a (u, ·)/(v, ·) state, and
       the pure-default witness always exists — so if all four touched
       states deliver under the overlay, every state does).  Either
       certificate failing escalates to the full check under the same
       overlay, keeping verdicts bit-identical to N independent full
       checks. *)
    let candidates = ref [] in
    for u = n - 1 downto 0 do
      if u <> dest && Routing.reachable rt u then candidates := u :: !candidates
    done;
    let candidates = Array.of_list !candidates in
    let chosen =
      if fail_links > 0 && fail_links < Array.length candidates then begin
        let rng = Prng.create ~seed:(seed + (31 * dest)) () in
        let idx =
          Prng.sample_without_replacement rng fail_links (Array.length candidates)
        in
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
            let overlay = Automaton.fail_link rt ~u ~v in
            let fauto = Automaton.create ~tag_check ~overlay ?k g rt in
            let w1 = Routing.rib_via rt u 1 in
            let smell, _explored =
              Automaton.cycle_from fauto ~scratch:res_scratch ~seeds:[ u; w1 ]
            in
            let cx =
              if not smell then None
              else begin
                incr full_checks;
                (As_check.find_loop_in fauto).As_check.counterexample
              end
            in
            match cx with
            | Some cx ->
              add
                (Report.Failure_loop
                   {
                     dest;
                     failed_link = (u, v);
                     entry = cx.As_check.entry;
                     cycle = cx.As_check.cycle;
                   })
            | None ->
              Scratch.round can_scratch ~states:(Automaton.n_states fauto);
              let touched_ok =
                List.for_all
                  (fun (w, tag) ->
                    w = dest || Automaton.co_reach fauto ~scratch:can_scratch w tag)
                  [ (u, true); (u, false); (v, true); (v, false) ]
              in
              if not touched_ok then begin
                incr full_checks;
                let visited, stranded =
                  stranded_scan fauto ~reach_scratch ~can_scratch
                in
                delivery_states := !delivery_states + visited;
                stranded_count := !stranded_count + List.length stranded;
                List.iter
                  (fun s ->
                    add
                      (Report.Black_hole
                         {
                           dest;
                           at = s.s_at;
                           path = s.s_path;
                           moves = s.s_moves;
                           failed_link = Some (u, v);
                         }))
                  stranded
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

(* ---- dynamic replays ---------------------------------------------------- *)

let replay_moves ?(tag_check = true) ~fn g rt ~path ~moves ~failed_link =
  let src = match path with src :: _ -> src | [] -> invalid_arg ("Props." ^ fn ^ ": empty path") in
  let link_up a b =
    match failed_link with None -> true | Some (u, v) -> not ((a = u && b = v) || (a = v && b = u))
  in
  let moves = Array.of_list moves in
  Loop_walk.walk ~tag_check ~link_up
    ~max_hops:(2 * (Array.length moves + As_graph.n g) + 8)
    g rt ~decide:(Automaton.script moves) ~src

let replay_stranded ?tag_check g rt ~path ~moves ~failed_link =
  replay_moves ?tag_check ~fn:"replay_stranded" g rt ~path ~moves ~failed_link

let replay_stretch ?tag_check g rt ~path ~moves =
  replay_moves ?tag_check ~fn:"replay_stretch" g rt ~path ~moves ~failed_link:None
