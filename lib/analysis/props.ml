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

(* ---- delivery and stretch off the loop check's DP ---------------------- *)

(* The DP [As_check.find_loop_in ~dp] leaves behind, per packed state: 0
   unreached, 1 reached but stranding, [d + 2] delivering with worst
   deliverable length [d]. *)

let stranding auto dp s =
  let v = Automaton.node s in
  Scratch.get dp s = 1
  && v <> Automaton.dest auto
  && Routing.reachable (Automaton.routing auto) v

(* Every root-reachable state was explored, and the DP reached each of
   them: delivery is a census of the cells. *)
let any_stranding auto dp =
  let states = Automaton.n_states auto in
  let s = ref 0 in
  while !s < states && not (stranding auto dp !s) do
    incr s
  done;
  !s < states

type stranded = { s_at : int; s_path : int list; s_moves : Automaton.move list }

(* The cold path, run only when a state strands: a concrete entry script
   per stranding, rebuilt from parent pointers of a forward sweep from
   every source root.  [reach] holds 0 unvisited, 1 at roots, else
   [2 + parent * n_states + position].  Strandings come in state-index
   order (deterministic at any domain count). *)
let stranded_scan auto ~reach ~dp =
  let states = Automaton.n_states auto in
  Scratch.round reach ~states;
  let visit s parent =
    if Scratch.get reach s = 0 then begin
      Scratch.set reach s parent;
      Scratch.push reach s
    end
  in
  for v = 0 to As_graph.n (Automaton.graph auto) - 1 do
    if v <> Automaton.dest auto then begin
      visit (Automaton.enc auto v Policy.source_tag) 1;
      while Scratch.depth reach > 0 do
        let s = Scratch.pop reach in
        let p = ref (Automaton.next auto s 0) in
        while !p >= 0 do
          visit (Automaton.target auto s !p) (2 + (s * states) + !p);
          p := Automaton.next auto s (!p + 1)
        done
      done
    end
  done;
  let rec build s path moves =
    match Scratch.get reach s with
    | 1 -> (Automaton.node s :: path, moves)
    | x ->
      let parent = (x - 2) / states and p = (x - 2) mod states in
      build parent (Automaton.node s :: path) (Automaton.move auto parent p :: moves)
  in
  let stranded = ref [] in
  for s = states - 1 downto 0 do
    if stranding auto dp s then begin
      let path, moves = build s [] [] in
      stranded := { s_at = Automaton.node s; s_path = path; s_moves = moves } :: !stranded
    end
  done;
  !stranded

(* A concrete worst path from [s]: follow, at each state, the first
   successor one hop closer in the DP — by construction it ends at the
   destination after exactly [d] hops.  Cold: only a stretch over the
   bound asks. *)
let worst_path auto ~dp s0 =
  let dest = Automaton.dest auto in
  let path = ref [ Automaton.node s0 ] and moves = ref [] in
  let s = ref s0 in
  while Automaton.node !s <> dest do
    let want = Scratch.get dp !s - 1 in
    let p = ref (Automaton.next auto !s 0) in
    while !p >= 0 && Scratch.get dp (Automaton.target auto !s !p) <> want do
      p := Automaton.next auto !s (!p + 1)
    done;
    if !p < 0 then s := Automaton.enc auto dest false (* unreachable under the invariant *)
    else begin
      let w = Automaton.target auto !s !p in
      path := Automaton.node w :: !path;
      moves := Automaton.move auto !s !p :: !moves;
      s := w
    end
  done;
  (List.rev !path, List.rev !moves)

(* The resilience sweep's delivery certificate: do the four states at
   the failed link's endpoints reach the destination under the overlay?
   Shares one co-reachability memo, which [scratch] must hold fresh. *)
let touched_deliver fauto ~scratch u v =
  let dest = Automaton.dest fauto in
  let delivers w tag =
    w = dest || Automaton.co_reach fauto ~scratch (Automaton.enc fauto w tag)
  in
  delivers u true && delivers u false && delivers v true && delivers v false

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
  let add_strandings failed_link stranded =
    List.iter
      (fun s ->
        add
          (Report.Black_hole
             { dest; at = s.s_at; path = s.s_path; moves = s.s_moves; failed_link }))
      stranded
  in
  let states_explored = ref 0 in
  let delivery_states = ref 0 in
  let stranded_count = ref 0 in
  let stretch_states = ref 0 in
  let max_stretch = ref 0 in
  let failed_links = ref 0 in
  let unprotectable = ref 0 in
  let full_checks = ref 0 in
  (* Two scratches serve the whole suite: [work] holds the DFS colours
     and frames (then the parent sweep, the region scans and the
     co-reachability memo), [dp] the loop check's post-order DP. *)
  let work = Scratch.create () and dp = Scratch.create () in
  (* Loop-freedom first: delivery and stretch are exact only on an
     acyclic automaton, so they are skipped (not silently passed — the
     loop violation is the finding) when a cycle exists.  Their DP rides
     on the same DFS, filled only when one of them is asked for. *)
  let wants_dp = has Delivery || has Stretch in
  let loop_cx =
    if props <> [] then begin
      let r =
        As_check.find_loop_in ~scratch:work ?dp:(if wants_dp then Some dp else None) auto
      in
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
  if acyclic && has Delivery then begin
    delivery_states := !states_explored;
    if any_stranding auto dp then begin
      let stranded = stranded_scan auto ~reach:work ~dp in
      stranded_count := List.length stranded;
      add_strandings fail_link stranded
    end
  end;
  if acyclic && has Stretch then begin
    (* Stretch values are small ints: tally them, then observe each
       distinct value once ([check.stretch]'s buckets, sum and count are
       the same as one observation per source). *)
    let tally = Array.make 64 0 in
    for v = 0 to n - 1 do
      let s = Automaton.enc auto v Policy.source_tag in
      let x = Scratch.get dp s in
      if v <> dest && Routing.reachable rt v && x >= 2 then begin
        let d = x - 2 in
        let stretch = d - Routing.best_len rt v in
        incr stretch_states;
        if stretch > !max_stretch then max_stretch := stretch;
        if stretch >= 0 && stretch < Array.length tally then
          tally.(stretch) <- tally.(stretch) + 1
        else Obs.observe h_stretch (float_of_int stretch);
        if stretch > stretch_bound then begin
          let path, moves = worst_path auto ~dp s in
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
    done;
    Array.iteri (fun x c -> Obs.observe_n h_stretch (float_of_int x) c) tally
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
    Array.iter
      (fun u ->
        (* a candidate is reachable, so RIB entry 0 is its default hop *)
        let v = Routing.rib_via rt u 0 in
        incr failed_links;
        if Routing.rib_size rt u < 2 then incr unprotectable
        else begin
          let overlay = Automaton.fail_link rt ~u ~v in
          let fauto = Automaton.create ~tag_check ~overlay ?k g rt in
          let w1 = Routing.rib_via rt u 1 in
          let cx =
            if not (Automaton.cycle_from fauto ~scratch:work ~seeds:[ u; w1 ]) then None
            else begin
              incr full_checks;
              (As_check.find_loop_in ~scratch:work fauto).As_check.counterexample
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
            Scratch.round work ~states:(Automaton.n_states fauto);
            if not (touched_deliver fauto ~scratch:work u v) then begin
              incr full_checks;
              let r = As_check.find_loop_in ~scratch:work ~dp fauto in
              delivery_states := !delivery_states + r.As_check.states_explored;
              if any_stranding fauto dp then begin
                let stranded = stranded_scan fauto ~reach:work ~dp in
                stranded_count := !stranded_count + List.length stranded;
                add_strandings (Some (u, v)) stranded
              end
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
