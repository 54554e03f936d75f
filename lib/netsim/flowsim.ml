module As_graph = Mifo_topology.As_graph
module Relationship = Mifo_topology.Relationship
module Routing = Mifo_bgp.Routing
module Routing_table = Mifo_bgp.Routing_table
module Deployment = Mifo_core.Deployment
module Alt_select = Mifo_core.Alt_select

type protocol =
  | Bgp
  | Mifo of Deployment.t
  | Miro of { deployment : Deployment.t; cap : int }

type alt_selection = Greedy_local | Oracle_bottleneck

type params = {
  link_capacity : float;
  dt : float;
  congest_threshold : float;
  clear_threshold : float;
  improve_margin : float;
  miro_reaction : float;
  max_time : float;
  series_interval : float;
  alt_selection : alt_selection;
}

let default_params =
  {
    link_capacity = 1e9;
    dt = 0.01;
    congest_threshold = 0.95;
    clear_threshold = 0.60;
    improve_margin = 0.2;
    miro_reaction = 0.5;
    max_time = 120.;
    series_interval = 0.25;
    alt_selection = Greedy_local;
  }

type flow_spec = { src : int; dst : int; size_bits : float; start : float }

type flow_stats = {
  spec : flow_spec;
  throughput : float;
  finish : float;
  completed : bool;
  switches : int;
  used_alt : bool;
  alt_time : float;
  final_path : int array;
  final_rate : float;
}

type result = {
  flows : flow_stats array;
  offload_fraction : float;
  series : (float * float) array;
  epochs : int;
  solves : int;
  sim_end : float;
}

(* Directed inter-AS links are numbered by the graph's adjacency: the
   link u -> v is [off.(u) + As_graph.neighbor_index g u v], where
   [off] holds the prefix sums of the degrees — AS by AS, each AS's
   neighbours in ascending order. *)
let link_offsets g =
  let n = As_graph.n g in
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + As_graph.degree g u
  done;
  off

let link_id g off u v =
  let i = As_graph.neighbor_index g u v in
  if i < 0 then invalid_arg "Flowsim: not an adjacency";
  off.(u) + i

let path_links g off path =
  let m = Array.length path - 1 in
  let links = Array.make m 0 in
  for i = 0 to m - 1 do
    links.(i) <- link_id g off path.(i) path.(i + 1)
  done;
  links

(* [path.(0 .. keep - 1)] followed by [v]'s default path to [rt]'s
   destination, walked next hop by next hop (RIB index 0) into one
   fresh array.  A splice at hop [i] onto neighbour [nb] is
   [follow_default n rt path (i + 1) nb]; a default path is
   [follow_default n rt [||] 0 src]. *)
let follow_default n rt path keep v =
  let d = Routing.dest rt in
  let rec hops v k =
    if v = d then k
    else if Routing.rib_size rt v = 0 then invalid_arg "Flowsim: unreachable AS"
    else if k > n then invalid_arg "Flowsim: next-hop loop"
    else hops (Routing.rib_via rt v 0) (k + 1)
  in
  let out = Array.make (keep + hops v 0 + 1) d in
  Array.blit path 0 out 0 keep;
  let rec fill v j =
    out.(j) <- v;
    if v <> d then fill (Routing.rib_via rt v 0) (j + 1)
  in
  fill v keep;
  out

let same_path (a : int array) (b : int array) =
  a == b
  || Array.length a = Array.length b
     &&
     let i = ref 0 in
     while !i < Array.length a && a.(!i) = b.(!i) do
       incr i
     done;
     !i = Array.length a

(* Per-flow state other than the floats, which live in flat arrays
   indexed like [flows] (arrival order) so that writing them boxes
   nothing. *)
type flow = {
  spec : flow_spec;
  idx : int;  (* index in the caller's spec array *)
  rt : Routing.t;  (* routing toward [spec.dst] *)
  default_path : int array;
  default_links : int array;
  mutable path : int array;
  mutable links : int array;
  mutable on_default : bool;
  mutable switches : int;
  mutable used_alt : bool;
  mutable completed : bool;
  mutable slot : int;  (* Maxmin.Solver flow handle; -1 while inactive *)
}

(* A mutable float that is written without boxing. *)
type cell = { mutable v : float }

(* [a.(0 .. len - 1)], flow positions, sorted in place by ascending
   (rate, spec index): a heapsort with the comparison inlined.  The
   order is total (spec indices are distinct), so the result is the one
   any sort gives. *)
let[@inline] before (rate : float array) (flows : flow array) x y =
  let rx = rate.(x) and ry = rate.(y) in
  rx < ry || (rx = ry && flows.(x).idx < flows.(y).idx)

let rec sift rate flows (a : int array) i len =
  let l = (2 * i) + 1 in
  if l < len then begin
    let c = if l + 1 < len && before rate flows a.(l) a.(l + 1) then l + 1 else l in
    let x = a.(i) and y = a.(c) in
    if before rate flows x y then begin
      a.(i) <- y;
      a.(c) <- x;
      sift rate flows a c len
    end
  end

let sort_by_rate rate flows a len =
  for i = (len / 2) - 1 downto 0 do
    sift rate flows a i len
  done;
  for hi = len - 1 downto 1 do
    let top = a.(0) in
    a.(0) <- a.(hi);
    a.(hi) <- top;
    sift rate flows a 0 hi
  done

(* Constant options, so naming the upstream relationship allocates
   nothing. *)
let upstream_customer = Some Relationship.Customer
let upstream_provider = Some Relationship.Provider
let upstream_peer = Some Relationship.Peer

(* a failed link keeps a hair of capacity so utilization stays defined *)
let dead_capacity = 1.0

module Obs = Mifo_util.Obs

let c_epochs = Obs.counter "flowsim.epochs"
let c_switches = Obs.counter "flowsim.path_switches"
let c_completed = Obs.counter "flowsim.completed"
let c_resumed = Obs.counter "flowsim.resumed_default"
let c_solves = Obs.counter "flowsim.solver.solves"
let c_skipped = Obs.counter "flowsim.solver.skipped_epochs"

let run ?(params = default_params) ?(failures = []) table protocol flow_specs =
  let g = Routing_table.graph table in
  let n = As_graph.n g in
  let finite field x =
    if not (Float.is_finite x) then invalid_arg ("Flowsim.run: " ^ field ^ " is not finite")
  in
  Array.iter
    (fun s ->
      if s.src < 0 || s.src >= n || s.dst < 0 || s.dst >= n then
        invalid_arg "Flowsim.run: endpoint out of range";
      if s.src = s.dst then invalid_arg "Flowsim.run: src = dst";
      finite "size_bits" s.size_bits;
      if s.size_bits <= 0. then invalid_arg "Flowsim.run: empty flow";
      finite "start" s.start;
      if s.start < 0. then invalid_arg "Flowsim.run: negative start time")
    flow_specs;
  List.iter
    (fun (at, (u, v)) ->
      finite "failure time" at;
      if at < 0. then invalid_arg "Flowsim.run: negative failure time";
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Flowsim.run: failed link endpoint out of range";
      if As_graph.rel g u v = None then
        invalid_arg "Flowsim.run: failed link is not an adjacency")
    failures;
  let off = link_offsets g in
  let nlinks = off.(n) in
  let link u v = link_id g off u v in
  let capacities = Array.make nlinks params.link_capacity in
  let sv = Maxmin.Solver.create ~capacity:params.link_capacity ~nlinks () in
  (* Does the solver state (membership or capacities) differ from the
     last solve?  Set on arrival, completion, path switch, and link
     failure; when clear, this epoch's solve would be bit-identical to
     the previous one and can be skipped outright. *)
  let dirty = ref true in
  let solves = ref 0 in
  let clock = { v = 0. } in
  let pending_failures =
    ref
      (List.sort
         (fun (t1, (u1, v1)) (t2, (u2, v2)) ->
           let c = Float.compare t1 t2 in
           if c <> 0 then c
           else begin
             let c = Int.compare u1 u2 in
             if c <> 0 then c else Int.compare v1 v2
           end)
         failures)
  in
  let apply_due_failures () =
    let more = ref true in
    while !more do
      match !pending_failures with
      | (at, (u, v)) :: rest when at <= clock.v ->
        pending_failures := rest;
        (* both directions of the physical link go dark *)
        let luv = link u v and lvu = link v u in
        capacities.(luv) <- dead_capacity;
        capacities.(lvu) <- dead_capacity;
        Maxmin.Solver.set_capacity sv luv dead_capacity;
        Maxmin.Solver.set_capacity sv lvu dead_capacity;
        dirty := true
      | _ -> more := false
    done
  in
  (* Flows sorted by arrival, stable on input order. *)
  let order = Array.init (Array.length flow_specs) (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = Float.compare flow_specs.(a).start flow_specs.(b).start in
      if c <> 0 then c else Int.compare a b)
    order;
  let make_flow idx =
    let spec = flow_specs.(idx) in
    let rt = Routing_table.get table spec.dst in
    let default_path = follow_default n rt [||] 0 spec.src in
    let default_links = path_links g off default_path in
    {
      spec;
      idx;
      rt;
      default_path;
      default_links;
      path = default_path;
      links = default_links;
      on_default = true;
      switches = 0;
      used_alt = false;
      completed = false;
      slot = -1;
    }
  in
  let flows = Array.map make_flow order in
  let total = Array.length flows in
  (* per-flow floats, by arrival position *)
  let rate = Array.make total 0. in
  let remaining = Array.map (fun f -> f.spec.size_bits) flows in
  let alt_time = Array.make total 0. in
  let finish_at = Array.make total nan in
  (* the active flows' positions, in admission order up to swap-removal *)
  let active = Array.make total 0 in
  let nactive = ref 0 in
  let next_arrival = ref 0 in
  let alloc = ref (Maxmin.Solver.link_allocs sv) in
  let series = Mifo_util.Vec.create () in
  let dead l = capacities.(l) <= dead_capacity in
  let congested l = dead l || !alloc.(l) /. capacities.(l) >= params.congest_threshold in
  (* Spare capacity seen by the greedy controllers, updated as flows are
     (re)assigned within the epoch so moves do not stampede.  Only
     [switch_to] writes it; [planned_links] lists the links it wrote
     since the epoch began, which are all the next epoch resets. *)
  let planned = Array.make nlinks 0. in
  let planned_links = ref (Array.make 64 0) in
  let nplanned = ref 0 in
  let spare l = capacities.(l) -. !alloc.(l) -. planned.(l) in
  let path_drained links =
    let drained = ref true and i = ref 0 in
    while !drained && !i < Array.length links do
      let l = links.(!i) in
      if
        not
          ((not (dead l))
          && (!alloc.(l) /. capacities.(l)) +. (planned.(l) /. capacities.(l))
             <= params.clear_threshold)
      then drained := false;
      incr i
    done;
    !drained
  in
  (* [path_has_dup]: an AS seen twice, by an epoch stamp per AS *)
  let seen = Array.make n 0 in
  let seen_epoch = ref 0 in
  let path_has_dup path =
    incr seen_epoch;
    let stamp = !seen_epoch in
    let dup = ref false and i = ref 0 in
    while (not !dup) && !i < Array.length path do
      let v = path.(!i) in
      if seen.(v) = stamp then dup := true else seen.(v) <- stamp;
      incr i
    done;
    !dup
  in
  let switch_to k path =
    let f = flows.(k) in
    f.path <- path;
    f.links <- (if path == f.default_path then f.default_links else path_links g off path);
    if f.slot >= 0 then begin
      Maxmin.Solver.set_links sv f.slot (Maxmin.dedup_links f.links);
      dirty := true
    end;
    f.switches <- f.switches + 1;
    Obs.incr c_switches;
    let is_default = same_path path f.default_path in
    f.on_default <- is_default;
    if is_default then Obs.incr c_resumed else f.used_alt <- true;
    if Obs.trace_enabled () then
      Obs.event ~t:clock.v "flow_switch"
        [
          ("flow", Obs.Int f.idx);
          ("on_default", Obs.Bool is_default);
          ("path_len", Obs.Int (Array.length path));
        ];
    let links = f.links in
    let len = Array.length links in
    if !nplanned + len > Array.length !planned_links then begin
      let grown = Array.make (2 * (!nplanned + len)) 0 in
      Array.blit !planned_links 0 grown 0 !nplanned;
      planned_links := grown
    end;
    let r = rate.(k) in
    for i = 0 to len - 1 do
      let l = links.(i) in
      planned.(l) <- planned.(l) +. r;
      !planned_links.(!nplanned + i) <- l
    done;
    nplanned := !nplanned + len
  in
  (* The greedy rule's local measurement, for the hop [sel_u] ->
     [sel_next] being deflected from: the spare capacity toward a RIB
     neighbour, counted only when it beats [sel_floor] (the flow's rate
     plus the improvement margin).  One closure per run; the cells are
     set before each selection. *)
  let sel_u = ref 0 and sel_next = ref 0 and sel_floor = { v = 0. } in
  let local_spare nb =
    if nb = !sel_next then 0.
    else begin
      let l' = link !sel_u nb in
      if dead l' then 0.
      else begin
        let s = spare l' in
        if s > sel_floor.v then s else 0.
      end
    end
  in
  let upstream_at path i =
    if i = 0 then None
    else
      match As_graph.rel_exn g path.(i) path.(i - 1) with
      | Relationship.Customer -> upstream_customer
      | Relationship.Provider -> upstream_provider
      | Relationship.Peer -> upstream_peer
  in
  let adapt_mifo deployment k =
    let f = flows.(k) in
    if (not f.on_default) && path_drained f.default_links then
      (* hysteresis satisfied: resume the default path *)
      switch_to k f.default_path
    else begin
      (* Hop-by-hop deflection, wherever the flow currently runs: the
         first congested egress whose AS is MIFO-capable moves the flow
         onto the RIB alternative with the most spare local capacity
         (subject to the valley-free deflection rule).  One deflection
         per flow per epoch. *)
      let path = f.path and links = f.links and rt = f.rt in
      let last = Array.length path - 1 in
      let i = ref 0 in
      while !i < last do
        let u = path.(!i) in
        let hop = !i in
        incr i;
        if congested links.(hop) && Deployment.capable deployment u then begin
          let upstream = upstream_at path hop in
          sel_u := u;
          sel_next := path.(hop + 1);
          sel_floor.v <- rate.(k) *. (1. +. params.improve_margin);
          let j =
            match params.alt_selection with
            | Greedy_local ->
              Alt_select.best_alternative rt ~src_as:u ~upstream ~spare:local_spare
            | Oracle_bottleneck ->
              (* Ablation: score by the true end-to-end bottleneck spare
                 of the spliced path - information no border router has
                 at line speed; quantifies what the greedy local rule
                 gives up. *)
              Alt_select.best_by rt ~src_as:u ~upstream ~score:(fun j ->
                  let via = Routing.rib_via rt u j in
                  if local_spare via <= 0. then 0.
                  else begin
                    let p = follow_default n rt path (hop + 1) via in
                    if path_has_dup p then 0.
                    else
                      Array.fold_left
                        (fun acc l -> Float.min acc (spare l))
                        infinity (path_links g off p)
                  end)
          in
          if j >= 0 then begin
            let p = follow_default n rt path (hop + 1) (Routing.rib_via rt u j) in
            if not (path_has_dup p) then begin
              switch_to k p;
              i := last
            end
          end
        end
      done
    end
  in
  (* MIRO is a control-plane mechanism: route changes propagate through
     negotiation, so its reaction is throttled to [miro_reaction] seconds
     (MIFO reacts every data-plane epoch - the asymmetry the paper's
     introduction is built on). *)
  let miro_window = ref (-1) in
  let miro_may_act = ref false in
  let adapt_miro deployment config k =
    let f = flows.(k) in
    let src = f.spec.src in
    if !miro_may_act && Deployment.capable deployment src then begin
      if f.on_default && Array.exists congested f.links then begin
        let candidates = Mifo_miro.Miro.candidates ~config f.rt ~deployment ~src in
        begin
          (* Candidates are scored by the spare capacity of the source's
             own link to the tunnel entry — the same local measurement
             MIFO uses; neither protocol can probe end-to-end available
             bandwidth at line speed (Section III-C). *)
          let score (e : Routing.rib_entry) =
            let path = follow_default n f.rt f.path 1 e.via in
            if path_has_dup path then None else Some (path, spare (link src e.via))
          in
          let best =
            List.fold_left
              (fun acc e ->
                match score e with
                | None -> acc
                | Some (path, s) -> (
                  match acc with
                  | Some (_, bs) when bs >= s -> acc
                  | _ -> Some (path, s)))
              None candidates
          in
          match best with
          | Some (path, s) when s > rate.(k) *. (1. +. params.improve_margin) ->
            switch_to k path
          | Some _ | None -> ()
        end
      end
      else if (not f.on_default) && path_drained f.default_links then
        switch_to k f.default_path
    end
  in
  let adapt =
    match protocol with
    | Bgp -> fun _ -> ()
    | Mifo deployment -> adapt_mifo deployment
    | Miro { deployment; cap } -> adapt_miro deployment { Mifo_miro.Miro.cap }
  in
  (* [may_act k] holds for every flow whose [adapt] can change something
     this epoch (a superset is fine, a miss is not).  It reads [congested]
     (the previous solve's allocation, never [planned]) and the flow's own
     path, which only its own [adapt] rewrites, so the answer does not
     depend on which flows adapted before it. *)
  let may_act =
    match protocol with
    | Bgp -> fun _ -> false
    | Mifo deployment ->
      fun k ->
        let f = flows.(k) in
        (not f.on_default)
        ||
        let links = f.links and path = f.path in
        let hit = ref false and i = ref 0 in
        while (not !hit) && !i < Array.length links do
          hit := congested links.(!i) && Deployment.capable deployment path.(!i);
          incr i
        done;
        !hit
    | Miro { deployment; _ } ->
      fun k ->
        let f = flows.(k) in
        !miro_may_act
        && Deployment.capable deployment f.spec.src
        && ((not f.on_default) || Array.exists congested f.links)
  in
  let epochs = ref 0 in
  let completed = ref 0 in
  let last_sample = ref neg_infinity in
  (* per-epoch scratch (adaptation order, solver slots and their
     rates), sized for every flow at once, so the epoch loop allocates
     nothing *)
  let adapt_order = Array.make total 0 in
  let slots = Array.make total 0 in
  let slot_rates = Array.make total 0. in
  let window_len = Float.max params.dt params.miro_reaction in
  (* jump to the first arrival *)
  if total > 0 then clock.v <- flows.(0).spec.start;
  while !completed < total && clock.v <= params.max_time do
    incr epochs;
    Obs.incr c_epochs;
    apply_due_failures ();
    (* arrivals *)
    while !next_arrival < total && flows.(!next_arrival).spec.start <= clock.v +. 1e-12 do
      let f = flows.(!next_arrival) in
      active.(!nactive) <- !next_arrival;
      incr nactive;
      f.slot <- Maxmin.Solver.register sv (Maxmin.dedup_links f.links);
      dirty := true;
      incr next_arrival
    done;
    (* adaptation against last epoch's utilization, most-starved flows
       first: the flows with the least bandwidth get first pick of the
       spare capacity, so deflections relieve hotspots instead of
       cannibalizing healthy flows *)
    for i = 0 to !nplanned - 1 do
      planned.(!planned_links.(i)) <- 0.
    done;
    nplanned := 0;
    let window = int_of_float (clock.v /. window_len) in
    miro_may_act := window <> !miro_window;
    if !miro_may_act then miro_window := window;
    let na = !nactive in
    if !epochs > 1 && na > 0 then begin
      (* Only the flows that can act are sorted and adapted; (rate, idx)
         is a total order, so they keep the relative order they had in
         the sort of every active flow. *)
      let m = ref 0 in
      for i = 0 to na - 1 do
        let k = active.(i) in
        if may_act k then begin
          adapt_order.(!m) <- k;
          incr m
        end
      done;
      sort_by_rate rate flows adapt_order !m;
      for i = 0 to !m - 1 do
        adapt adapt_order.(i)
      done
    end;
    (* allocation; a clean epoch (see [dirty]) keeps the last solve *)
    let na = !nactive in
    if !dirty then begin
      for i = 0 to na - 1 do
        slots.(i) <- flows.(active.(i)).slot
      done;
      Maxmin.Solver.solve sv slots na;
      dirty := false;
      incr solves;
      Obs.incr c_solves;
      Maxmin.Solver.rates_into sv slots na slot_rates;
      for i = 0 to na - 1 do
        rate.(active.(i)) <- slot_rates.(i)
      done;
      alloc := Maxmin.Solver.link_allocs sv
    end
    else Obs.incr c_skipped;
    (* progress *)
    let now = clock.v in
    let aggregate = ref 0. in
    for i = 0 to na - 1 do
      aggregate := !aggregate +. rate.(active.(i))
    done;
    if now -. !last_sample >= params.series_interval -. 1e-12 then begin
      Mifo_util.Vec.push series (now, !aggregate);
      (* Snap the sampling cursor to the interval grid instead of the
         epoch timestamp: epochs land a hair after the grid point, and
         anchoring at the epoch time accumulates that quantization error
         into a phase drift that eventually skips a sample. *)
      if !last_sample = neg_infinity then last_sample := now
      else begin
        last_sample := !last_sample +. params.series_interval;
        while now -. !last_sample >= params.series_interval -. 1e-12 do
          last_sample := !last_sample +. params.series_interval
        done
      end
    end;
    for i = 0 to na - 1 do
      let k = active.(i) in
      let f = flows.(k) in
      let r = rate.(k) in
      let transferred = r *. params.dt in
      if not f.on_default then alt_time.(k) <- alt_time.(k) +. params.dt;
      if transferred >= remaining.(k) && r > 0. then begin
        finish_at.(k) <- now +. (remaining.(k) /. r);
        remaining.(k) <- 0.;
        f.completed <- true;
        incr completed;
        Obs.incr c_completed
      end
      else remaining.(k) <- remaining.(k) -. transferred
    done;
    (* drop completed flows from the active set (swap-removal) *)
    let i = ref 0 in
    while !i < !nactive do
      let f = flows.(active.(!i)) in
      if f.completed then begin
        decr nactive;
        active.(!i) <- active.(!nactive);
        Maxmin.Solver.unregister sv f.slot;
        f.slot <- -1;
        dirty := true
      end
      else incr i
    done;
    (* advance: skip idle gaps straight to the next arrival *)
    clock.v <- clock.v +. params.dt;
    if !nactive = 0 && !next_arrival < total then begin
      let start = flows.(!next_arrival).spec.start in
      if start > clock.v then clock.v <- start
    end
  done;
  let sim_end = clock.v in
  let stats =
    Array.mapi
      (fun k f ->
        let finish = if f.completed then finish_at.(k) else sim_end in
        let duration = Float.max params.dt (finish -. f.spec.start) in
        let transferred = f.spec.size_bits -. remaining.(k) in
        {
          spec = f.spec;
          throughput = transferred /. duration;
          finish;
          completed = f.completed;
          switches = f.switches;
          used_alt = f.used_alt;
          alt_time = alt_time.(k);
          final_path = f.path;
          final_rate = rate.(k);
        })
      flows
  in
  let offload =
    if total = 0 then 0.
    else begin
      let used =
        Array.fold_left
          (fun acc (s : flow_stats) -> if s.used_alt then acc + 1 else acc)
          0 stats
      in
      float_of_int used /. float_of_int total
    end
  in
  {
    flows = stats;
    offload_fraction = offload;
    series = Mifo_util.Vec.to_array series;
    epochs = !epochs;
    solves = !solves;
    sim_end;
  }

let throughputs result = Array.map (fun s -> s.throughput) result.flows
