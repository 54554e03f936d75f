module As_graph = Mifo_topology.As_graph
module Routing = Mifo_bgp.Routing
module Prefix = Mifo_bgp.Prefix

type decision = Default | Deflect of int
type drop_reason = Valley | No_route | Dead_end | Link_down

type outcome =
  | Delivered of int list
  | Dropped of { path : int list; at : int; reason : drop_reason }
  | Looped of { path : int list; cycle : int list }

(* The repeating segment of [path]: everything from the first visit of
   the revisited state (at hop index [i]) to the current hop, so the
   cycle's head and last element are the same AS. *)
let cycle_of_path path i =
  List.filteri (fun j _ -> j >= i) path

(* The replay router of AS [v]: port [i] is [v]'s [i]-th neighbour over
   an eBGP session, nothing is congested and there is no iBGP. *)
let env_of g fib v =
  let nbrs = As_graph.neighbors g v in
  {
    Engine.router_id = v;
    fib;
    port_kind =
      (fun i -> Engine.Ebgp { neighbor_as = nbrs.(i); rel = As_graph.rel_exn g v nbrs.(i) });
    is_congested = (fun _ -> false);
    next_hop_router = (fun _ -> -1);
    route_to_peer = (fun _ -> -1);
  }

let walk ?(tag_check = true) ?link_up ?max_hops g rt ~decide ~src =
  let dest = Routing.dest rt in
  let n = As_graph.n g in
  let max_hops = match max_hops with Some m -> m | None -> (2 * n) + 4 in
  let link_up u v = match link_up with None -> true | Some f -> f u v in
  (* One FIB entry toward [dest], rewritten at every hop: the default
     route as [out_port] and, for a deflection, the chosen neighbour as
     a one-slot ranked set with every bucket deflected.  The hop's
     egress is whatever the production engine then decides. *)
  let prefix = Prefix.of_as dest in
  let fib = Fib.create () in
  Fib.insert fib prefix ~out_port:0 ();
  let entry = Fib.find fib prefix in
  let h = Engine.header () in
  h.Engine.dst <- Fib.key_of_addr prefix.Prefix.network;
  h.Engine.ttl <- max_int;
  let seen = Hashtbl.create 64 in (* lint:allow replay-only cold path *)
  (* state: current AS, the AS we came from (None at the source), the
     reversed path so far *)
  let rec step v upstream rev_path hops =
    let rev_path = v :: rev_path in
    let drop reason = Dropped { path = List.rev rev_path; at = v; reason } in
    if v = dest then Delivered (List.rev rev_path)
    else if hops > max_hops then
      (* hop budget blown without revisiting a state: no concrete cycle
         to report (the walk wandered too long), only the path prefix *)
      Looped { path = List.rev rev_path; cycle = [] }
    else begin
      let state = (v, upstream) in
      match Hashtbl.find_opt seen state with (* lint:allow replay-only cold path *)
      | Some first_visit ->
        let path = List.rev rev_path in
        Looped { path; cycle = cycle_of_path path first_visit }
      | None -> (
        Hashtbl.add seen state hops; (* lint:allow replay-only cold path *)
        let entries = Routing.rib rt v in
        (* the default route, or the locally repaired one when its link
           is down *)
        let default = Alt_select.local_repair rt v ~link_up:(link_up v) in
        let port nb = As_graph.neighbor_index g v nb in
        let hop ~alt =
          let out_port = port (Routing.rib_via rt v default) in
          (* an insert without [alt_port] clears the ranked set *)
          Fib.insert fib prefix ~out_port ?alt_port:(if alt < 0 then None else Some alt) ();
          if alt >= 0 then Fib.set_deflect_buckets fib entry Fib.buckets;
          let ingress = match upstream with None -> -1 | Some u -> port u in
          match Engine.decide ~tag_check ~ibgp_encap:true (env_of g fib v) ~ingress h with
          | Engine.Forward when alt >= 0 && h.Engine.port = h.Engine.default_port ->
            (* the engine's Tag-Check refused the deflection and fell
               back to the default port *)
            drop Valley
          | Engine.Forward ->
            step (As_graph.neighbors g v).(h.Engine.port) (Some v) rev_path (hops + 1)
          | Engine.Drop_valley -> drop Valley
          | Engine.Drop_no_route | Engine.Drop_ttl -> drop No_route
        in
        match entries with
        | [] -> drop Dead_end
        | _ -> (
          match decide ~as_id:v ~upstream ~entries with
          | Default -> if default < 0 then drop Link_down else hop ~alt:(-1)
          | Deflect nb ->
            if not (List.exists (fun (e : Routing.rib_entry) -> e.via = nb) entries) then
              drop No_route
            else if not (link_up v nb) then drop Link_down
            else if nb = Routing.rib_via rt v default then
              (* deflecting onto the (repaired) default route is the
                 default hop *)
              hop ~alt:(-1)
            else hop ~alt:(port nb)))
    end
  in
  step src None [] 0

let congestion_strategy ~congested ~spare ~as_id ~upstream ~entries =
  match entries with
  | [] -> Default
  | (default : Routing.rib_entry) :: alternatives ->
    if not (congested as_id default.via) then Default
    else begin
      (* greedy: the permitted alternative with the most spare capacity on
         its direct link; stay on the default when nothing qualifies *)
      (* The strategy itself does not apply the valley-free rule — the
         engine's Tag-Check (or its absence, in the ablation) is
         authoritative, mirroring the engine/daemon split. *)
      ignore upstream;
      let permitted (e : Routing.rib_entry) = spare as_id e.via > 0. in
      match List.filter permitted alternatives with
      | [] -> Default
      | candidates ->
        let best =
          List.fold_left
            (fun acc (e : Routing.rib_entry) ->
              match acc with
              | None -> Some e
              | Some b ->
                let se = spare as_id e.via and sb = spare as_id b.via in
                if se > sb || (se = sb && e.via < b.via) then Some e else Some b)
            None candidates
        in
        (match best with Some e -> Deflect e.via | None -> Default)
    end
