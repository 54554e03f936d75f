module Packetsim = Mifo_netsim.Packetsim
module Engine = Mifo_core.Engine
module Policy = Mifo_core.Policy
module Fib = Mifo_core.Fib
module Prefix = Mifo_bgp.Prefix
module Routing = Mifo_bgp.Routing

(* ---------- FIB / RIB consistency ---------- *)

(* A port's role in its entry: slot [-1] is the default port, [i >= 0]
   the [i]-th ranked alternative.  Like the prefix string, it is built
   only when a violation is reported. *)
let role slot = if slot < 0 then "default" else Printf.sprintf "alt[%d]" slot

(* Whether router AS [v]'s RIB holds a route via [via], scanning cells
   [i] down to 0. *)
let rec rib_has_via rt v via i =
  i >= 0 && (Routing.rib_via rt v i = via || rib_has_via rt v via (i - 1))

let audit_fibs sim ~routing =
  let violations = ref [] in
  let checked = ref 0 in
  (* The router under audit, its AS and FIB, and the entry being
     checked sit in cells, so one [check_port] and one [Fib.iter]
     callback serve every router. *)
  let cur_id = ref 0 and cur_as = ref 0 and cur_fib = ref (Fib.create ()) and cur = ref 0 in
  let dangling slot port reason =
    violations :=
      Report.Dangling_fib_port
        {
          node = !cur_id;
          prefix = Prefix.to_string (Fib.prefix !cur_fib !cur);
          port;
          reason = role slot ^ reason;
        }
      :: !violations
  in
  (* The routed destinations' prefixes as int keys, in [routing] order:
     an eBGP port's prefix takes the first destination whose
     [Prefix.of_as] it equals, or none (-1). *)
  let dests = Array.of_list routing in
  let dest_keys = Array.map (fun (d, _) -> Fib.key_of_prefix (Prefix.of_as d)) dests in
  let dest_index key =
    let i = ref 0 in
    while !i < Array.length dests && dest_keys.(!i) <> key do
      incr i
    done;
    if !i < Array.length dests then !i else -1
  in
  let check_port slot port =
    let id = !cur_id and as_id = !cur_as in
    if port < 0 || port >= Packetsim.port_count sim id then dangling slot port " port out of range"
    else begin
      let peer = Packetsim.port_peer_node sim id port in
      match Packetsim.port_kind sim id port with
      | Engine.Local ->
        if Packetsim.is_router sim peer then dangling slot port " local port wired to a router"
        else if
          (* boxes the prefix, but only a destination's own routers
             have a Local port *)
          not (Prefix.contains (Fib.prefix !cur_fib !cur) (Packetsim.host_addr sim peer))
        then dangling slot port " local port's host lies outside the prefix"
      | Engine.Ebgp { neighbor_as; _ } ->
        if not (Packetsim.is_router sim peer) then dangling slot port " eBGP port wired to a host"
        else if Packetsim.router_as sim peer <> neighbor_as then
          dangling slot port " eBGP port's peer AS mismatches the wiring";
        let i = dest_index (Fib.prefix_key !cur_fib !cur) in
        if i >= 0 then begin
          let d, rt = dests.(i) in
          if as_id <> d && not (rib_has_via rt as_id neighbor_as (Routing.rib_size rt as_id - 1))
          then
            dangling slot port
              (Printf.sprintf " eBGP port not backed by a RIB route via AS %d" neighbor_as)
        end
      | Engine.Ibgp { peer_router } ->
        if peer <> peer_router then dangling slot port " iBGP port wired to a different router"
        else if not (Packetsim.is_router sim peer) then
          dangling slot port " iBGP port wired to a host"
        else begin
          if Packetsim.router_as sim peer <> as_id then
            dangling slot port " iBGP session crosses an AS boundary";
          if Packetsim.ibgp_route sim id peer_router < 0 then
            dangling slot port " tunnel endpoint is not an iBGP peer";
          (* the prefix's network address: its key is [prefix_key / 64] *)
          if Fib.lpm (Packetsim.fib sim peer) (Fib.prefix_key !cur_fib !cur lsr 6) < 0 then
            dangling slot port " tunnel endpoint has no route for the prefix"
        end
    end
  in
  let check_entry entry =
    incr checked;
    cur := entry;
    let fib = !cur_fib in
    check_port (-1) (Fib.out_port fib entry);
    for slot = 0 to Fib.alt_count fib entry - 1 do
      check_port slot (Fib.alt_at fib entry slot)
    done
  in
  for id = 0 to Packetsim.node_count sim - 1 do
    if Packetsim.is_router sim id then begin
      cur_id := id;
      cur_as := Packetsim.router_as sim id;
      cur_fib := Packetsim.fib sim id;
      Fib.iter !cur_fib check_entry
    end
  done;
  (List.rev !violations, !checked)

(* ---------- the router-level product automaton ---------- *)

(* A packet's context beyond its position and tag: [Plain] with the
   iBGP peer that just deflected it here (set only on the decap hop),
   or inside an IP-in-IP tunnel toward [ep]. *)
type ctx = Plain of { sender : int option } | Tunnel of { src : int; ep : int }
type state = { node : int; tag : bool; c : ctx }

let find_loops sim ~routing =
  let cfg = Packetsim.config sim in
  let tag_check = cfg.Packetsim.tag_check in
  let ibgp_encap = cfg.Packetsim.ibgp_encap in
  let violations = ref [] in
  let explored = ref 0 in
  (* violation records as keys — a dedup set, not a data plane *)
  let emitted = Hashtbl.create 16 in (* lint:allow: dedup set *)
  let add v =
    if not (Hashtbl.mem emitted v) (* lint:allow: dedup set *) then begin
      Hashtbl.replace emitted v () (* lint:allow: dedup set *);
      violations := v :: !violations
    end
  in
  List.iter
    (fun (d, _rt) ->
      let prefix = Prefix.of_as d in
      let pstr = Prefix.to_string prefix in
      let key = Fib.key_of_addr (Prefix.host_of_as d 1) in
      (* Cross the wire out of [m] on [p]: terminal at a host, else the
         arrival state after the entering point's (re)tagging. *)
      let arrive m tag c p =
        let peer, peer_port = Packetsim.port_peer sim m p in
        match Packetsim.node_view sim peer with
        | Packetsim.Host_view _ -> None
        | Packetsim.Router_view _ ->
          let tag' =
            match Packetsim.port_kind sim peer peer_port with
            | Engine.Ebgp { rel; _ } -> Policy.tag_of_upstream rel
            | Engine.Local -> Policy.source_tag
            | Engine.Ibgp _ -> tag
          in
          Some { node = peer; tag = tag'; c }
      in
      (* Every forwarding decision the engine could take from this
         state, under SOME congestion pattern and hash bucket: a present
         alternative is always reachable (a congested egress forces at
         least one deflected bucket), the default is unavailable only
         when the deflecting sender is the default next hop. *)
      let succs st =
        let m = st.node in
        let c =
          match st.c with
          | Tunnel { src; ep } when ep = m -> Plain { sender = Some src }
          | other -> other
        in
        match c with
        | Tunnel { src = _; ep } -> (
          (* in-transit tunnel: routed on the outer header, no deflection *)
          let out =
            match Packetsim.ibgp_route sim m ep with
            | -1 -> (
              let fib = Packetsim.fib sim m in
              match Fib.lpm fib key with
              | -1 ->
                add (Report.Unreachable { dest = d; node = m });
                None
              | hit -> Some (Fib.out_port fib hit))
            | p -> Some p
          in
          match out with
          | None -> []
          | Some p -> (
            match Packetsim.port_kind sim m p with
            | Engine.Ebgp _ ->
              add
                (Report.Ebgp_tunnel_egress
                   { node = m; endpoint = ep; port = p; prefix = pstr });
              []
            | Engine.Ibgp _ | Engine.Local -> Option.to_list (arrive m st.tag c p)))
        | Plain { sender } -> (
          let fib = Packetsim.fib sim m in
          match Fib.lpm fib key with
          | -1 ->
            add (Report.Unreachable { dest = d; node = m });
            []
          | hit -> (
            let out_port = Fib.out_port fib hit in
            match Packetsim.port_kind sim m out_port with
            | Engine.Local -> []  (* delivered to the attached host *)
            | Engine.Ebgp _ | Engine.Ibgp _ ->
              let deflected_to_me =
                match sender with
                | None -> false
                | Some s ->
                  let peer, _ = Packetsim.port_peer sim m out_port in
                  peer = s
              in
              let default_edge =
                arrive m st.tag (Plain { sender = None }) out_port
              in
              let alt_edges =
                (* One edge per ranked slot — the bucket→slot spread can
                   place a deflected packet onto any live alternative.
                   As in the AS-level automaton, the state does not
                   record the entering slot: it does not constrain later
                   moves (slot-distinct multi-edges between the same
                   states change nothing for cycle detection). *)
                let rec slot_edges i acc =
                  if i < 0 then acc
                  else begin
                    let a = Fib.alt_at fib hit i in
                    let acc =
                      match Packetsim.port_kind sim m a with
                      | Engine.Ibgp { peer_router } ->
                        (if ibgp_encap then
                           arrive m st.tag (Tunnel { src = m; ep = peer_router }) a
                         else arrive m st.tag (Plain { sender = None }) a)
                        :: acc
                      | Engine.Ebgp { rel; _ } ->
                        if (not tag_check) || Policy.check ~tag:st.tag ~downstream:rel
                        then arrive m st.tag (Plain { sender = None }) a :: acc
                        else acc
                        (* failed check: dropped when forced, default otherwise *)
                      | Engine.Local -> default_edge :: acc
                    in
                    slot_edges (i - 1) acc
                  end
                in
                slot_edges (Fib.alt_count fib hit - 1) []
              in
              let forced = deflected_to_me && Fib.alt_count fib hit > 0 in
              List.filter_map Fun.id
                (if forced then alt_edges else default_edge :: alt_edges)))
      in
      (* DFS with a gray path for cycle extraction. *)
      (* keys are structured (node, tag, tunnel-ctx) states with no dense
         int encoding — a flat array cannot index them *)
      let color = Hashtbl.create 256 in (* lint:allow: structured state keys *)
      let pos = Hashtbl.create 256 in (* lint:allow: structured state keys *)
      let path = ref [] (* (state, remaining succs), top first *) in
      let depth = ref 0 in
      let found = ref false in
      let push st =
        Hashtbl.replace color st 1 (* lint:allow: structured state keys *);
        Hashtbl.replace pos st !depth (* lint:allow: structured state keys *);
        incr depth;
        incr explored;
        path := (st, ref (succs st)) :: !path
      in
      let pop () =
        match !path with
        | [] -> ()
        | (st, _) :: rest ->
          Hashtbl.replace color st 2 (* lint:allow: structured state keys *);
          Hashtbl.remove pos st (* lint:allow: structured state keys *);
          decr depth;
          path := rest
      in
      let extract target_pos closing =
        let nodes =
          Array.of_list (List.rev_map (fun (st, _) -> st.node) !path)
        in
        let entry = Array.to_list (Array.sub nodes 0 target_pos) in
        let cycle =
          Array.to_list (Array.sub nodes target_pos (Array.length nodes - target_pos))
          @ [ closing.node ]
        in
        add (Report.Forwarding_loop { dest = d; level = Report.Router_level; entry; cycle })
      in
      let rec dfs () =
        if not !found then
          match !path with
          | [] -> ()
          | (_, rest) :: _ ->
            (match !rest with
            | [] -> pop ()
            | st :: more ->
              rest := more;
              (match Hashtbl.find_opt color st (* lint:allow: structured keys *) with
              | Some 1 ->
                found := true;
                extract (Hashtbl.find pos st (* lint:allow: structured keys *)) st
              | Some _ -> ()
              | None -> push st));
            dfs ()
      in
      (* Roots: a fresh packet from any attached host enters its access
         router through a Local port, so it carries the source tag. *)
      for h = 0 to Packetsim.node_count sim - 1 do
        match Packetsim.node_view sim h with
        | Packetsim.Router_view _ -> ()
        | Packetsim.Host_view _ ->
          if Packetsim.port_count sim h > 0 && not !found then begin
            let rtr, _ = Packetsim.port_peer sim h 0 in
            match Packetsim.node_view sim rtr with
            | Packetsim.Host_view _ -> ()
            | Packetsim.Router_view _ ->
              let st =
                { node = rtr; tag = Policy.source_tag; c = Plain { sender = None } }
              in
              if not (Hashtbl.mem color st) (* lint:allow: structured keys *) then begin
                push st;
                dfs ()
              end
          end
      done)
    routing;
  (List.rev !violations, !explored)
