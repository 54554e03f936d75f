(* The FIB audit as first written: every check formats its role and
   prefix strings up front and finds the destination of an eBGP port's
   prefix with a [List.find_opt] over [routing].  The QCheck gate in
   [test_analysis] holds [Mifo_analysis.Net_check.audit_fibs] to it. *)

module Packetsim = Mifo_netsim.Packetsim
module Engine = Mifo_core.Engine
module Fib = Mifo_core.Fib
module Prefix = Mifo_bgp.Prefix
module Routing = Mifo_bgp.Routing
module Report = Mifo_analysis.Report

let audit_fibs sim ~routing =
  let violations = ref [] in
  let checked = ref 0 in
  let add v = violations := v :: !violations in
  let dest_of_prefix p =
    List.find_opt (fun (d, _) -> Prefix.equal (Prefix.of_as d) p) routing
  in
  for id = 0 to Packetsim.node_count sim - 1 do
    match Packetsim.node_view sim id with
    | Packetsim.Host_view _ -> ()
    | Packetsim.Router_view { as_id } ->
      let fib = Packetsim.fib sim id in
      Fib.iter fib (fun entry ->
          incr checked;
          let prefix = Fib.prefix fib entry in
          let pstr = Prefix.to_string prefix in
          let dangling port reason =
            add (Report.Dangling_fib_port { node = id; prefix = pstr; port; reason })
          in
          let check_port ~role port =
            if port < 0 || port >= Packetsim.port_count sim id then
              dangling port (role ^ " port out of range")
            else begin
              let peer, _ = Packetsim.port_peer sim id port in
              match Packetsim.port_kind sim id port with
              | Engine.Local -> (
                match Packetsim.node_view sim peer with
                | Packetsim.Host_view { addr } ->
                  if not (Prefix.contains prefix addr) then
                    dangling port (role ^ " local port's host lies outside the prefix")
                | Packetsim.Router_view _ ->
                  dangling port (role ^ " local port wired to a router"))
              | Engine.Ebgp { neighbor_as; _ } -> (
                (match Packetsim.node_view sim peer with
                 | Packetsim.Router_view { as_id = peer_as } ->
                   if peer_as <> neighbor_as then
                     dangling port (role ^ " eBGP port's peer AS mismatches the wiring")
                 | Packetsim.Host_view _ ->
                   dangling port (role ^ " eBGP port wired to a host"));
                match dest_of_prefix prefix with
                | None -> ()
                | Some (d, rt) ->
                  let rec backed i =
                    i >= 0 && (Routing.rib_via rt as_id i = neighbor_as || backed (i - 1))
                  in
                  if as_id <> d && not (backed (Routing.rib_size rt as_id - 1)) then
                    dangling port
                      (Printf.sprintf "%s eBGP port not backed by a RIB route via AS %d"
                         role neighbor_as))
              | Engine.Ibgp { peer_router } ->
                if peer <> peer_router then
                  dangling port (role ^ " iBGP port wired to a different router")
                else begin
                  (match Packetsim.node_view sim peer with
                   | Packetsim.Router_view { as_id = peer_as } ->
                     if peer_as <> as_id then
                       dangling port (role ^ " iBGP session crosses an AS boundary");
                     if Packetsim.ibgp_route sim id peer_router < 0 then
                       dangling port (role ^ " tunnel endpoint is not an iBGP peer");
                     if
                       Fib.lpm (Packetsim.fib sim peer) (Fib.key_of_addr prefix.Prefix.network)
                       < 0
                     then
                       dangling port
                         (role ^ " tunnel endpoint has no route for the prefix")
                   | Packetsim.Host_view _ ->
                     dangling port (role ^ " iBGP port wired to a host"))
                end
            end
          in
          check_port ~role:"default" (Fib.out_port fib entry);
          for slot = 0 to Fib.alt_count fib entry - 1 do
            check_port ~role:(Printf.sprintf "alt[%d]" slot) (Fib.alt_at fib entry slot)
          done)
  done;
  (List.rev !violations, !checked)
