module Obs = Mifo_util.Obs

type port_kind =
  | Ebgp of { neighbor_as : int; rel : Mifo_topology.Relationship.t }
  | Ibgp of { peer_router : int }
  | Local

type env = {
  router_id : int;
  fib : Fib.t;
  port_kind : int -> port_kind;
  is_congested : int -> bool;
  next_hop_router : int -> int;
  route_to_peer : int -> int;
}

type drop_reason = No_route | Valley_violation | Ttl_expired

type action =
  | Send of { port : int; packet : Packet.t; default_port : int }
  | Drop of { packet : Packet.t; reason : drop_reason }

let drop_reason_to_string = function
  | No_route -> "no-route"
  | Valley_violation -> "valley-violation"
  | Ttl_expired -> "ttl-expired"

(* Metric handles are resolved once at module initialisation; the hot
   path only touches atomics. *)
let c_drop_no_route = Obs.counter "engine.drop.no_route"
let c_drop_valley = Obs.counter "engine.drop.valley_violation"
let c_drop_ttl = Obs.counter "engine.drop.ttl_expired"
let c_decap = Obs.counter "engine.decap"
let c_encap = Obs.counter "engine.encap"
let c_deflect_ibgp = Obs.counter "engine.deflect.ibgp"
let c_deflect_ebgp = Obs.counter "engine.deflect.ebgp"
let c_deflect_sender = Obs.counter "engine.deflect.from_sender"
let c_tag_fallback = Obs.counter "engine.tag_check.fallback"
let c_transit_routed = Obs.counter "engine.transit.routed"
let c_transit_fib = Obs.counter "engine.transit.fib_fallback"

type hdr = {
  mutable dst : int;
  mutable flow : int;
  mutable ttl : int;
  mutable tag : bool;
  mutable outer_src : int;
  mutable outer_dst : int;
  mutable port : int;
  mutable default_port : int;
}

type verdict = Forward | Drop_no_route | Drop_valley | Drop_ttl

let header () =
  {
    dst = 0;
    flow = 0;
    ttl = 0;
    tag = false;
    outer_src = -1;
    outer_dst = -1;
    port = -1;
    default_port = -1;
  }

let load h (p : Packet.t) =
  h.dst <- Fib.key_of_addr p.Packet.dst;
  h.flow <- p.Packet.flow;
  h.ttl <- p.Packet.ttl;
  h.tag <- p.Packet.vf_tag;
  (match p.Packet.encap with
   | Some e ->
     h.outer_src <- e.Packet.outer_src;
     h.outer_dst <- e.Packet.outer_dst
   | None ->
     h.outer_src <- -1;
     h.outer_dst <- -1);
  h.port <- -1;
  h.default_port <- -1

(* Trace events are built only behind [Obs.trace_enabled]: every call
   site tests it first, so the field list is never allocated when
   nothing is traced. *)
let ev name env h fields =
  Obs.event name (("router", Obs.Int env.router_id) :: ("flow", Obs.Int h.flow) :: fields)

let send h ~port ~default_port =
  h.port <- port;
  h.default_port <- default_port;
  Forward

let decide ~tag_check ~ibgp_encap env ~ingress h =
  if h.ttl <= 1 then begin
    Obs.incr c_drop_ttl;
    Drop_ttl
  end
  else begin
    (* Lines 5-10: the (re)tag for the packet entering point.  A
       host-facing [Local] port is the source AS's entering point, so it
       tags with the source tag exactly like no-ingress — a packet
       from our own customer cone may take any first deflection.  Only
       iBGP ingress keeps the tag: the packet already entered this AS
       elsewhere. *)
    let tag =
      if ingress < 0 then Policy.source_tag
      else
        match env.port_kind ingress with
        | Ebgp { rel; _ } -> Policy.tag_of_upstream rel
        | Local -> Policy.source_tag
        | Ibgp _ -> h.tag
    in
    (* Lines 1-3: [sender] is the router that tunneled the packet to us,
       [-1] when it did not arrive through a terminating tunnel. *)
    let sender =
      if h.outer_dst >= 0 && h.outer_dst = env.router_id then begin
        Obs.incr c_decap;
        if Obs.trace_enabled () then
          ev "decap" env h [ ("outer_src", Obs.Int h.outer_src) ];
        let s = h.outer_src in
        h.outer_src <- -1;
        h.outer_dst <- -1;
        s
      end
      else -1
    in
    h.ttl <- h.ttl - 1;
    h.tag <- tag;
    if h.outer_dst >= 0 then begin
      (* In-transit tunnel: the packet is inside another router's
         IP-in-IP and not addressed to us, so it must be routed on the
         {e outer} header — toward the tunnel endpoint — and must never
         be deflected: hash-deflecting it out an eBGP port would let it
         leave the AS still encapsulated, never terminating its
         tunnel. *)
      match env.route_to_peer h.outer_dst with
      | -1 -> (
        (* No known iBGP route to the endpoint (degenerate wiring, e.g.
           a unit-test env): fall back to the default route for the
           inner destination, still without deflection. *)
        match Fib.lpm env.fib h.dst with
        | -1 ->
          Obs.incr c_drop_no_route;
          Drop_no_route
        | hit ->
          Obs.incr c_transit_fib;
          let port = Fib.out_port env.fib hit in
          send h ~port ~default_port:port)
      | port ->
        Obs.incr c_transit_routed;
        if Obs.trace_enabled () then
          ev "transit" env h [ ("outer_dst", Obs.Int h.outer_dst) ];
        send h ~port ~default_port:(-1)
    end
    else
      (* Line 4: FIB lookup. *)
      match Fib.lpm env.fib h.dst with
      | -1 ->
        Obs.incr c_drop_no_route;
        Drop_no_route
      | hit -> (
        let fib = env.fib in
        let default_port = Fib.out_port fib hit in
        match env.port_kind default_port with
        | Local ->
          (* destination network attached here: hand the packet to the
             host-facing port, no deflection logic applies *)
          send h ~port:default_port ~default_port
        | Ebgp _ | Ibgp _ -> (
          (* Line 11: use the alternative when this flow is being deflected
             (daemon-driven hash buckets over the congestion signal), or when
             the deflecting sender is exactly our default next hop - sending
             the packet back would cycle between iBGP peers (Fig. 2(b)).
             With no alternative installed — the common case on an
             uncongested mesh — none of that can change the egress, so
             the deflection machinery (next-hop resolution, congestion
             probe, flow hashing) is skipped entirely. *)
          match Fib.alt_at fib hit 0 with
          | -1 -> send h ~port:default_port ~default_port
          | alt0 ->
          let deflected_to_me = sender >= 0 && env.next_hop_router default_port = sender in
          (* The daemon ramps [deflect_buckets] with hysteresis; on top of
             that, a congested egress immediately deflects at least the
             first hash bucket so the reaction starts at line speed, before
             the next daemon epoch. *)
          let buckets = Fib.deflect_buckets fib hit in
          let effective_buckets =
            if buckets < 1 && env.is_congested default_port then 1 else buckets
          in
          let bucket = Fib.flow_bucket h.flow in
          let flow_deflected = bucket < effective_buckets in
          if not (deflected_to_me || flow_deflected) then
            send h ~port:default_port ~default_port
          else (
            if deflected_to_me then Obs.incr c_deflect_sender;
            (* ECMP spread over the ranked set: this bucket's slot is
               [bucket mod count] — always slot 0 with one alternative,
               which is the k=1 data plane. *)
            let alt =
              match Fib.alt_count fib hit with
              | 1 -> alt0
              | c -> Fib.alt_at fib hit (Fib.slot_of_bucket ~bucket ~count:c)
            in
            match env.port_kind alt with
            | Ibgp { peer_router } ->
              (* Lines 12-15: tunnel to the iBGP peer that owns the
                 alternative path.  [ibgp_encap:false] is the Fig. 2(b)
                 ablation: the peer cannot tell a deflected packet from
                 a normal one and bounces it straight back. *)
              if ibgp_encap then begin
                Obs.incr c_encap;
                if Obs.trace_enabled () then
                  ev "encap" env h [ ("outer_dst", Obs.Int peer_router) ];
                h.outer_src <- env.router_id;
                h.outer_dst <- peer_router
              end;
              Obs.incr c_deflect_ibgp;
              send h ~port:alt ~default_port
            | Ebgp { rel = downstream; _ } ->
              (* Lines 16-20: Tag-Check before leaving the AS sideways.  A
                 failing check means this packet may not use the
                 alternative.  If it was tunneled to us by the default
                 next hop, returning it would cycle, so it is dropped
                 (the pseudocode's line 20); a locally hash-deflected
                 packet instead falls back to the default port, which is
                 congested but always loop-free. *)
              if (not tag_check) || Policy.check ~tag:h.tag ~downstream then begin
                Obs.incr c_deflect_ebgp;
                send h ~port:alt ~default_port
              end
              else if deflected_to_me then begin
                Obs.incr c_drop_valley;
                if Obs.trace_enabled () then begin
                  ev "tag_check_fail" env h [ ("fate", Obs.Str "drop") ];
                  ev "drop" env h [ ("reason", Obs.Str "valley-violation") ]
                end;
                Drop_valley
              end
              else begin
                Obs.incr c_tag_fallback;
                if Obs.trace_enabled () then
                  ev "tag_check_fail" env h [ ("fate", Obs.Str "fallback") ];
                send h ~port:default_port ~default_port
              end
            | Local -> send h ~port:default_port ~default_port)))
  end

let action (p : Packet.t) h verdict =
  match verdict with
  | Drop_ttl -> Drop { packet = p; reason = Ttl_expired }
  | Forward | Drop_no_route | Drop_valley -> (
    let encap =
      if h.outer_dst < 0 then None
      else Some { Packet.outer_src = h.outer_src; outer_dst = h.outer_dst }
    in
    let packet = { p with Packet.ttl = h.ttl; vf_tag = h.tag; encap } in
    match verdict with
    | Drop_no_route -> Drop { packet; reason = No_route }
    | Drop_valley -> Drop { packet; reason = Valley_violation }
    | Forward | Drop_ttl -> Send { port = h.port; packet; default_port = h.default_port })

let forward ?(tag_check = true) ?(ibgp_encap = true) env ~ingress packet =
  let h = header () in
  load h packet;
  let ingress = match ingress with Some p -> p | None -> -1 in
  action packet h (decide ~tag_check ~ibgp_encap env ~ingress h)
