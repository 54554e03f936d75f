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
  next_hop_router : int -> int option;
  route_to_peer : int -> int option;
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

let ev name env packet fields =
  if Obs.trace_enabled () then
    Obs.event name
      (("router", Obs.Int env.router_id)
      :: ("flow", Obs.Int packet.Packet.flow)
      :: fields)

let drop env packet reason =
  (match reason with
  | No_route -> Obs.incr c_drop_no_route
  | Valley_violation ->
    Obs.incr c_drop_valley;
    ev "drop" env packet [ ("reason", Obs.Str "valley-violation") ]
  | Ttl_expired -> Obs.incr c_drop_ttl);
  Drop { packet; reason }

let forward_from ~tag_check ~ibgp_encap env ~ingress packet =
  if packet.Packet.ttl <= 1 then drop env packet Ttl_expired
  else begin
    (* Lines 5-10: the (re)tag for the packet entering point.  A
       host-facing [Local] port is the source AS's entering point, so it
       tags with the source tag exactly like no-ingress — a packet
       from our own customer cone may take any first deflection.  Only
       iBGP ingress keeps the tag: the packet already entered this AS
       elsewhere.  Computed up front so the TTL decrement, the retag and
       (lines 1-3) a terminating tunnel's decapsulation fuse into the
       hop's single header-rewrite copy — this runs per packet per hop,
       and packets are immutable. *)
    let tag =
      if ingress < 0 then Policy.source_tag
      else
        match env.port_kind ingress with
        | Ebgp { rel; _ } -> Policy.tag_of_upstream rel
        | Local -> Policy.source_tag
        | Ibgp _ -> packet.Packet.vf_tag
    in
    (* [sender] is the router that tunneled the packet to us, [-1] when
       it did not arrive through a terminating tunnel — an int, not an
       option, because this path runs per hop and the [Some] would be
       a fresh allocation every packet. *)
    let sender =
      match packet.Packet.encap with
      | Some e when e.Packet.outer_dst = env.router_id ->
        Obs.incr c_decap;
        ev "decap" env packet [ ("outer_src", Obs.Int e.Packet.outer_src) ];
        e.Packet.outer_src
      | Some _ | None -> -1
    in
    let packet =
      if sender >= 0 then
        { packet with Packet.ttl = packet.Packet.ttl - 1; vf_tag = tag; encap = None }
      else { packet with Packet.ttl = packet.Packet.ttl - 1; vf_tag = tag }
    in
    match packet.Packet.encap with
    | Some e ->
      (* In-transit tunnel: the packet is inside another router's
         IP-in-IP and not addressed to us, so it must be routed on the
         {e outer} header — toward the tunnel endpoint — and must never
         be deflected: hash-deflecting it out an eBGP port would let it
         leave the AS still encapsulated, never terminating its
         tunnel. *)
      (match env.route_to_peer e.Packet.outer_dst with
       | Some port ->
         Obs.incr c_transit_routed;
         ev "transit" env packet [ ("outer_dst", Obs.Int e.Packet.outer_dst) ];
         Send { port; packet; default_port = -1 }
       | None -> (
         (* No known iBGP route to the endpoint (degenerate wiring, e.g.
            a unit-test env): fall back to the default route for the
            inner destination, still without deflection. *)
         match Fib.lookup env.fib packet.Packet.dst with
         | None -> drop env packet No_route
         | Some entry ->
           Obs.incr c_transit_fib;
           let port = Fib.out_port entry in
           Send { port; packet; default_port = port }))
    | None -> (
      (* Line 4: FIB lookup. *)
      match Fib.lookup env.fib packet.Packet.dst with
      | None -> drop env packet No_route
      | Some entry -> (
        let default_port = Fib.out_port entry in
        match env.port_kind default_port with
        | Local ->
          (* destination network attached here: hand the packet to the
             host-facing port, no deflection logic applies *)
          Send { port = default_port; packet; default_port }
        | Ebgp _ | Ibgp _ -> (
          (* Line 11: use the alternative when this flow is being deflected
             (daemon-driven hash buckets over the congestion signal), or when
             the deflecting sender is exactly our default next hop - sending
             the packet back would cycle between iBGP peers (Fig. 2(b)).
             With no alternative installed — the common case on an
             uncongested mesh — none of that can change the egress, so
             the deflection machinery (next-hop resolution, congestion
             probe, flow hashing) is skipped entirely.  [alt_port_id]
             keeps the probe allocation-free: no [Some] box per packet. *)
          match Fib.alt_port_id entry with
          | -1 -> Send { port = default_port; packet; default_port }
          | alt0 ->
          let deflected_to_me =
            sender >= 0
            &&
            match env.next_hop_router default_port with
            | Some nh -> nh = sender
            | None -> false
          in
          (* The daemon ramps [deflect_buckets] with hysteresis; on top of
             that, a congested egress immediately deflects at least the
             first hash bucket so the reaction starts at line speed, before
             the next daemon epoch. *)
          let effective_buckets =
            if env.is_congested default_port then
              Stdlib.max 1 (Fib.deflect_buckets entry)
            else Fib.deflect_buckets entry
          in
          let bucket = Fib.flow_bucket packet.Packet.flow in
          let flow_deflected = bucket < effective_buckets in
          if not (deflected_to_me || flow_deflected) then
            Send { port = default_port; packet; default_port }
          else (
            if deflected_to_me then Obs.incr c_deflect_sender;
            (* ECMP spread over the ranked set: this bucket's slot is
               [bucket mod count] — always slot 0 with one alternative,
               which is the k=1 data plane. *)
            let alt =
              match Fib.alt_count entry with
              | 1 -> alt0
              | c -> Fib.alt_at entry (Fib.slot_of_bucket ~bucket ~count:c)
            in
            match env.port_kind alt with
            | Ibgp { peer_router } ->
              (* Lines 12-15: tunnel to the iBGP peer that owns the
                 alternative path.  [ibgp_encap:false] is the Fig. 2(b)
                 ablation: the peer cannot tell a deflected packet from
                 a normal one and bounces it straight back. *)
              let packet =
                if ibgp_encap then begin
                  Obs.incr c_encap;
                  ev "encap" env packet [ ("outer_dst", Obs.Int peer_router) ];
                  Packet.encapsulate packet ~outer_src:env.router_id
                    ~outer_dst:peer_router
                end
                else packet
              in
              Obs.incr c_deflect_ibgp;
              Send { port = alt; packet; default_port }
            | Ebgp { rel = downstream; _ } ->
              (* Lines 16-20: Tag-Check before leaving the AS sideways.  A
                 failing check means this packet may not use the
                 alternative.  If it was tunneled to us by the default
                 next hop, returning it would cycle, so it is dropped
                 (the pseudocode's line 20); a locally hash-deflected
                 packet instead falls back to the default port, which is
                 congested but always loop-free. *)
              if (not tag_check) || Policy.check ~tag:packet.Packet.vf_tag ~downstream
              then begin
                Obs.incr c_deflect_ebgp;
                Send { port = alt; packet; default_port }
              end
              else if deflected_to_me then begin
                ev "tag_check_fail" env packet [ ("fate", Obs.Str "drop") ];
                drop env packet Valley_violation
              end
              else begin
                Obs.incr c_tag_fallback;
                ev "tag_check_fail" env packet [ ("fate", Obs.Str "fallback") ];
                Send { port = default_port; packet; default_port }
              end
            | Local -> Send { port = default_port; packet; default_port }))))
  end

let forward ?(tag_check = true) ?(ibgp_encap = true) env ~ingress packet =
  forward_from ~tag_check ~ibgp_encap env
    ~ingress:(match ingress with Some p -> p | None -> -1)
    packet
