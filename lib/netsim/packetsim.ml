module Prefix = Mifo_bgp.Prefix
module Fib = Mifo_core.Fib
module Engine = Mifo_core.Engine
module Daemon = Mifo_core.Daemon
module Packet = Mifo_core.Packet
module Vec = Mifo_util.Vec
module Obs = Mifo_util.Obs

type node_id = int

type config = {
  queue_bits : int;
  daemon_period : float;
  daemon_config : Daemon.config;
  engine_congest_ratio : float;
  mss_bits : int;
  ack_bits : int;
  series_interval : float;
  tag_check : bool;
  ibgp_encap : bool;
  domains : int;
}

let default_config =
  {
    queue_bits = 1_000_000;
    daemon_period = 0.005;
    daemon_config = Daemon.default_config;
    engine_congest_ratio = 0.5;
    mss_bits = 8_000;
    ack_bits = 320;
    series_interval = 0.1;
    tag_check = true;
    ibgp_encap = true;
    domains = 1;
  }

(* Packets are simulator-owned slots of a per-exec arena (see [arena]
   below); events and train elements carry a slot's int handle.  A
   host writes a slot once when it sends, every hop then updates it in
   place, and the slot is freed when the packet is absorbed at a host
   or dropped. *)
type event =
  | Arrive of { node : node_id; port : int; pkt : int }
      (* a packet taken from a shard-pair mailbox at a window barrier;
         same-shard departures ride their link's train *)
  | Train of { node : node_id; port : int }
      (* the pending departures of [port] on [node]; keyed in the queue
         by the head element's (time, seq) *)
  | Start_flow of int
  | Timeout of { host : node_id; flow : int; gen : int }
  | Emit of { flow : int }  (* next burst of an open-loop UDP source *)
  | Daemon_tick

type flow_rec = {
  id : int;
  src_host : node_id;
  dst_host : node_id;
  src_key : int;  (* endpoint addresses as arena keys ([Fib.key_of_addr]) *)
  dst_key : int;
  bytes : int;
  start : float;
  mutable finish : float option;
}

type sender = {
  frec : flow_rec;
  tcp : Tcp.Sender.t;
  mutable send_times : float array;
      (* first-transmission time per segment, indexed by seq;
         [neg_infinity] until first sent, NaN once retransmitted (Karn's
         rule disables the RTT sample).  A flat array instead of an
         (int, float) Hashtbl: seq ids are dense 0..total-1, and this
         sits on the per-segment hot path.  Emptied when the flow
         finishes: nothing reads it after, and a chain of finished
         flows would otherwise hold one float per segment each. *)
  mutable t_gen : int;  (* Tcp timer generation of the latest arm *)
  timer : rto_timer;
}

(* Lazy RTO timer.  Re-arming on every ACK used to schedule a fresh
   Timeout event each time, leaving a trail of dead events in the queue
   (one per ACK, each living a full RTO).  Instead the logical deadline
   is just recorded here, and a queue event exists only for the
   earliest outstanding fire time [t_min]; an event firing before
   [t_deadline] is stale and re-schedules itself at the deadline.  The
   timeout still takes effect at exactly the eager scheme's time: the
   deadline of the latest arm.  All-float, so the per-ACK stores are
   flat rather than fresh boxed floats. *)
and rto_timer = {
  mutable t_deadline : float;  (* logical fire time; infinity = unarmed *)
  mutable t_min : float;  (* earliest queued Timeout; infinity = none *)
}

(* A router that never forwards a packet holds no per-flow or iBGP
   state: those tables start as the shared empty array and grow on
   first use. *)
type router = {
  as_id : int;
  r_fib : Fib.t;
  mutable r_env : Engine.env option;
      (* the engine environment for this router, built on first packet;
         its closures capture only stable state (the sim and this
         record), so rebuilding it per packet — as [handle_router] used
         to — was four closure allocations per hop for nothing *)
  mutable chooser : (Fib.t -> Fib.entry -> int array -> int) option;
      (* ranked-set chooser the daemon tick refreshes the FIB with;
         without one the tick keeps each entry's slot-0 alternative *)
  mutable last_egress : int array;  (* flow -> last egress port; -1 = none yet *)
  mutable switches : int array;  (* flow -> egress change count *)
  mutable ibgp : int array;
  mutable n_ibgp : int;
      (* the first [n_ibgp] (peer router, local port) pairs of [ibgp],
         flat: the port carrying the session to each peer named in an
         Ibgp kind, the engine's route_to_peer.  A linear scan: a router
         has one session per router of its AS, and the lookup must not
         allocate. *)
}

(* Open-loop (UDP-style) source: the testbed's line-rate probe traffic.
   No ack clock and no retransmission — the source just streams its
   segments back-to-back in bursts of [u_burst], self-paced off the
   host link's [next_free] so the next [Emit] fires exactly when the
   last burst has serialized. *)
type udp_sender = {
  u_frec : flow_rec;
  u_total : int;
  u_burst : int;
  mutable u_next_seg : int;
}

type host = {
  addr : Prefix.addr;
  key : int;  (* [addr] as an arena key *)
  senders : sender option Vec.t;  (* flow id -> sender, on the src host *)
  receivers : Tcp.Receiver.t option Vec.t;  (* flow id -> receiver, dst host *)
  udp_tx : udp_sender option Vec.t;  (* flow id -> UDP source, src host *)
  udp_rx : int Vec.t;
      (* flow id -> delivered segment count on the dst host; -1 marks
         "not a UDP flow terminating here" *)
}

type node_kind = Router of router | Host of host

type node = { kind : node_kind; mutable nports : int }

type counters = {
  delivered_packets : int;
  dropped_queue : int;
  dropped_ttl : int;
  dropped_valley : int;
  dropped_no_route : int;
  encapsulated : int;
  deflected : int;
}

(* The packet arena: [stride] ints per slot in [hdr] plus the slot's
   arrival time at the far end of its current link in [time].  Free
   slots form a list through [f_next]; the arena only grows, so its
   capacity is the peak number of packets in flight. *)
let f_src = 0 (* source address key *)
let f_dst = 1 (* destination address key *)
let f_flow = 2
let f_seq = 3
let f_ksz = 4 (* [size_bits lsl 1], [lor 1] for an ACK *)
let f_ttl = 5
let f_tag = 6 (* valley-free tag, 0/1 *)
let f_osrc = 7 (* IP-in-IP outer source; -1 = not encapsulated *)
let f_odst = 8 (* IP-in-IP outer destination; -1 = not encapsulated *)
let f_qseq = 9 (* queue seq claimed at transmit: the train element's key *)
let f_next = 10 (* train or free-list link; -1 = end *)
let stride = 11

(* The header words a boundary packet carries through a mailbox:
   [f_src .. f_odst]. *)
let header_words = f_odst + 1

type arena = {
  mutable hdr : int array;
  mutable time : float array;
  mutable free : int;  (* free-list head; -1 = arena full *)
  mutable live : int;  (* slots in use: packets in flight in this exec *)
}

let arena_create () = { hdr = [||]; time = [||]; free = -1; live = 0 }

let[@inline] get a h f = a.hdr.((h * stride) + f)
let[@inline] set a h f v = a.hdr.((h * stride) + f) <- v

let arena_grow a =
  let cap = Array.length a.time in
  let ncap = Stdlib.max 64 (2 * cap) in
  let hdr = Array.make (ncap * stride) (-1) in
  Array.blit a.hdr 0 hdr 0 (cap * stride);
  let time = Array.make ncap 0. in
  Array.blit a.time 0 time 0 cap;
  for h = cap to ncap - 2 do
    hdr.((h * stride) + f_next) <- h + 1
  done;
  a.hdr <- hdr;
  a.time <- time;
  a.free <- cap

let slot_alloc a =
  if a.free < 0 then arena_grow a;
  let h = a.free in
  a.free <- get a h f_next;
  a.live <- a.live + 1;
  h

let slot_free a h =
  set a h f_next a.free;
  a.free <- h;
  a.live <- a.live - 1

let[@inline] wire_bits a h =
  (get a h f_ksz lsr 1) + if get a h f_odst >= 0 then Packet.outer_header_bits else 0

(* The value-level view of a slot, for the tracer. *)
let packet_view a h =
  let odst = get a h f_odst in
  let ksz = get a h f_ksz in
  {
    Packet.src = Int32.of_int (get a h f_src);
    dst = Int32.of_int (get a h f_dst);
    flow = get a h f_flow;
    seq = get a h f_seq;
    kind = (if ksz land 1 = 1 then Packet.Ack else Packet.Data);
    size_bits = ksz lsr 1;
    ttl = get a h f_ttl;
    vf_tag = get a h f_tag = 1;
    encap =
      (if odst < 0 then None
       else Some { Packet.outer_src = get a h f_osrc; outer_dst = odst });
  }

(* The port arena.  A port is an int slot, numbered in [connect] order:
   slots [2k] and [2k + 1] are the two ends of the [k]-th link.  Its
   fields live in flat arrays the network owns: [pi_stride] ints and
   [pf_stride] floats per slot, its [Engine.port_kind], and the link's
   parameters, [lf_stride] floats per link.  The far end, kind and link
   parameters are written once by [connect]; the counters and the train
   are rewritten in place by the exec that owns the slot's node, so
   shards write disjoint slots.  Float cells are flat, so the per-hop
   [next_free] / [bits_carried] updates box nothing. *)
let pi_peer = 0 (* far-end node *)
let pi_peer_port = 1 (* far-end node's local port index *)

(* Per-link packet train: in-flight departures on this port, an
   intrusive FIFO of packet slots linked through their [f_next] field,
   and therefore sorted by (arrival time, queue seq) — serialization
   keeps per-link arrival times non-decreasing and seqs are allocated
   in append order.  The event queue holds ONE entry per nonempty train,
   keyed by the head element, instead of one per packet; see
   [train_drain].  A drain delivers to the far end, which never
   transmits on this slot ([connect] rejects a self-link), so a train
   is nonempty exactly when its entry is queued. *)
let pi_head = 2 (* -1 = empty *)
let pi_tail = 3
let pi_stride = 4
let pf_next_free = 0
let pf_bits = 1 (* bits carried *)
let pf_epoch = 2 (* [pf_bits] at the last daemon tick *)
let pf_stride = 3
let lf_rate = 0
let lf_delay = 1
let lf_qlimit = 2 (* tx-queue limit, bits *)
let lf_stride = 3
let[@inline] link_of s = (s lsr 1) * lf_stride

type ports = {
  mutable n : int;  (* slots in use *)
  map : int array Atomic.t;
      (* every node's local port -> slot map in one array:
         [m.(m.(id) + p)] is node [id]'s port [p], where the first
         [node count + 1] cells are offsets.  A slot's own node and
         local index are its twin's far end, so the map is rebuilt from
         the arena alone: [connect] leaves it empty and the first lookup
         after builds it, one array for the whole network instead of one
         per node.  Atomic, so a reader on another domain never sees a
         half-built map. *)
  mutable pi : int array;
  mutable pf : float array;
  mutable lf : float array;
  mutable kinds : Engine.port_kind array;
  mutable train_ev : event array;
      (* each slot's [Train] event, made on its first transmit;
         [Daemon_tick] until then.  Allocated by the first [run], so
         a network that is only built allocates no train state. *)
}

let ports_create () =
  { n = 0; map = Atomic.make [||]; pi = [||]; pf = [||]; lf = [||]; kinds = [||]; train_ev = [||] }

(* A [Train] event cell for every slot the arena has room for. *)
let size_train_ev ps =
  let cap = Array.length ps.kinds in
  if Array.length ps.train_ev < cap then begin
    let ev = Array.make cap Daemon_tick in
    Array.blit ps.train_ev 0 ev 0 (Array.length ps.train_ev);
    ps.train_ev <- ev
  end

(* Room for [cap] slots (an even number: whole links). *)
let ports_grow ps cap =
  let cap = cap + (cap land 1) in
  if cap > Array.length ps.kinds then begin
    let grow a stride fill =
      let b = Array.make (cap * stride) fill in
      Array.blit a 0 b 0 (ps.n * stride);
      b
    in
    ps.pi <- grow ps.pi pi_stride 0;
    ps.pf <- grow ps.pf pf_stride 0.;
    ps.kinds <- grow ps.kinds 1 Engine.Local;
    let lf = Array.make (cap / 2 * lf_stride) 0. in
    Array.blit ps.lf 0 lf 0 (ps.n / 2 * lf_stride);
    ps.lf <- lf;
    (* a link added after a run needs its train cells at once *)
    if Array.length ps.train_ev > 0 then size_train_ev ps
  end

(* One event-loop execution context.  The serial engine is the
   singleton case ([execs = [|e0|]]); a sharded run owns one [exec] per
   shard, each with its own queue, clock, scratch counters and goodput
   tally, so nothing mutable is shared between domains inside a
   conservative window.  Merging at the end is exact: every field is
   either an integer sum or single-writer per flow/node. *)
type exec = {
  eshard : int;
  xq : event Eventq.t;
  arena : arena;  (* the packets this exec owns *)
  x_hdr : Engine.hdr;  (* scratch header the engine decides on *)
  xclk : float array;
      (* the shard clock IS its event queue's {!Eventq.time_cell}:
         every successful pop writes the popped time into [xclk.(0)]
         in place, so advancing time costs a flat store and reading it
         never goes through a boxed float *)
  mutable x_events : int;
  mutable x_delivered : int;
  mutable x_drop_queue : int;
  mutable x_drop_ttl : int;
  mutable x_drop_valley : int;
  mutable x_drop_no_route : int;
  mutable x_encapsulated : int;
  mutable x_deflected : int;
  mutable x_originated : int;  (* slots written by a sending host *)
  mutable x_acks : int;  (* ACKs absorbed at their sender *)
  mutable x_stray : int;
      (* packets absorbed at a host that has no use for them: data for
         a flow with no receiver there, an ACK for an unknown sender *)
  x_goodput : int Vec.t;
      (* delivered bits per series_interval bucket.  Integer on purpose:
         bit counts are exact integers far below 2^53, so summing the
         per-shard buckets reproduces the serial totals bit-for-bit —
         float accumulation would make the merge order observable. *)
  x_batch : int array;
      (* per-exec train batch-size tally, indexed by exact batch size
         (1..128); flushed into the shared histogram at daemon ticks so
         the per-batch hot path touches no atomics *)
  x_done_t : float Vec.t;  (* deferred completion-hook queue: finish *)
  x_done : int Vec.t;  (* times and flow ids, drained at barriers *)
  mutable x_hit_tick : bool;
      (* this shard popped the window's Daemon_tick barrier marker *)
}

(* Fixed per-shard-pair boundary buffer: packets transmitted out of a
   shard toward a node owned by another shard park here until the next
   window barrier.  Parallel vecs, no per-packet tuple.  Single-writer
   (the source shard) during a window, read by the coordinator at the
   barrier — the fork/join of the window is the happens-before edge. *)
type mailbox = {
  mb_time : float Vec.t;
  mb_seq : int Vec.t;  (* seq claimed from the source shard's queue *)
  mb_node : int Vec.t;
  mb_port : int Vec.t;
  mb_hdr : int Vec.t;
      (* the packet's header words, [header_words] per packet: the
         source frees its slot and the destination allocates one at the
         barrier *)
}

type t = {
  cfg : config;
  nodes : node Vec.t;
  ports : ports;
  flows : flow_rec Vec.t;
  mutable execs : exec array;  (* [|e0|] until sharding activates *)
  mutable sharded : bool;
  mutable shard_of : int array;  (* node -> shard; [||] until assigned *)
  mutable lookahead : float;
      (* min latency over cut links = the conservative window length *)
  mutable mboxes : mailbox array;  (* nshards^2, row-major [src*n+dst] *)
  mutable sh_cut_links : int;
  mutable sh_windows : int;
  mutable sh_ticks : int;  (* barrier daemon ticks (count as 1 event each) *)
  mutable sh_next_tick : float;  (* infinity = no tick pending *)
  mutable daemon_scheduled : bool;
  mutable last_epoch_time : float;
  mutable on_complete : (int -> unit) option;
  mutable tracer : (float -> int -> Packet.t -> Engine.action -> unit) option;
      (* the view a tracer gets is built only when one is installed *)
}

let make_exec eshard =
  let xq = Eventq.create () in
  {
    eshard;
    xq;
    arena = arena_create ();
    x_hdr = Engine.header ();
    xclk = Eventq.time_cell xq;
    x_events = 0;
    x_delivered = 0;
    x_drop_queue = 0;
    x_drop_ttl = 0;
    x_drop_valley = 0;
    x_drop_no_route = 0;
    x_encapsulated = 0;
    x_deflected = 0;
    x_originated = 0;
    x_acks = 0;
    x_stray = 0;
    x_goodput = Vec.create ();
    x_batch = Array.make 129 0;
    x_done_t = Vec.create ();
    x_done = Vec.create ();
    x_hit_tick = false;
  }

let make_mailbox () =
  {
    mb_time = Vec.create ();
    mb_seq = Vec.create ();
    mb_node = Vec.create ();
    mb_port = Vec.create ();
    mb_hdr = Vec.create ();
  }

let create ?(config = default_config) () =
  if config.domains < 1 then
    invalid_arg "Packetsim.create: domains must be >= 1";
  {
    cfg = config;
    nodes = Vec.create ();
    ports = ports_create ();
    flows = Vec.create ();
    execs = [| make_exec 0 |];
    sharded = false;
    shard_of = [||];
    lookahead = infinity;
    mboxes = [||];
    sh_cut_links = 0;
    sh_windows = 0;
    sh_ticks = 0;
    sh_next_tick = infinity;
    daemon_scheduled = false;
    last_epoch_time = 0.;
    on_complete = None;
    tracer = None;
  }

let config t = t.cfg

let now t =
  let m = ref 0. in
  Array.iter (fun ex -> if ex.xclk.(0) > !m then m := ex.xclk.(0)) t.execs;
  !m

let events_processed t =
  Array.fold_left (fun acc ex -> acc + ex.x_events) t.sh_ticks t.execs

(* The exec owning a node: its shard's when sharded, the singleton
   otherwise.  Only used off the hot paths (handlers already hold their
   exec) — public accessors and barrier-time code. *)
let exec_of t id = if t.sharded then t.execs.(t.shard_of.(id)) else t.execs.(0)

(* Flow-indexed flat tables: [Vec.ensure]-grown, sentinel-initialized. *)
let slot v i = if i >= 0 && i < Vec.length v then Vec.get v i else None

(* Process-wide observability mirrors of the per-sim counters, plus the
   queue-depth view only the transmit path can see. *)
let c_delivered = Obs.counter "packetsim.delivered"
let c_drop_queue = Obs.counter "packetsim.dropped.queue"
let c_drop_ttl = Obs.counter "packetsim.dropped.ttl"
let c_drop_valley = Obs.counter "packetsim.dropped.valley"
let c_drop_no_route = Obs.counter "packetsim.dropped.no_route"
let c_deflected = Obs.counter "packetsim.deflected"
let c_encapsulated = Obs.counter "packetsim.encapsulated"
let h_queue_ratio = Obs.histogram "packetsim.queue_ratio"

let h_train_batch =
  Obs.histogram ~bounds:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. |]
    "packetsim.train_batch"

(* Event-queue health, sampled at daemon ticks (and at end of run). *)
let g_peak_len = Obs.gauge "eventq.peak_len"

(* Packets in flight, sampled at daemon ticks: [resident] is the number
   of live arena slots across every exec (queued on a link or in a
   train), [peak] its high-water mark — what the arena's capacity
   follows. *)
let g_train_resident = Obs.gauge "packetsim.train.resident_elems"
let g_train_peak = Obs.gauge "packetsim.train.peak_elems"

(* Shard geometry, set when a partition is installed. *)
let g_shard_domains = Obs.gauge "packetsim.shard.domains"
let g_shard_cut = Obs.gauge "packetsim.shard.cut_links"
let g_shard_lookahead = Obs.gauge "packetsim.shard.lookahead"

let add_router t ~as_id =
  let r =
    {
      as_id;
      r_fib = Fib.create ();
      r_env = None;
      chooser = None;
      last_egress = [||];
      switches = [||];
      ibgp = [||];
      n_ibgp = 0;
    }
  in
  Vec.push t.nodes { kind = Router r; nports = 0 };
  Vec.length t.nodes - 1

let add_host t ~addr =
  let h =
    {
      addr;
      key = Fib.key_of_addr addr;
      senders = Vec.create ();
      receivers = Vec.create ();
      udp_tx = Vec.create ();
      udp_rx = Vec.create ();
    }
  in
  Vec.push t.nodes { kind = Host h; nports = 0 };
  Vec.length t.nodes - 1

let node t id = Vec.get t.nodes id

let router_exn t id =
  match (node t id).kind with
  | Router r -> r
  | Host _ -> invalid_arg "Packetsim: expected a router"

let host_exn t id =
  match (node t id).kind with
  | Host h -> h
  | Router _ -> invalid_arg "Packetsim: expected a host"

let build_map t =
  let ps = t.ports and nn = Vec.length t.nodes in
  let m = Array.make (nn + 1 + ps.n) (-1) in
  m.(0) <- nn + 1;
  for id = 0 to nn - 1 do
    m.(id + 1) <- m.(id) + (node t id).nports
  done;
  for s = 0 to ps.n - 1 do
    let twin = (s lxor 1) * pi_stride in
    m.(m.(ps.pi.(twin + pi_peer)) + ps.pi.(twin + pi_peer_port)) <- s
  done;
  Atomic.set ps.map m;
  m

(* The port map, built if a [connect] emptied it. *)
let port_map t =
  let m = Atomic.get t.ports.map in
  if Array.length m = 0 then build_map t else m

(* The arena slot of node [id]'s port [p]. *)
let port_slot t id p =
  let nd = node t id in
  if p < 0 || p >= nd.nports then invalid_arg "Packetsim: no such port";
  let m = port_map t in
  m.(m.(id) + p)

(* [f] on each of node [id]'s slots, in local port order. *)
let iter_slots t id f =
  let m = port_map t in
  for p = 0 to (node t id).nports - 1 do
    f m.(m.(id) + p)
  done

let[@inline] slot_peer t s = t.ports.pi.((s * pi_stride) + pi_peer)
let[@inline] slot_delay t s = t.ports.lf.(link_of s + lf_delay)

(* [a] doubled (or more) to hold index [i], the new cells [fill]. *)
let grown a i fill =
  let b = Array.make (Stdlib.max (i + 1) (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Position of [peer] among router [r]'s iBGP sessions, [n_ibgp] when
   there is none. *)
let ibgp_index r peer =
  let i = ref 0 in
  while !i < r.n_ibgp && r.ibgp.(2 * !i) <> peer do
    incr i
  done;
  !i

(* Router [r]'s port carrying its iBGP session to [peer], -1 for none. *)
let ibgp_port r peer =
  let i = ibgp_index r peer in
  if i < r.n_ibgp then r.ibgp.((2 * i) + 1) else -1

let set_ibgp_port r peer p =
  let i = ibgp_index r peer in
  if i = r.n_ibgp then begin
    if 2 * i = Array.length r.ibgp then r.ibgp <- grown r.ibgp ((2 * i) + 1) (-1);
    r.ibgp.(2 * i) <- peer;
    r.n_ibgp <- i + 1
  end;
  r.ibgp.((2 * i) + 1) <- p

let reserve_ports t n = ports_grow t.ports n

(* A fresh slot for node [nd]'s next port: far end [peer]'s port
   [peer_port], seen as [kind]. *)
let add_port t nd ~peer ~peer_port kind =
  let ps = t.ports in
  let s = ps.n in
  if s = Array.length ps.kinds then ports_grow ps (Stdlib.max 64 (2 * s));
  ps.n <- s + 1;
  let i = s * pi_stride in
  ps.pi.(i + pi_peer) <- peer;
  ps.pi.(i + pi_peer_port) <- peer_port;
  ps.pi.(i + pi_head) <- -1;
  ps.pi.(i + pi_tail) <- -1;
  ps.kinds.(s) <- kind;
  nd.nports <- nd.nports + 1

let connect t ~a ~b ~kind_ab ~kind_ba ~rate ?(delay = 50e-6) ?queue_bits () =
  if rate <= 0. then invalid_arg "Packetsim.connect: rate must be positive";
  if a = b then invalid_arg "Packetsim.connect: a link needs two distinct nodes";
  Atomic.set t.ports.map [||];
  let qbits = match queue_bits with Some q -> q | None -> t.cfg.queue_bits in
  let na = node t a and nb = node t b in
  let pa = na.nports and pb = nb.nports in
  add_port t na ~peer:b ~peer_port:pb kind_ab;
  add_port t nb ~peer:a ~peer_port:pa kind_ba;
  let l = link_of (t.ports.n - 1) and lf = t.ports.lf in
  lf.(l + lf_rate) <- rate;
  lf.(l + lf_delay) <- delay;
  lf.(l + lf_qlimit) <- float_of_int qbits;
  let note_ibgp n kind p =
    match (n.kind, kind) with
    | Router r, Engine.Ibgp { peer_router } -> set_ibgp_port r peer_router p
    | _ -> ()
  in
  note_ibgp na kind_ab pa;
  note_ibgp nb kind_ba pb;
  (pa, pb)

let fib t id = (router_exn t id).r_fib
let set_ranked_chooser t id chooser = (router_exn t id).chooser <- Some chooser

(* Queue occupancy of slot [s]'s link right now: the backlog implied
   by next_free.  The clamp is a bare [if], not [Float.max]: an
   out-of-line float call boxes both arguments and the result, and
   this runs several times per simulated hop. *)
let[@inline] queue_bits_now (ex : exec) ps s =
  let b = (ps.pf.((s * pf_stride) + pf_next_free) -. ex.xclk.(0)) *. ps.lf.(link_of s + lf_rate) in
  if b > 0. then b else 0.

let[@inline] queue_ratio ex ps s = queue_bits_now ex ps s /. ps.lf.(link_of s + lf_qlimit)

let spare_capacity t id p =
  let s = port_slot t id p in
  let pf = t.ports.pf and f = s * pf_stride in
  let clk = (exec_of t id).xclk in
  let elapsed = Float.max t.cfg.daemon_period (clk.(0) -. t.last_epoch_time) in
  let used = (pf.(f + pf_bits) -. pf.(f + pf_epoch)) /. elapsed in
  Float.max 0. (t.ports.lf.(link_of s + lf_rate) -. used)

(* Queue-health observability, sampled at daemon ticks and at end of
   run rather than on every transmit: an unbiased time sample of each
   directed link's occupancy, plus the event-queue gauges and the flush
   of the per-sim train batch tally.  Keeping the histogram updates off
   the transmit path matters — [Obs.observe] is an atomic CAS retry
   loop on a boxed float, several hundred ns per call at millions of
   events/sec. *)
let sample_queue_health t =
  let m = port_map t in
  for id = 0 to Vec.length t.nodes - 1 do
    (* a loop, not [iter_slots]: a closure per node per tick *)
    let ex = exec_of t id in
    for p = 0 to (node t id).nports - 1 do
      Obs.observe h_queue_ratio (queue_ratio ex t.ports m.(m.(id) + p))
    done
  done;
  let live = Array.fold_left (fun acc ex -> acc + ex.arena.live) 0 t.execs in
  Obs.set_gauge g_train_resident (float_of_int live);
  Obs.max_gauge g_train_peak (float_of_int live);
  Array.iter
    (fun ex ->
      let bc = ex.x_batch in
      for size = 1 to Array.length bc - 1 do
        let n = bc.(size) in
        if n > 0 then begin
          Obs.observe_n h_train_batch (float_of_int size) n;
          bc.(size) <- 0
        end
      done)
    t.execs;
  (* queue gauge: the high-water over all shards *)
  let peak =
    Array.fold_left (fun m ex -> Stdlib.max m (Eventq.peak_length ex.xq)) 0 t.execs
  in
  Obs.set_gauge g_peak_len (float_of_int peak)

(* Slot [s]'s cached [Train] event; [s] is node [id]'s port [p]. *)
let train_event t s id p =
  match t.ports.train_ev.(s) with
  | Train _ as ev -> ev
  | _ ->
    let ev = Train { node = id; port = p } in
    t.ports.train_ev.(s) <- ev;
    ev

(* Transmit packet [h] out of a node's port: tail-drop FIFO queue, then
   store-and-forward serialization and propagation.  The arrival time
   goes into the slot's [time] cell, from where the event queue reads
   it without boxing.

   The slot is appended to the port's train instead of becoming its
   own queue entry; the element still claims a queue seq via
   [alloc_seq] at exactly the point [Eventq.schedule] would have, so
   the global (time, seq) event order — and therefore the whole
   simulation — is bit-identical to per-packet scheduling. *)
let transmit t (ex : exec) src_node p h =
  let s = port_slot t src_node p in
  let ps = t.ports in
  let pf = ps.pf and pi = ps.pi and lf = ps.lf in
  let f = s * pf_stride and i = s * pi_stride and l = link_of s in
  let a = ex.arena in
  let wire = float_of_int (wire_bits a h) in
  if queue_bits_now ex ps s +. wire > lf.(l + lf_qlimit) then begin
    ex.x_drop_queue <- ex.x_drop_queue + 1;
    Obs.incr c_drop_queue;
    if Obs.trace_enabled () then
      Obs.event ~t:ex.xclk.(0) "queue_drop"
        [
          ("node", Obs.Int src_node); ("port", Obs.Int p); ("flow", Obs.Int (get a h f_flow));
        ];
    slot_free a h
  end
  else begin
    let now = ex.xclk.(0) in
    let next_free = pf.(f + pf_next_free) in
    let start = if now > next_free then now else next_free in
    let done_tx = start +. (wire /. lf.(l + lf_rate)) in
    pf.(f + pf_next_free) <- done_tx;
    pf.(f + pf_bits) <- pf.(f + pf_bits) +. wire;
    a.time.(h) <- done_tx +. lf.(l + lf_delay);
    let seq = Eventq.alloc_seq ex.xq in
    let peer = pi.(i + pi_peer) in
    if t.sharded && t.shard_of.(peer) <> ex.eshard then begin
      (* Boundary crossing: the peer's state belongs to another shard,
         so the packet's header parks in the shard-pair mailbox until
         the next window barrier, where the destination allocates its
         slot.  The claimed seq is this shard's schedule order — the
         mailbox merge sorts on (time, seq, source shard), so two
         packets the same source sent at the same instant keep their
         transmit order.  The conservative window guarantees
         [arrival >= window end]: [delay >= lookahead] on every cut
         link, so the destination shard has not simulated past it. *)
      let ns = Array.length t.execs in
      let mb = t.mboxes.((ex.eshard * ns) + t.shard_of.(peer)) in
      Vec.push mb.mb_time a.time.(h);
      Vec.push mb.mb_seq seq;
      Vec.push mb.mb_node peer;
      Vec.push mb.mb_port pi.(i + pi_peer_port);
      for f = 0 to header_words - 1 do
        Vec.push mb.mb_hdr (get a h f)
      done;
      slot_free a h
    end
    else begin
      set a h f_qseq seq;
      set a h f_next (-1);
      let tail = pi.(i + pi_tail) in
      pi.(i + pi_tail) <- h;
      if tail >= 0 then
        (* the queued entry is keyed by the train's head, whose
           (time, seq) is <= ours — FIFO order per link *)
        set a tail f_next h
      else begin
        pi.(i + pi_head) <- h;
        Eventq.schedule_at ex.xq a.time h ~seq (train_event t s src_node p)
      end
    end
  end

let record_goodput t (ex : exec) bits =
  let bucket = int_of_float (ex.xclk.(0) /. t.cfg.series_interval) in
  Vec.ensure ex.x_goodput (bucket + 1) 0;
  Vec.set ex.x_goodput bucket (Vec.get ex.x_goodput bucket + bits)

let engine_env t (ex : exec) id r =
  {
    Engine.router_id = id;
    fib = r.r_fib;
    port_kind = (fun p -> t.ports.kinds.(port_slot t id p));
    is_congested =
      (fun p -> queue_ratio ex t.ports (port_slot t id p) >= t.cfg.engine_congest_ratio);
    next_hop_router =
      (fun p ->
        let peer = slot_peer t (port_slot t id p) in
        match (node t peer).kind with Router _ -> peer | Host _ -> -1);
    route_to_peer = (fun peer -> ibgp_port r peer);
  }

let note_egress r flow p =
  if flow >= Array.length r.last_egress then r.last_egress <- grown r.last_egress flow (-1);
  let prev = r.last_egress.(flow) in
  if prev <> p then begin
    r.last_egress.(flow) <- p;
    if prev >= 0 then begin
      if flow >= Array.length r.switches then r.switches <- grown r.switches flow 0;
      r.switches.(flow) <- r.switches.(flow) + 1
    end
  end

(* One router hop of packet [h]: load its header into the exec's
   scratch [Engine.hdr], decide in place, write the rewritten fields
   back and send it on — or count the drop and free the slot. *)
let handle_router t (ex : exec) id r ~port:ingress h =
  let env =
    match r.r_env with
    | Some env -> env
    | None ->
      (* each router is processed only by the shard that owns it, so
         capturing that shard's exec in the cached env is safe *)
      let env = engine_env t ex id r in
      r.r_env <- Some env;
      env
  in
  let a = ex.arena and hd = ex.x_hdr in
  hd.Engine.dst <- get a h f_dst;
  hd.flow <- get a h f_flow;
  hd.ttl <- get a h f_ttl;
  hd.tag <- get a h f_tag = 1;
  hd.outer_src <- get a h f_osrc;
  hd.outer_dst <- get a h f_odst;
  let was_encap = hd.outer_dst >= 0 in
  let tag_check = t.cfg.tag_check and ibgp_encap = t.cfg.ibgp_encap in
  let verdict =
    match t.tracer with
    | None -> Engine.decide ~tag_check ~ibgp_encap env ~ingress hd
    | Some f ->
      let view = packet_view a h in
      let v = Engine.decide ~tag_check ~ibgp_encap env ~ingress hd in
      f ex.xclk.(0) id view (Engine.action view hd v);
      v
  in
  match verdict with
  | Engine.Drop_ttl ->
    ex.x_drop_ttl <- ex.x_drop_ttl + 1;
    Obs.incr c_drop_ttl;
    slot_free a h
  | Engine.Drop_valley ->
    ex.x_drop_valley <- ex.x_drop_valley + 1;
    Obs.incr c_drop_valley;
    slot_free a h
  | Engine.Drop_no_route ->
    ex.x_drop_no_route <- ex.x_drop_no_route + 1;
    Obs.incr c_drop_no_route;
    slot_free a h
  | Engine.Forward ->
    set a h f_ttl hd.ttl;
    set a h f_tag (if hd.tag then 1 else 0);
    set a h f_osrc hd.outer_src;
    set a h f_odst hd.outer_dst;
    let out = hd.port and default_port = hd.default_port in
    (* A packet that arrived encapsulated and leaves still encapsulated
       is an in-transit tunnel routed on its outer header — not a
       deflection decision of this router.  [default_port] is the FIB
       default the engine already looked up ([-1] when it routed without
       one), so deflection accounting costs no second lookup. *)
    let now_encap = hd.outer_dst >= 0 in
    if default_port >= 0 && out <> default_port && not (was_encap && now_encap) then begin
      ex.x_deflected <- ex.x_deflected + 1;
      Obs.incr c_deflected;
      if now_encap && not was_encap then begin
        ex.x_encapsulated <- ex.x_encapsulated + 1;
        Obs.incr c_encapsulated
      end
    end;
    note_egress r hd.flow out;
    transmit t ex id out h

(* A fresh packet from a host: a new arena slot, untagged and
   unencapsulated. *)
let originate (ex : exec) ~src ~dst ~flow ~seq ~ksz =
  let a = ex.arena in
  let h = slot_alloc a in
  set a h f_src src;
  set a h f_dst dst;
  set a h f_flow flow;
  set a h f_seq seq;
  set a h f_ksz ksz;
  set a h f_ttl Packet.default_ttl;
  set a h f_tag 0;
  set a h f_osrc (-1);
  set a h f_odst (-1);
  ex.x_originated <- ex.x_originated + 1;
  h

let data_ksz t = t.cfg.mss_bits lsl 1

(* Host-side TCP machinery.  [arm_timer] is lazy: it moves the logical
   deadline and only touches the event queue when no queued Timeout
   fires early enough to cover it (see the [sender] field comments). *)
(* Timer locality: a sender's Timeout events live in its host's shard
   queue ([ex.xq]) and never cross the boundary — the RTO bookkeeping
   below is all shard-private state. *)
let arm_timer (ex : exec) host_id (s : sender) =
  let tm = s.timer in
  if Tcp.Sender.timer_needed s.tcp then begin
    let gen = Tcp.Sender.arm_timer s.tcp in
    tm.t_deadline <- ex.xclk.(0) +. Tcp.Sender.rto s.tcp;
    s.t_gen <- gen;
    if tm.t_deadline < tm.t_min then begin
      tm.t_min <- tm.t_deadline;
      Eventq.schedule ex.xq ~time:tm.t_deadline
        (Timeout { host = host_id; flow = s.frec.id; gen })
    end
  end
  else tm.t_deadline <- Float.infinity

let send_segment t (ex : exec) host_id (s : sender) seq =
  s.send_times.(seq) <-
    (if s.send_times.(seq) = Float.neg_infinity then ex.xclk.(0) else Float.nan);
  let f = s.frec in
  transmit t ex host_id 0
    (originate ex ~src:f.src_key ~dst:f.dst_key ~flow:f.id ~seq ~ksz:(data_ksz t))

(* Retransmit what [Tcp.Sender.on_ack]/[on_timeout] asked for.  The
   empty case is tested first: the partial application below would be
   a closure allocated on every ACK. *)
let resend t ex host_id s = function
  | [] -> ()
  | rtx -> List.iter (send_segment t ex host_id s) rtx

let pump t (ex : exec) host_id (s : sender) =
  let seq = ref (Tcp.Sender.next_seq_hot s.tcp) in
  while !seq >= 0 do
    send_segment t ex host_id s !seq;
    seq := Tcp.Sender.next_seq_hot s.tcp
  done;
  arm_timer ex host_id s

let total_segments t bytes = ((bytes * 8) + t.cfg.mss_bits - 1) / t.cfg.mss_bits

let add_flow t ~src ~dst ~bytes ~start =
  if bytes <= 0 then invalid_arg "Packetsim.add_flow: empty flow";
  let hs = host_exn t src and hd = host_exn t dst in
  let id = Vec.length t.flows in
  let frec =
    {
      id;
      src_host = src;
      dst_host = dst;
      src_key = hs.key;
      dst_key = hd.key;
      bytes;
      start;
      finish = None;
    }
  in
  Vec.push t.flows frec;
  let total = total_segments t bytes in
  let tcp = Tcp.Sender.create ~total in
  Vec.ensure hs.senders (id + 1) None;
  Vec.set hs.senders id
    (Some
       {
         frec;
         tcp;
         send_times = Array.make total Float.neg_infinity;
         t_gen = 0;
         timer = { t_deadline = Float.infinity; t_min = Float.infinity };
       });
  Vec.ensure hd.receivers (id + 1) None;
  Vec.set hd.receivers id (Some (Tcp.Receiver.create ()));
  Eventq.schedule (exec_of t src).xq ~time:start (Start_flow id);
  id

let add_udp_flow t ~src ~dst ~bytes ?(burst = 32) ~start () =
  if bytes <= 0 then invalid_arg "Packetsim.add_udp_flow: empty flow";
  if burst <= 0 then invalid_arg "Packetsim.add_udp_flow: burst must be positive";
  let hs = host_exn t src and hd = host_exn t dst in
  let id = Vec.length t.flows in
  let frec =
    {
      id;
      src_host = src;
      dst_host = dst;
      src_key = hs.key;
      dst_key = hd.key;
      bytes;
      start;
      finish = None;
    }
  in
  Vec.push t.flows frec;
  Vec.ensure hs.udp_tx (id + 1) None;
  Vec.set hs.udp_tx id
    (Some { u_frec = frec; u_total = total_segments t bytes; u_burst = burst; u_next_seg = 0 });
  Vec.ensure hd.udp_rx (id + 1) (-1);
  Vec.set hd.udp_rx id 0;
  Eventq.schedule (exec_of t src).xq ~time:start (Start_flow id);
  id

(* One burst of an open-loop source: stream up to [u_burst] segments
   back-to-back into the host link, then come back the moment the link
   has serialized them ([next_free]) — line-rate self-pacing with no
   per-segment events at the source. *)
let emit_burst t (ex : exec) host_id (u : udp_sender) =
  let s = port_slot t host_id 0 in
  let n = Stdlib.min u.u_burst (u.u_total - u.u_next_seg) in
  for _ = 1 to n do
    let seq = u.u_next_seg in
    u.u_next_seg <- seq + 1;
    let f = u.u_frec in
    transmit t ex host_id 0
      (originate ex ~src:f.src_key ~dst:f.dst_key ~flow:f.id ~seq ~ksz:(data_ksz t))
  done;
  if u.u_next_seg < u.u_total then begin
    (* [next_free] only fails to advance when every segment was
       tail-dropped (host queue smaller than one burst); fall back to
       one serialization time so emission still makes progress. *)
    let next_free = t.ports.pf.((s * pf_stride) + pf_next_free) in
    let next =
      if next_free > ex.xclk.(0) then next_free
      else ex.xclk.(0) +. (float_of_int t.cfg.mss_bits /. t.ports.lf.(link_of s + lf_rate))
    in
    Eventq.schedule ex.xq ~time:next (Emit { flow = u.u_frec.id })
  end

(* A flow just finished.  The completion hook may add flows — safe
   inline on the serial path, but on a sharded run it must wait for the
   window barrier where the coordinator owns every queue; the hook then
   fires in deterministic (finish time, flow id) order. *)
let finish_flow t (ex : exec) (frec : flow_rec) =
  frec.finish <- Some ex.xclk.(0);
  match t.on_complete with
  | None -> ()
  | Some f ->
    if t.sharded then begin
      Vec.push ex.x_done_t ex.xclk.(0);
      Vec.push ex.x_done frec.id
    end
    else f frec.id

(* Packet [h] reaches a host, which absorbs it: its slot is freed first
   (an ACK reply reuses it straight off the free list). *)
let handle_host t (ex : exec) id hst h =
  let a = ex.arena in
  let flow = get a h f_flow and seq = get a h f_seq and ksz = get a h f_ksz in
  let src = get a h f_src and dst = get a h f_dst in
  slot_free a h;
  if ksz land 1 = 0 then begin
    match slot hst.receivers flow with
    | None ->
      (* no TCP receiver: maybe an open-loop (UDP) sink *)
      let got = if flow < Vec.length hst.udp_rx then Vec.get hst.udp_rx flow else -1 in
      if got >= 0 then begin
        ex.x_delivered <- ex.x_delivered + 1;
        Obs.incr c_delivered;
        record_goodput t ex (ksz lsr 1);
        let got = got + 1 in
        Vec.set hst.udp_rx flow got;
        let frec = Vec.get t.flows flow in
        if got = total_segments t frec.bytes then finish_flow t ex frec
      end
      else ex.x_stray <- ex.x_stray + 1
    | Some rcv ->
      ex.x_delivered <- ex.x_delivered + 1;
      Obs.incr c_delivered;
      record_goodput t ex (ksz lsr 1);
      let ack = Tcp.Receiver.on_data rcv seq in
      transmit t ex id 0
        (originate ex ~src:dst ~dst:src ~flow ~seq:ack ~ksz:((t.cfg.ack_bits lsl 1) lor 1))
  end
  else begin
    match slot hst.senders flow with
    | None -> ex.x_stray <- ex.x_stray + 1
    | Some s ->
      ex.x_acks <- ex.x_acks + 1;
      if s.frec.finish = None then begin
        let before = Tcp.Sender.snd_una s.tcp in
        let ack = seq in
        if ack > before then begin
          (* RTT sample from the newest segment this ACK covers.  Acked
             slots need no cleanup: once cumulative, they are never read
             again.  [neg_infinity] (never sent) and NaN (retransmitted,
             Karn's rule) both fail the finiteness test ([t0 -. t0] is
             NaN for both) and yield no sample. *)
          if ack - 1 < Array.length s.send_times then begin
            let t0 = s.send_times.(ack - 1) in
            if t0 -. t0 = 0. then Tcp.Sender.observe_rtt s.tcp (ex.xclk.(0) -. t0)
          end
        end;
        resend t ex id s (Tcp.Sender.on_ack s.tcp ack);
        if Tcp.Sender.is_done s.tcp then begin
          s.send_times <- [||];
          finish_flow t ex s.frec
        end
        else pump t ex id s
      end
  end

let daemon_tick t ~now =
  for id = 0 to Vec.length t.nodes - 1 do
    match (node t id).kind with
    | Host _ -> ()
    | Router r when r.chooser = None && not (Fib.may_deflect r.r_fib) ->
      (* No chooser and no live alternative in the table: the epoch walk
         over this FIB would visit every entry only to write back the
         state it already has.  On a benign mesh this skip turns the
         tick from O(routers x prefixes) into O(routers). *)
      ()
    | Router r -> (
      let port_utilization p =
        let s = port_slot t id p in
        let pf = t.ports.pf and f = s * pf_stride in
        let elapsed = Float.max 1e-9 (now -. t.last_epoch_time) in
        let used = (pf.(f + pf_bits) -. pf.(f + pf_epoch)) /. elapsed in
        Float.min 1. (used /. t.ports.lf.(link_of s + lf_rate))
      in
      let choose_alts =
        (* chooser-less: keep slot 0 as a singleton, drop higher slots
           (an empty slot 0 reads -1, which [Fib.set_alts] drops) *)
        match r.chooser with
        | Some f -> f
        | None ->
          fun fib entry buf ->
            buf.(0) <- Fib.alt_at fib entry 0;
            1
      in
      Daemon.epoch_ranked ~config:t.cfg.daemon_config ~fib:r.r_fib ~port_utilization
        ~choose_alts ())
  done;
  (* snapshot link counters for the next epoch's utilization window *)
  let pf = t.ports.pf in
  for s = 0 to t.ports.n - 1 do
    pf.((s * pf_stride) + pf_epoch) <- pf.((s * pf_stride) + pf_bits)
  done;
  t.last_epoch_time <- now

let deliver t (ex : exec) id p h =
  match (node t id).kind with
  | Router r -> handle_router t ex id r ~port:p h
  | Host hst -> handle_host t ex id hst h

(* Drain a port's train.  The head element was just popped by the run
   loop ([ex.xclk.(0)] set, counted); each following element is processed
   inline as long as it is still globally next — i.e. its (time, seq)
   precedes the event queue's head — skipping a queue round-trip for
   the dominant back-to-back case.  The moment something else (an event
   another handler scheduled, or [until]) preempts, the train goes back
   into the queue keyed by its new head. *)
let train_drain t (ex : exec) id p ~until =
  let s = port_slot t id p in
  let i = s * pi_stride in
  let peer = t.ports.pi.(i + pi_peer) and peer_port = t.ports.pi.(i + pi_peer_port) in
  let a = ex.arena in
  let batch = ref 0 in
  let continue = ref true in
  while !continue do
    (* [t.ports.pi] afresh on every element: a completion hook that
       [deliver] runs may [connect], moving the arena to larger arrays *)
    let pi = t.ports.pi in
    let h = pi.(i + pi_head) in
    (* unlink before delivering: the host side may free [h] and reuse
       it for its reply *)
    let next = get a h f_next in
    pi.(i + pi_head) <- next;
    if next < 0 then pi.(i + pi_tail) <- -1;
    incr batch;
    deliver t ex peer peer_port h;
    if next < 0 then continue := false
    else begin
      let ns = get a next f_qseq in
      if a.time.(next) <= until && Eventq.precedes_head_at ex.xq a.time next ~seq:ns
      then begin
        ex.xclk.(0) <- a.time.(next);
        ex.x_events <- ex.x_events + 1
      end
      else begin
        Eventq.schedule_at ex.xq a.time next ~seq:ns (train_event t s id p);
        continue := false
      end
    end
  done;
  let b = !batch in
  if b < Array.length ex.x_batch then ex.x_batch.(b) <- ex.x_batch.(b) + 1
  else Obs.observe h_train_batch (float_of_int b)

let handle t (ex : exec) = function
  | Arrive { node = id; port = p; pkt } -> deliver t ex id p pkt
  | Train _ -> assert false (* dispatched by the run loop, needs [until] *)
  | Start_flow flow -> (
    let frec = Vec.get t.flows flow in
    let h = host_exn t frec.src_host in
    match slot h.senders flow with
    | Some s -> pump t ex frec.src_host s
    | None -> (
      match slot h.udp_tx flow with
      | Some u -> emit_burst t ex frec.src_host u
      | None -> ()))
  | Emit { flow } -> (
    let frec = Vec.get t.flows flow in
    match slot (host_exn t frec.src_host).udp_tx flow with
    | Some u -> emit_burst t ex frec.src_host u
    | None -> ())
  | Timeout { host; flow; gen } -> (
    match slot (host_exn t host).senders flow with
    | None -> ()
    | Some s ->
      (* events fire in time order, so this was the earliest queued one *)
      let tm = s.timer in
      tm.t_min <- Float.infinity;
      if s.frec.finish = None then begin
        let rtx = Tcp.Sender.on_timeout s.tcp ~gen in
        if rtx <> [] then begin
          resend t ex host s rtx;
          arm_timer ex host s
        end
        else if
          Tcp.Sender.timer_needed s.tcp
          && tm.t_deadline >= ex.xclk.(0)
          && tm.t_deadline < Float.infinity
          && tm.t_min > tm.t_deadline
        then begin
          (* stale early fire: keep the logical deadline covered *)
          tm.t_min <- tm.t_deadline;
          Eventq.schedule ex.xq ~time:tm.t_deadline
            (Timeout { host; flow; gen = s.t_gen })
        end
      end)
  | Daemon_tick ->
    (* serial path only: a sharded run intercepts the tick in its
       window loop and runs it at the barrier *)
    daemon_tick t ~now:ex.xclk.(0);
    sample_queue_health t;
    if not (Eventq.is_empty ex.xq) then begin
      Eventq.schedule ex.xq ~time:(ex.xclk.(0) +. t.cfg.daemon_period) Daemon_tick
    end

let run_serial ?(until = infinity) t =
  let ex = t.execs.(0) in
  if not t.daemon_scheduled then begin
    t.daemon_scheduled <- true;
    Eventq.schedule ex.xq ~time:t.cfg.daemon_period Daemon_tick
  end;
  while Eventq.due ex.xq ~until do
    (* the take advances [ex.xclk.(0)] — it is the queue's time cell *)
    let ev = Eventq.take ex.xq in
    ex.x_events <- ex.x_events + 1;
    match ev with
    | Train { node; port } -> train_drain t ex node port ~until
    | ev -> handle t ex ev
  done;
  sample_queue_health t

(* ------------------------------------------------------------------ *)
(* Sharded execution: conservative time windows over per-domain event
   loops.  Every shard simulates [t, t + lookahead) against only its
   own state; boundary packets cross through the mailboxes at window
   barriers; daemon ticks are barrier markers present in every shard's
   queue, so their (time, seq) order against ordinary events is exactly
   the serial engine's. *)

let set_shards t assign =
  if t.daemon_scheduled || t.sharded then
    invalid_arg "Packetsim.set_shards: must be called before the first run";
  let n = Vec.length t.nodes in
  if Array.length assign <> n then
    invalid_arg "Packetsim.set_shards: need exactly one shard id per node";
  let ns = ref 0 in
  Array.iter
    (fun s ->
      if s < 0 then invalid_arg "Packetsim.set_shards: negative shard id";
      if s + 1 > !ns then ns := s + 1)
    assign;
  (* cut size and lookahead over the concrete node graph: the window
     length is the smallest latency a boundary packet must cross *)
  let cut = ref 0 and min_lat = ref infinity in
  for id = 0 to n - 1 do
    iter_slots t id (fun s ->
        let peer = slot_peer t s in
        if id < peer && assign.(id) <> assign.(peer) then begin
          incr cut;
          if slot_delay t s < !min_lat then min_lat := slot_delay t s
        end)
  done;
  if !ns > 1 && !cut > 0 && not (!min_lat > 0.) then
    invalid_arg "Packetsim.set_shards: zero-latency cross-shard link leaves no lookahead";
  t.shard_of <- assign;
  t.lookahead <- !min_lat;
  t.sh_cut_links <- !cut;
  Obs.set_gauge g_shard_domains (float_of_int (Stdlib.max 1 !ns));
  Obs.set_gauge g_shard_cut (float_of_int !cut);
  Obs.set_gauge g_shard_lookahead !min_lat

let auto_shards t ~domains =
  if domains < 1 then invalid_arg "Packetsim.auto_shards: domains must be >= 1";
  let n = Vec.length t.nodes in
  if n = 0 then invalid_arg "Packetsim.auto_shards: empty network";
  (* Quotient the node graph by AS — routers by as_id, hosts adopting
     the AS of the router behind port 0 — then hand the quotient to the
     min-cut-ish partitioner with router counts as balance weights.
     Keeping whole ASes together means host links and iBGP meshes never
     cross shards; only inter-AS links (the high-latency ones) can be
     cut. *)
  let gid = Hashtbl.create 64 in
  let groups = ref 0 in
  let group_of_as a =
    match Hashtbl.find_opt gid a with
    | Some g -> g
    | None ->
      let g = !groups in
      incr groups;
      Hashtbl.add gid a g;
      g
  in
  let group = Array.make n (-1) in
  for id = 0 to n - 1 do
    match (node t id).kind with
    | Router r -> group.(id) <- group_of_as r.as_id
    | Host _ -> ()
  done;
  for id = 0 to n - 1 do
    if group.(id) < 0 then begin
      let nd = node t id in
      group.(id) <-
        (if nd.nports > 0 then begin
           let peer = slot_peer t (port_slot t id 0) in
           if group.(peer) >= 0 then group.(peer) else 0
         end
         else 0)
    end
  done;
  let ng = Stdlib.max 1 !groups in
  let weights = Array.make ng 0 in
  for id = 0 to n - 1 do
    match (node t id).kind with
    | Router _ -> weights.(group.(id)) <- weights.(group.(id)) + 1
    | Host _ -> ()
  done;
  let etbl = Hashtbl.create 256 in
  for id = 0 to n - 1 do
    iter_slots t id (fun s ->
        let peer = slot_peer t s in
        if id < peer then begin
          let gu = group.(id) and gv = group.(peer) in
          if gu <> gv then begin
            let key = if gu < gv then (gu, gv) else (gv, gu) in
            let delay = slot_delay t s in
            match Hashtbl.find_opt etbl key with
            | Some l when l <= delay -> ()
            | _ -> Hashtbl.replace etbl key delay
          end
        end)
  done;
  let edges =
    (* (u, v) keys are unique in etbl, so the pair alone orders fully *)
    Hashtbl.fold (fun (u, v) l acc -> (u, v, l) :: acc) etbl []
    |> List.sort (fun (u1, v1, _) (u2, v2, _) ->
           match Int.compare u1 u2 with 0 -> Int.compare v1 v2 | c -> c)
    |> Array.of_list
  in
  let assign = Mifo_topology.Partition.partition ~parts:domains ~weights ~edges in
  Mifo_topology.Partition.report
    (Mifo_topology.Partition.stats ~weights ~edges ~assign);
  set_shards t (Array.init n (fun id -> assign.(group.(id))))

(* Move the setup-time events (Start_flows scheduled by add_flow before
   the first run) from the singleton queue into per-shard queues.
   Draining in (time, seq) order preserves each shard's relative order,
   so the per-shard seq order is the serial seq order restricted to
   that shard; the barrier tick scheduled after the drain gets a later
   seq than every pre-run event — exactly the serial run loop's
   ordering. *)
let activate_shards t =
  if Array.length t.shard_of = 0 then auto_shards t ~domains:t.cfg.domains;
  let ns = 1 + Array.fold_left Stdlib.max 0 t.shard_of in
  if ns > 1 then begin
    let old = t.execs.(0) in
    let execs = Array.init ns make_exec in
    let continue = ref true in
    while !continue do
      match Eventq.pop_before old.xq ~until:infinity with
      | None -> continue := false
      | Some ev ->
        let time = Eventq.last_time old.xq in
        let home =
          match ev with
          | Start_flow f | Emit { flow = f } ->
            t.shard_of.((Vec.get t.flows f).src_host)
          | Timeout { host; _ } -> t.shard_of.(host)
          | Arrive _ | Train _ | Daemon_tick ->
            (* no packet or tick exists before the first run *)
            assert false
        in
        Eventq.schedule execs.(home).xq ~time ev
    done;
    t.execs <- execs;
    t.sharded <- true;
    t.mboxes <- Array.init (ns * ns) (fun _ -> make_mailbox ());
    t.daemon_scheduled <- true;
    t.sh_next_tick <- t.cfg.daemon_period;
    Array.iter (fun ex -> Eventq.schedule ex.xq ~time:t.sh_next_tick Daemon_tick) execs
  end

(* Barrier: schedule every parked boundary packet into its destination
   shard's queue in (arrival time, source seq, source shard) order —
   the documented deterministic merge.  Scheduling in that order makes
   the destination seqs respect it, so two boundary packets tie-break
   exactly as the rule says. *)
let drain_mailboxes t =
  let ns = Array.length t.execs in
  for d = 0 to ns - 1 do
    let total = ref 0 in
    for s = 0 to ns - 1 do
      total := !total + Vec.length t.mboxes.((s * ns) + d).mb_time
    done;
    if !total > 0 then begin
      let keys = Array.make !total (0., 0, 0, 0) in
      let k = ref 0 in
      for s = 0 to ns - 1 do
        let mb = t.mboxes.((s * ns) + d) in
        for i = 0 to Vec.length mb.mb_time - 1 do
          keys.(!k) <- (Vec.get mb.mb_time i, Vec.get mb.mb_seq i, s, i);
          incr k
        done
      done;
      Array.sort
        (fun (ta, sa, pa, _) (tb, sb, pb, _) ->
          let c = Float.compare ta tb in
          if c <> 0 then c
          else
            let c = Int.compare sa sb in
            if c <> 0 then c else Int.compare pa pb)
        keys;
      let dst = t.execs.(d) in
      Array.iter
        (fun (time, _, s, i) ->
          let mb = t.mboxes.((s * ns) + d) in
          let a = dst.arena in
          let h = slot_alloc a in
          for f = 0 to header_words - 1 do
            set a h f (Vec.get mb.mb_hdr ((i * header_words) + f))
          done;
          Eventq.schedule dst.xq ~time
            (Arrive { node = Vec.get mb.mb_node i; port = Vec.get mb.mb_port i; pkt = h }))
        keys;
      for s = 0 to ns - 1 do
        let mb = t.mboxes.((s * ns) + d) in
        Vec.clear mb.mb_time;
        Vec.clear mb.mb_seq;
        Vec.clear mb.mb_node;
        Vec.clear mb.mb_port;
        Vec.clear mb.mb_hdr
      done
    end
  done

let fire_completions t =
  match t.on_complete with
  | None -> ()
  | Some f ->
    let total = Array.fold_left (fun a ex -> a + Vec.length ex.x_done) 0 t.execs in
    if total > 0 then begin
      let keys = Array.make total (0., 0) in
      let k = ref 0 in
      Array.iter
        (fun ex ->
          for i = 0 to Vec.length ex.x_done - 1 do
            keys.(!k) <- (Vec.get ex.x_done_t i, Vec.get ex.x_done i);
            incr k
          done;
          Vec.clear ex.x_done_t;
          Vec.clear ex.x_done)
        t.execs;
      Array.sort
        (fun (ta, fa) (tb, fb) ->
          let c = Float.compare ta tb in
          if c <> 0 then c else Int.compare fa fb)
        keys;
      Array.iter (fun (_, flow) -> f flow) keys
    end

(* The coordinator's daemon tick: all shards just popped their barrier
   marker at [now].  Counts as one event, like the serial tick pop. *)
let do_tick t ~now =
  Array.iter
    (fun ex ->
      ex.x_hit_tick <- false;
      ex.xclk.(0) <- now)
    t.execs;
  daemon_tick t ~now;
  sample_queue_health t;
  t.sh_ticks <- t.sh_ticks + 1;
  if Array.exists (fun ex -> not (Eventq.is_empty ex.xq)) t.execs then begin
    t.sh_next_tick <- now +. t.cfg.daemon_period;
    Array.iter (fun ex -> Eventq.schedule ex.xq ~time:t.sh_next_tick Daemon_tick) t.execs
  end
  else t.sh_next_tick <- infinity

(* One shard's slice of a window: the serial dispatch loop bounded at
   the window end, stopping early (without counting) when it pops the
   tick barrier marker. *)
let shard_window t (ex : exec) ~until =
  let continue = ref true in
  while !continue && Eventq.due ex.xq ~until do
    match Eventq.take ex.xq with
    | Train { node; port } ->
      ex.x_events <- ex.x_events + 1;
      train_drain t ex node port ~until
    | Daemon_tick ->
      ex.x_hit_tick <- true;
      continue := false
    | ev ->
      ex.x_events <- ex.x_events + 1;
      handle t ex ev
  done

let run_sharded t ~until =
  let execs = t.execs in
  let ns = Array.length execs in
  let pool = Mifo_util.Parallel.get_default () in
  let continue = ref true in
  while !continue do
    (* mailboxes are empty here (drained at every barrier), so the
       earliest pending event anywhere is the next window's start *)
    let next =
      Array.fold_left
        (fun acc ex ->
          match Eventq.peek_time ex.xq with Some tm when tm < acc -> tm | _ -> acc)
        infinity execs
    in
    if next = infinity || next > until then continue := false
    else begin
      let tick_at = t.sh_next_tick in
      let wend = Float.min (Float.min (next +. t.lookahead) tick_at) until in
      t.sh_windows <- t.sh_windows + 1;
      Mifo_util.Parallel.fork_join pool ns (fun s ->
          shard_window t execs.(s) ~until:wend);
      drain_mailboxes t;
      fire_completions t;
      if Array.exists (fun ex -> ex.x_hit_tick) execs then do_tick t ~now:tick_at
    end
  done;
  (* settle every shard clock at the global frontier and take the same
     end-of-run health sample the serial loop takes *)
  let tmax = Array.fold_left (fun a ex -> Float.max a ex.xclk.(0)) 0. execs in
  Array.iter (fun ex -> ex.xclk.(0) <- tmax) execs;
  sample_queue_health t

let run ?(until = infinity) t =
  (* map the ports and size the train events here, before any shard's
     event loop reads them *)
  ignore (port_map t);
  size_train_ev t.ports;
  if
    (not t.sharded)
    && (not t.daemon_scheduled)
    && Option.is_none t.tracer
    && (Array.length t.shard_of > 0 || t.cfg.domains > 1)
  then activate_shards t;
  if t.sharded then run_sharded t ~until else run_serial ~until t

type shard_stats = {
  shards : int;
  cut_links : int;
  lookahead : float;
  windows : int;
  barrier_ticks : int;
}

let shard_stats t =
  {
    shards = Array.length t.execs;
    cut_links = t.sh_cut_links;
    lookahead = (if t.sharded then t.lookahead else 0.);
    windows = t.sh_windows;
    barrier_ticks = t.sh_ticks;
  }

type flow_result = { flow : int; start : float; finish : float option; bytes : int }

let flow_results t =
  Array.map
    (fun (f : flow_rec) ->
      { flow = f.id; start = f.start; finish = f.finish; bytes = f.bytes })
    (Vec.to_array t.flows)

let throughput_series t =
  (* Bucket bits are exact int sums per shard, so adding across shards
     is order-independent and a sharded run serializes bit-identically
     to the serial oracle. *)
  let len = Array.fold_left (fun a ex -> Stdlib.max a (Vec.length ex.x_goodput)) 0 t.execs in
  Array.init len (fun i ->
      let bits =
        Array.fold_left
          (fun a ex -> if i < Vec.length ex.x_goodput then a + Vec.get ex.x_goodput i else a)
          0 t.execs
      in
      ( float_of_int i *. t.cfg.series_interval,
        float_of_int bits /. t.cfg.series_interval ))

let counters t =
  Array.fold_left
    (fun acc ex ->
      {
        delivered_packets = acc.delivered_packets + ex.x_delivered;
        dropped_queue = acc.dropped_queue + ex.x_drop_queue;
        dropped_ttl = acc.dropped_ttl + ex.x_drop_ttl;
        dropped_valley = acc.dropped_valley + ex.x_drop_valley;
        dropped_no_route = acc.dropped_no_route + ex.x_drop_no_route;
        encapsulated = acc.encapsulated + ex.x_encapsulated;
        deflected = acc.deflected + ex.x_deflected;
      })
    {
      delivered_packets = 0;
      dropped_queue = 0;
      dropped_ttl = 0;
      dropped_valley = 0;
      dropped_no_route = 0;
      encapsulated = 0;
      deflected = 0;
    }
    t.execs

(* Packet conservation.  Every slot a host originates ends in exactly
   one place: absorbed at a host (delivered data, an ACK at its sender,
   or a stray), dropped (one counter per class), or still in flight — a
   live arena slot or a header parked in a mailbox. *)
let sum_execs t f = Array.fold_left (fun acc ex -> acc + f ex) 0 t.execs
let originated t = sum_execs t (fun ex -> ex.x_originated)
let acks_absorbed t = sum_execs t (fun ex -> ex.x_acks)
let strays_absorbed t = sum_execs t (fun ex -> ex.x_stray)

let in_flight t =
  sum_execs t (fun ex -> ex.arena.live)
  + Array.fold_left (fun acc mb -> acc + Vec.length mb.mb_seq) 0 t.mboxes

let path_switches t =
  let totals = Vec.create () in
  for id = 0 to Vec.length t.nodes - 1 do
    match (node t id).kind with
    | Host _ -> ()
    | Router r ->
      for flow = 0 to Array.length r.switches - 1 do
        let c = r.switches.(flow) in
        if c > 0 then begin
          Vec.ensure totals (flow + 1) 0;
          Vec.set totals flow (Vec.get totals flow + c)
        end
      done
  done;
  (* flows ascending, built back to front — no sort needed *)
  let acc = ref [] in
  for flow = Vec.length totals - 1 downto 0 do
    let c = Vec.get totals flow in
    if c > 0 then acc := (flow, c) :: !acc
  done;
  !acc

(* Read-only topology/state exports for the static verifier
   (Mifo_analysis.Net_check): enough to rebuild the forwarding graph —
   nodes, ports with their kinds and far ends, FIBs (via [fib]) and the
   iBGP routing table — without exposing any mutable simulator state. *)

type node_view = Router_view of { as_id : int } | Host_view of { addr : Prefix.addr }

let node_count t = Vec.length t.nodes

let node_view t id =
  match (node t id).kind with
  | Router r -> Router_view { as_id = r.as_id }
  | Host h -> Host_view { addr = h.addr }

let is_router t id = match (node t id).kind with Router _ -> true | Host _ -> false
let router_as t id = (router_exn t id).as_id
let host_addr t id = (host_exn t id).addr
let port_count t id = (node t id).nports
let port_kind t id p = t.ports.kinds.(port_slot t id p)
let port_peer_node t id p = slot_peer t (port_slot t id p)

let port_peer t id p =
  let i = port_slot t id p * pi_stride in
  (t.ports.pi.(i + pi_peer), t.ports.pi.(i + pi_peer_port))

let port_rate t id p = t.ports.lf.(link_of (port_slot t id p) + lf_rate)
let port_delay t id p = slot_delay t (port_slot t id p)
let port_queue_bits t id p = int_of_float t.ports.lf.(link_of (port_slot t id p) + lf_qlimit)

let ibgp_route t id peer = ibgp_port (router_exn t id) peer

let set_completion_hook t f = t.on_complete <- Some f
let set_tracer t f = t.tracer <- Some f
