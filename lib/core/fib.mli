(** The MIFO-modified FIB (Fig. 1), generalized to ranked alternatives.

    A classic FIB maps a prefix to the default output port; MIFO adds
    alternative ports pointing at the best alternative paths, kept up to
    date by the MIFO daemon, plus the adaptive deflection level the
    daemon uses to shift flows onto them.  Lookup is longest-prefix
    match.

    Each entry holds a {e ranked set} of up to {!max_alts} alternative
    port ids (slot 0 = most preferred).  The [?alt_port] insert argument
    installs a singleton set; the daemon writes whole sets through
    {!set_alts}.

    Deflection granularity: flows hash into [buckets] (64) buckets and an
    entry deflects the first [deflect_buckets] of them, so path choice is
    deterministic per flow (no packet reordering — Section II-A) while
    the daemon ramps the deflected share up under congestion and back
    down when the default path drains.  Deflected buckets are spread
    ECMP-style over the ranked slots: bucket [b] of an entry with [c]
    live alternatives uses slot [b mod c], so each alternative receives
    a deterministic slice of the flow space and a single-alternative
    entry behaves exactly like the k=1 data plane.

    {b Representation.}  A table is two int arrays: an append-only
    arena holding each entry's prefix key, [out_port],
    [deflect_buckets] and {!max_alts} alternative slots back to back,
    and one open-addressed index of arena ids over every prefix
    length, probed by the prefix.  No per-entry boxes, no per-length
    tables: an 8-entry table is 80 words (its record, a 16-slot index
    and a 56-int arena), which is what lets a 44K-router network's FIBs
    fit in flat memory.
    A QCheck gate in [test_core] holds it observationally identical to
    a boxed one-[Hashtbl]-per-length reference model under random
    insert/set-alts churn. *)

type t

(** {1 Entry handles}

    An entry is named by a plain int: its arena id and prefix length
    packed as [id * 64 + length].  {!find}, {!lpm} and {!iter} hand out
    handles, and every field has one reader taking the table and the
    handle, so reading or writing an entry allocates nothing.  Entries
    are never removed, so a handle stays valid as long as its table —
    an [insert], even one that grows the table, never moves an entry.
    A handle is only meaningful with the table that issued it. *)

type entry = int

val buckets : int
(** Number of hash buckets (64). *)

val max_alts : int
(** Number of ranked alternative slots per entry (4). *)

val create : unit -> t
(** An empty table: one small record.  Its arrays are allocated on the
    first [insert] (8 entries) and doubled as it fills. *)

val insert : t -> Mifo_bgp.Prefix.t -> out_port:int -> ?alt_port:int -> unit -> unit
(** Installs or refreshes the entry for a prefix.

    On a re-insert whose [out_port] matches the existing entry (a route
    refresh), the call's [alt_port] is authoritative for the primary
    alternative: omitted ([None]) means {e no alternative} and clears the whole
    ranked set and the deflection level; a hint equal to the entry's
    current slot-0 alternative preserves the live daemon-owned state
    (ranked set and [deflect_buckets]) untouched; any other hint
    replaces the set with that singleton and resets the deflection
    level.  A re-insert with a different [out_port] is a route change:
    the entry is replaced outright and the deflection state reset. *)

val insert_alt : t -> Mifo_bgp.Prefix.t -> out_port:int -> alt:int -> unit
(** [insert] with the alternative as a plain int, [-1] for none: the
    form for loops that fill many tables, since passing [~alt_port]
    boxes a [Some].  Adding an entry to a table with room allocates
    nothing. *)

val key_of_addr : Mifo_bgp.Prefix.addr -> int
(** An address as the unsigned 32-bit int key {!lpm} takes. *)

val lpm : t -> int -> entry
(** [lpm t key] is the longest-prefix-match entry for the address [key]
    (see {!key_of_addr}), or [-1] on a miss.  The per-hop forwarding
    decision runs this; no closure, option or view is allocated. *)

val find : t -> Mifo_bgp.Prefix.t -> entry
(** Exact-prefix lookup: the prefix's entry, or [-1] when absent. *)

val iter : t -> (entry -> unit) -> unit
(** Every entry, by prefix length and then insertion order.  Each
    prefix length in use is one pass over the table, so the cost is
    linear in the entries times the lengths in use (a no-op walk of
    16,000 entries: about 2 ns per entry over one length, 7 over four,
    16–20 over eight).  The tables [As_network] and [Loop_walk] build
    hold /24s only, the testbed's a few /24s and /32s;
    [Daemon.epoch_ranked] walks each router's table once per tick. *)

val size : t -> int
(** Number of entries — a cached O(1) count (it sits on the
    [validate]/metrics path). *)

val may_deflect : t -> bool
(** Whether any entry currently has a nonempty ranked alternative set —
    an exact count, {e not} a sticky historical flag: it is maintained
    by {!insert} and {!set_alts}, so withdrawing the last alternative
    turns it back off and re-enables callers' no-deflection fast paths
    (e.g. the {!Mifo_netsim.Packetsim} daemon tick skips chooser-less
    routers whose table cannot deflect). *)

val prefix_key : t -> entry -> int
(** The entry's prefix as one int: its network as a {!key_of_addr} key
    times 64 plus its length.  Two entries' keys are equal exactly when
    their prefixes are. *)

val key_of_prefix : Mifo_bgp.Prefix.t -> int
(** A prefix as the int {!prefix_key} reads off its entry. *)

val prefix : t -> entry -> Mifo_bgp.Prefix.t
(** The entry's prefix, boxed: for report strings, not per-entry work. *)

(** {1 Entry fields}

    Ranked slots are kept compacted: live alternatives occupy slots
    [0 .. alt_count-1] in rank order and the remaining slots read
    [-1]. *)

val out_port : t -> entry -> int
(** The default port. *)

val alt_count : t -> entry -> int
(** Number of live ranked alternatives, in \[0, {!max_alts}\]. *)

val alt_at : t -> entry -> int -> int
(** [alt_at t e slot] is the port in ranked slot [slot], or [-1] when
    the slot is empty or out of range. *)

val deflect_buckets : t -> entry -> int
(** [0] = all flows on the default path. *)

val set_alts : t -> entry -> int array -> int -> unit
(** [set_alts t e ports n] installs the first [n] elements of [ports]
    as the ranked set: negatives are dropped, order kept, truncated at
    {!max_alts}, higher slots cleared.  Does not touch
    [deflect_buckets] — per-slot ramp policy lives in [Daemon]. *)

val set_deflect_buckets : t -> entry -> int -> unit

val flow_bucket : int -> int
(** Deterministic bucket of a flow id, in \[0, buckets).  A flow is
    deflected at an entry when its bucket is below {!deflect_buckets}. *)

val slot_of_bucket : bucket:int -> count:int -> int
(** The ECMP spreading function: ranked slot used by deflected bucket
    [bucket] when [count] ≥ 1 alternatives are live ([bucket mod
    count]). *)
