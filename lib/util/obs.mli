(** Process-wide observability: named counters, gauges and fixed-bucket
    histograms, plus a bounded ring-buffer event trace.

    All metric updates are domain-safe — counters and gauges are atomics,
    histogram buckets are atomic cells — so instrumented code may run on
    the {!Parallel} domain pool without extra locking.  Metric creation
    and trace appends take a single process-wide mutex; create metrics
    once at module initialisation and keep the handle, rather than
    looking them up per event.

    The registry is global on purpose: instrumentation points deep in
    the engine would otherwise need a context parameter threaded through
    every caller.  Snapshots are deterministic (names are emitted in
    sorted order); the numeric {e values} depend on how much traffic a
    run pushed through the instrumented paths, not on domain
    interleaving, because every update is a commutative increment.

    {2 Metrics schema}

    A snapshot serialises as one JSON object:

    {v
    { "counters":   { "<name>": <int>, ... },
      "gauges":     { "<name>": <float|null>, ... },
      "histograms": { "<name>": { "bounds": [<float>...],
                                  "counts": [<int>...],   (length = bounds+1)
                                  "sum": <float>, "count": <int> }, ... },
      "trace":      { "capacity": <int>, "recorded": <int>, "kept": <int> } }
    v}

    Non-finite gauge values serialise as [null].  The trace itself is
    written separately as JSONL, one event per line:

    {v {"seq":<int>,"t":<float>,"event":"<name>","<field>":<value>,...} v}

    [seq] increases by one per recorded event, so a gap at the start of
    a file means the ring overwrote older events; [t] is omitted for
    events that carry no timestamp. *)

type counter
type gauge
type histogram

(** {1 Counters} *)

val counter : string -> counter
(** [counter name] returns the process-wide counter registered under
    [name], creating it (at zero) on first use. *)

val incr : counter -> unit
val add : counter -> int -> unit

val value : counter -> int

val counter_value : string -> int
(** Current value of the counter registered under the given name, or 0
    if no such counter exists.  Convenience for tests and assertions. *)

(** {1 Gauges} *)

val gauge : string -> gauge
(** [gauge name] returns the gauge registered under [name], creating it
    (at [nan], serialised as [null]) on first use. *)

val set_gauge : gauge -> float -> unit
val add_gauge : gauge -> float -> unit
(** [add_gauge g x] accumulates: an unset ([nan]) gauge is treated as 0. *)

val max_gauge : gauge -> float -> unit
(** [max_gauge g x] keeps the running maximum: the gauge becomes
    [max current x] (an unset [nan] gauge takes [x]).  The high-water
    helper behind peak-memory gauges such as [routing.peak_words]. *)

type int_gauge

val int_gauge : string -> int_gauge
(** [int_gauge name] is a gauge that moves in whole steps, for a
    per-item count such as [fib.entries]: a step is one atomic int add
    and allocates nothing.  It reads and serialises like a float gauge
    ([nan] / [null] until the first step).  A name is a float gauge or
    an int gauge, never both: asking for the other kind raises
    [Invalid_argument]. *)

val add_int_gauge : int_gauge -> int -> unit
(** [add_int_gauge g n] adds [n]; an unset gauge counts from 0. *)

val gauge_value : string -> float
(** Current value of the named gauge, float or int, [nan] if unset or
    unknown. *)

(** {1 Histograms} *)

val histogram : ?bounds:float array -> string -> histogram
(** [histogram ~bounds name] returns the histogram registered under
    [name].  [bounds] are inclusive upper bounds, strictly increasing;
    an observation lands in the first bucket whose bound is [>=] the
    value, or in the implicit overflow bucket.  [bounds] is only
    consulted when the histogram is first created; later calls return
    the existing histogram unchanged.  The default bounds suit ratios
    in [0, 1] with an overflow bucket above 1. *)

val observe : histogram -> float -> unit

val observe_n : histogram -> float -> int -> unit
(** [observe_n h x n] records [n] observations of value [x] in one
    update — the bulk form of {!observe} for hot paths that tally
    locally and flush periodically (one bucket scan and three atomic
    updates total instead of per sample).  No-op when [n <= 0]. *)

val histogram_count : string -> int
(** Total number of observations recorded by the named histogram, or 0
    if no such histogram exists. *)

(** {1 Event trace} *)

type field =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

val set_trace_capacity : int -> unit
(** [set_trace_capacity n] clears the trace and makes it keep the most
    recent [n] events.  Capacity 0 (the initial state) disables tracing
    entirely; {!event} then returns without taking the lock. *)

val trace_enabled : unit -> bool
(** Cheap (single atomic read) guard for call sites that would otherwise
    build a field list per packet. *)

val event : ?t:float -> string -> (string * field) list -> unit
(** [event ?t name fields] appends an event to the ring buffer; a no-op
    while tracing is disabled.  [t] is the simulated or wall-clock time,
    whichever the call site has. *)

val events : unit -> (int * float option * string * (string * field) list) list
(** The retained events, oldest first, as [(seq, t, name, fields)]. *)

(** {1 Snapshots} *)

val snapshot_json : unit -> string
(** The full metrics snapshot as a JSON document (schema above). *)

val trace_jsonl : unit -> string
(** The retained trace as JSONL, one event per line, oldest first. *)

val write_metrics : string -> unit
(** Write {!snapshot_json} to the given file path. *)

val write_trace : string -> unit
(** Write {!trace_jsonl} to the given file path. *)

val reset : unit -> unit
(** Drop every registered metric and all retained trace events (the
    trace capacity is kept).  Handles obtained before [reset] keep
    working but are no longer part of the registry, so tests that
    assert on counter values should re-resolve handles by name after
    resetting, or measure deltas instead. *)

(** {1 Phase timing} *)

val time_phase : string -> (unit -> 'a) -> 'a
(** [time_phase name f] runs [f ()], accumulating its CPU time into the
    gauge [phase.<name>.seconds] and bumping the counter
    [phase.<name>.runs] — also on exception. *)

(** {1 JSON} *)

module Json : sig
  (** A minimal JSON representation: enough to emit the snapshot above
      and to parse it back for validation.  Not a general-purpose JSON
      library — numbers are floats, no streaming, no unicode escapes
      beyond pass-through of [\uXXXX] sequences. *)

  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string

  val parse : string -> t
  (** Parse a complete JSON document.  @raise Failure on malformed
      input or trailing garbage. *)

  val member : string -> t -> t option
  (** [member key (Obj _)] finds the first binding of [key]; [None] on
      missing keys and non-objects. *)
end
