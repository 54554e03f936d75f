(** Max-min fair bandwidth allocation (progressive filling).

    The flow-level simulator models long-lived TCP flows sharing links as
    a max-min fair allocation, the standard fluid abstraction: all flow
    rates rise together until a link saturates, the flows bottlenecked
    there freeze at the fair share, and the rest keep rising.

    The implementation keeps a lazy min-heap of per-link saturation
    levels.  A link's level (cap - frozen) / unfrozen only grows as flows
    freeze, so a popped stale key can simply be re-pushed; the run time is
    O(L + M log L') for L links, L' of them crossed by some flow, and M
    flow-link memberships: the only pass over every link is one
    ascending scan of an int array.

    {!Solver} is the incremental engine the simulator's hot loop uses:
    flows register their link sets once, every scratch array persists
    across solves, and a solve allocates nothing at steady state.  The
    test suite holds its rates and per-link allocations bit-identical to
    a stateless per-call reference allocator (same float expressions,
    same heap pop order). *)

val dedup_links : int array -> int array
(** Canonical link set of a path: sorted ascending, duplicates removed.
    Returns a fresh array; the input is untouched. *)

(** Persistent incremental solver: progressive filling with zero
    allocation per solve at steady state.

    Intended use: [create] once per simulation, [register] each flow's
    {!dedup_links}-canonical link set at arrival, [set_links] on a path
    switch, [unregister] at completion, [set_capacity] on failure, and
    call [solve] each epoch.  [solve] also computes the per-link
    allocation (the sum of the rates of the flows crossing each link)
    in the same pass, exposed via {!val-link_allocs}.

    An empty link set means the flow is unconstrained: its rate is
    [Float.infinity] (the flow simulator never produces such flows:
    every flow crosses at least its access links).  Re-solving with no
    {!register}, {!unregister}, {!set_links} or {!set_capacity} in
    between reproduces the previous rates and allocations bit for bit,
    which is what lets the flow simulator skip clean epochs. *)
module Solver : sig
  type t

  val create : ?capacity:float -> nlinks:int -> unit -> t
  (** [create ~nlinks ()] makes a solver for links [0 .. nlinks - 1],
      each with initial capacity [capacity] (default [0.]).

      @raise Invalid_argument on negative [nlinks] or a negative or NaN
      [capacity]. *)

  val nlinks : t -> int
  val capacity : t -> int -> float

  val set_capacity : t -> int -> float -> unit
  (** @raise Invalid_argument on a negative or NaN capacity. *)

  val register : t -> int array -> int
  (** [register t links] admits a flow crossing [links] and returns its
      slot handle.  [links] must be sorted ascending and duplicate-free
      ({!dedup_links} output); the array is kept by reference — do not
      mutate it while registered.

      @raise Invalid_argument on unsorted, duplicated, or out-of-range
      link ids. *)

  val set_links : t -> int -> int array -> unit
  (** Replace a registered flow's link set (path switch).  Same
      preconditions as {!register}. *)

  val unregister : t -> int -> unit
  (** Release a slot (flow completed).  The slot id may be reused by a
      later {!register}. *)

  val solve : t -> int array -> int -> unit
  (** [solve t active n] runs waterfilling over the flows
      [active.(0 .. n - 1)] (slot handles, caller's order).  Flow order
      determines the per-link allocation accumulation order (and so its
      rounding); pass a deterministic order.  Rates of slots not in
      [active] are stale after the call; reading them is a caller bug.

      @raise Invalid_argument on a bad length or an unknown slot. *)

  val rate : t -> int -> float
  (** Rate of a slot as of the last {!solve} ([Float.infinity] for a
      flow with an empty link set). *)

  val rates_into : t -> int array -> int -> float array -> unit
  (** [rates_into t active n dst] writes {!rate}[ t active.(i)] into
      [dst.(i)] for [i < n]: the same values, read without boxing a
      float per slot.

      @raise Invalid_argument on a bad length or an unknown slot. *)

  val link_allocs : t -> float array
  (** Per-link allocated bandwidth as of the last {!solve}.  Returns the
      solver's internal array — valid until the next {!solve}, and not
      to be mutated. *)

  val solves : t -> int
  (** Number of {!solve} calls so far (skip-rate accounting). *)
end
