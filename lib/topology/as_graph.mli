(** The AS-level Internet topology.

    Nodes are ASes identified by dense ids [0 .. n-1]; every undirected
    inter-AS link is labelled provider–customer or peer–peer.  The
    provider→customer edges must form a DAG (the standard Gao–Rexford
    hierarchy assumption, which also underpins the paper's stable-state
    analysis); [create] verifies this and derives each AS's depth in the
    hierarchy.

    The accessors expose, for every AS, its neighbors already classified
    into customers / providers / peers, because the route computation and
    the MIFO engine query exactly those sets on their hot paths. *)

type t

type edge_kind =
  | Provider_customer  (** the first endpoint is the provider *)
  | Peer_peer

exception Cyclic_provider_graph
(** Raised by [create] when provider→customer links contain a cycle. *)

exception Duplicate_edge of int * int
(** Raised by [create] when the same unordered AS pair appears twice. *)

(** A growable edge list in three flat arrays, the input of {!of_edges}.
    Entries [0 .. length - 1] of [u], [v] and [kind] are the edges in
    push order; the arrays may be longer.  [push] is amortised O(1) and
    allocates only when it doubles the arrays. *)
module Edges : sig
  type t = private {
    mutable u : int array;
    mutable v : int array;
    mutable kind : edge_kind array;
    mutable length : int;
  }

  val create : int -> t
  (** [create k]: an empty list with room for [k] edges. *)

  val push : t -> int -> int -> edge_kind -> unit
end

val of_edges : n:int -> Edges.t -> t
(** [of_edges ~n e] builds the graph from [e]'s edges.  Endpoints must
    lie in [0 .. n-1]; self-loops are rejected.  Edges are checked in
    push order and the first bad one raises: [Invalid_argument] for an
    endpoint out of range or a self-loop, {!Duplicate_edge} [(u, v)]
    (as pushed) for a pair seen before; {!Cyclic_provider_graph} comes
    after every edge passed.

    O(n + E log d) for maximum degree d: a {!Pair_set} drops duplicates,
    a counting sort lays every adjacency out in one int buffer, each
    node's segment is sorted as ints, and Kahn's algorithm runs over an
    int-array queue.  Besides the graph it returns, it allocates O(n + E)
    words of int-array scratch and no per-edge boxes. *)

val create : n:int -> edges:(int * int * edge_kind) list -> t
(** [create ~n ~edges] is {!of_edges} over the list, in list order. *)

val n : t -> int
val edge_count : t -> int
val pc_edge_count : t -> int
val peer_edge_count : t -> int

val neighbors : t -> int -> int array
(** All neighbors of an AS.  The returned array is owned by the graph —
    do not mutate. *)

val customers : t -> int -> int array
val providers : t -> int -> int array
val peers : t -> int -> int array
val degree : t -> int -> int

val neighbor_index : t -> int -> int -> int
(** [neighbor_index g u v] is the position of [v] in [neighbors g u], or
    [-1] when not adjacent (and when [u = v]): an index into arrays kept
    parallel to [neighbors], to key per-adjacency data.  O(log degree),
    allocation-free. *)

val rel : t -> int -> int -> Relationship.t option
(** [rel g u v] is the role [v] plays relative to [u], or [None] when the
    ASes are not adjacent.  O(log degree). *)

val rel_exn : t -> int -> int -> Relationship.t
(** @raise Not_found when not adjacent. *)

val level : t -> int -> int
(** Depth in the provider hierarchy: 0 for ASes with no provider
    (tier-1); otherwise 1 + max level of its providers.  Strictly
    increases along every provider→customer link. *)

val topological_order : t -> int array
(** ASes ordered so that every provider precedes all of its customers.
    A fresh copy on every call. *)

val topological_at : t -> int -> int
(** [topological_at g i] is [(topological_order g).(i)] without the
    copy, for per-destination loops that walk the order once. *)

val is_stub : t -> int -> bool
(** An AS with no customers. *)

val fold_edges : t -> init:'a -> f:('a -> int -> int -> edge_kind -> 'a) -> 'a
(** Folds over each undirected link once, with the provider first for
    provider–customer links and the lower id first for peering links. *)

val hop_of : t -> int -> int -> Relationship.hop
(** [hop_of g u v] classifies the directed hop [u -> v].
    @raise Not_found when not adjacent. *)

val path_is_valley_free : t -> int list -> bool
(** Whether an AS-level path (list of adjacent ASes) is valley-free.
    @raise Not_found if consecutive ASes are not adjacent. *)
