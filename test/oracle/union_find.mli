(** Disjoint-set forest with union by rank and path compression.

    The topology tests use it to check that generated graphs are
    connected. *)

type t

val create : int -> t
(** [create n] builds [n] singleton sets labelled [0..n-1]. *)

val find : t -> int -> int
(** Canonical representative; compresses paths. *)

val union : t -> int -> int -> bool
(** [union t a b] merges the sets of [a] and [b]; returns [false] when they
    were already in the same set. *)

val same : t -> int -> int -> bool
val count_sets : t -> int
