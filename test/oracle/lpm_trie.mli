(** Reference oracle for {!Mifo_core.Fib}'s longest-prefix match: a
    binary trie over address bits (Patricia tree).

    {!Mifo_core.Fib} uses a per-length scheme that is simple and fast
    for the handful of prefix lengths interdomain tables contain; this
    module is the textbook alternative with O(32) worst-case lookup
    regardless of how many distinct lengths appear.  The property tests
    check the two agree on random tables. *)

module Prefix = Mifo_bgp.Prefix

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool
val cardinal : 'a t -> int

val add : Prefix.t -> 'a -> 'a t -> 'a t
(** Replaces any existing binding for the same prefix.  Persistent. *)

val remove : Prefix.t -> 'a t -> 'a t
val find_exact : Prefix.t -> 'a t -> 'a option

val lookup : Prefix.addr -> 'a t -> (Prefix.t * 'a) option
(** Longest matching prefix and its binding. *)

val fold : (Prefix.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** In ascending (network, length) order. *)

val of_list : (Prefix.t * 'a) list -> 'a t
val to_list : 'a t -> (Prefix.t * 'a) list
