(** Allocation-free in-place sorting of an array prefix. *)

val sort_prefix : cmp:('a -> 'a -> int) -> 'a array -> int -> unit
(** [sort_prefix ~cmp a len] sorts [a.(0) .. a.(len - 1)] in place
    (heapsort: O(len log len), zero allocation); elements at and beyond
    [len] are untouched.  [cmp] must be a {e total} order — no two
    elements of the prefix comparing equal — so the result is the unique
    sorted sequence and deterministically identical to [Array.sort].

    @raise Invalid_argument if [len] is negative or exceeds the array
    length. *)

val sort_ints : int array -> int -> int -> unit
(** [sort_ints a base len] sorts [a.(base) .. a.(base + len - 1)] in
    ascending int order, in place (heapsort: O(len log len), zero
    allocation, no comparison closure).  The caller keeps the range
    inside [a]. *)
