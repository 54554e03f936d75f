(** Allocation-free in-place sorting of an int range. *)

val sort_ints : int array -> int -> int -> unit
(** [sort_ints a base len] sorts [a.(base) .. a.(base + len - 1)] in
    ascending int order, in place (heapsort: O(len log len), zero
    allocation, no comparison closure).  The caller keeps the range
    inside [a]. *)
