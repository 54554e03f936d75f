(** Polymorphic binary min-heap.

    Backs the simulators' event queues: O(log n) push/pop, amortized O(1)
    space reuse via a growable array.  The order is given at creation
    time, so one heap type serves both the packet-level event queue
    (ordered by simulated time) and auxiliary priority queues. *)

type 'a t

val create : ?capacity:int -> cmp:('a -> 'a -> int) -> unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit
val peek : 'a t -> 'a option

val drop : 'a t -> unit
(** Remove the top element (no-op when empty) without returning it —
    the allocation-free counterpart of {!pop} for callers that already
    read the top via {!peek}. *)

val pop : 'a t -> 'a option
val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit
val of_array : cmp:('a -> 'a -> int) -> 'a array -> 'a t
(** Heapify in O(n). *)

val to_sorted_list : 'a t -> 'a list
(** Non-destructive; ascending order. *)
