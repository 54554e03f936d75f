(** Reference oracle for {!Mifo_netsim.Eventq}: the original binary-heap
    event queue ({!Mifo_util.Heap} over boxed items, O(log n) per
    operation).  Same key as the production queue — simulated time, then
    a monotonic sequence number, so simultaneous events pop in insertion
    order — and the same API shape, so a gate can drive both with one
    schedule. *)

type 'a t

val create : unit -> 'a t

val schedule : 'a t -> time:float -> 'a -> unit
(** @raise Invalid_argument on NaN or negative time. *)

val alloc_seq : 'a t -> int
(** Claim the next sequence number without scheduling, as
    {!Mifo_netsim.Eventq.alloc_seq}. *)

val schedule_seq : 'a t -> time:float -> seq:int -> 'a -> unit
(** Schedule under a sequence number claimed earlier with {!alloc_seq},
    as {!Mifo_netsim.Eventq.schedule_at}.
    @raise Invalid_argument on NaN or negative time. *)

val next : 'a t -> (float * 'a) option

val pop_before : 'a t -> until:float -> (float * 'a) option
(** Pop the next event only if its time is [<= until]. *)

val peek_key : 'a t -> (float * int) option
val is_empty : 'a t -> bool
