(** Reference oracle for {!Mifo_netsim.Eventq}: the original binary-heap
    event queue ({!Mifo_util.Heap}, O(log n) per operation).  Same key as
    the production timing wheel — simulated time, then a monotonic
    sequence number, so simultaneous events pop in insertion order — and
    the same API shape, so a gate can drive both with one schedule. *)

type 'a t

val create : unit -> 'a t

val schedule : 'a t -> time:float -> 'a -> unit
(** @raise Invalid_argument on NaN or negative time. *)

val next : 'a t -> (float * 'a) option

val pop_before : 'a t -> until:float -> (float * 'a) option
(** Pop the next event only if its time is [<= until]. *)

val peek_key : 'a t -> (float * int) option
val is_empty : 'a t -> bool
