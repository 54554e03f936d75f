(** Partial-deployment capability maps.

    MIFO is incrementally deployable: only some ASes run it, the rest
    forward as legacy BGP routers.  The evaluation sweeps the deployed
    fraction (10% … 100%), so capability is a first-class value passed to
    every simulation.  The same maps model MIRO deployment. *)

type t

val full : n:int -> t
val none : n:int -> t

val fraction : n:int -> ratio:float -> seed:int -> t
(** A uniformly random subset of [ratio * n] ASes, deterministic in
    [seed].  [ratio] outside \[0, 1\] is clamped. *)

val of_list : n:int -> int list -> t
(** @raise Invalid_argument on out-of-range ids. *)

val capable : t -> int -> bool
val count : t -> int
val size : t -> int
(** Total number of ASes, capable or not. *)

val ratio : t -> float
val members : t -> int list
(** Ascending order. *)
