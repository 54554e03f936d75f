(** Growable array (amortized O(1) push).

    OCaml 5.1 predates [Dynarray]; this is the small subset the
    simulators and the topology generator need. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val pop : 'a t -> 'a option
val clear : 'a t -> unit
val iter : ('a -> unit) -> 'a t -> unit
val fold_left : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
val to_array : 'a t -> 'a array
val of_array : 'a array -> 'a t
val swap_remove : 'a t -> int -> 'a
(** Remove index [i] in O(1) by moving the last element into its slot;
    returns the removed element. *)

val capacity : 'a t -> int
(** Length of the backing array — the memory actually held, as opposed
    to {!length}, the elements in use.  The spread between the two is
    what {!trim} reclaims. *)

val trim : 'a t -> unit
(** Shrink the backing array to exactly {!length} elements (to [[||]]
    when empty), releasing the slack a past deep backlog left behind.
    O(length) copy when something is released; a no-op when the vec is
    already tight.  Elements and order are unchanged. *)

val ensure : 'a t -> int -> 'a -> unit
(** [ensure t n fill] grows [t] to length at least [n], initializing any
    new slots with [fill].  A no-op when [t] is already long enough —
    the backbone of flat int-keyed tables (flow id -> value) that replace
    hashtables on simulator hot paths. *)
