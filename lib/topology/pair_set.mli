(** A set of unordered pairs of dense ids.

    An open-addressed hash table over one int key per pair, in one flat
    int array: [{u, v}] and [{v, u}] are the same pair.  {!As_graph},
    the generator's edge set and {!As_rel_io} use it to reject duplicate
    links.  Ids must lie in \[0, 2{^31}).

    [add] is expected O(1) and allocates nothing, except when it doubles
    the table at half load.  A set sized for [k] pairs holds a table of
    2k to 4k words. *)

type t

val create : int -> t
(** [create k] is an empty set sized for about [k] pairs. *)

val add : t -> int -> int -> bool
(** [add t u v] adds [{u, v}] and returns [true] when it was absent; it
    returns [false], leaving [t] unchanged, when it was present.
    @raise Invalid_argument when an id is outside \[0, 2{^31}). *)
