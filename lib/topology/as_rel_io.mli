(** Serialization in the CAIDA / UCLA [as-rel] format.

    One link per line, [<as1>|<as2>|<rel>] where [rel = -1] means [as1]
    is the provider of [as2] and [rel = 0] means mutual peering; lines
    starting with ['#'] are comments.  Real inferred topologies (e.g. the
    paper's Nov. 2014 UCLA IRL trace) ship in this format, so a user can
    swap the synthetic graph for a real one without code changes.

    AS numbers are plain decimal in 0..2{^32}-1 and the relationship is
    exactly [-1] or [0]; a sign, a [0x] prefix or a [_] separator is a
    parse error.  Arbitrary AS numbers in the file are mapped to the
    dense ids {!As_graph} uses; the mapping is returned alongside the
    graph. *)

type loaded = {
  graph : As_graph.t;
  as_number : int array;  (** dense id -> original AS number *)
}

exception Parse_error of int * string
(** Line number (1-based) and message.  Every malformed input raises
    it: a bad field, an unknown relationship, a self-loop or a repeated
    link (at the offending line), and a provider cycle or an input
    without links (line 0; a cycle's message names its ASes, each a
    provider of the next). *)

val parse_string : string -> loaded
val load : string -> loaded
(** [load path] reads a file. *)

val to_string : ?as_number:int array -> As_graph.t -> string
(** Serialize; [as_number] relabels dense ids (defaults to identity). *)

val save : ?as_number:int array -> string -> As_graph.t -> unit
