(** Reference oracle for {!Mifo_topology.As_graph.create}: the original
    builder over per-node association lists, a [(int * int)]-keyed
    [Hashtbl] of seen pairs, [List.sort] and a [Queue]-based Kahn pass.

    Its graph record has the field order and types of
    [Mifo_topology.As_graph.t], so on every input [Marshal.to_string]
    of the two results is the same string; and it raises the same
    exceptions as the production builder, first bad edge first. *)

type t

val create : n:int -> edges:(int * int * Mifo_topology.As_graph.edge_kind) list -> t
