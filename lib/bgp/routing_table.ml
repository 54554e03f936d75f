(* One write-once slot per destination.  A miss computes outside any
   lock and publishes with [compare_and_set]; the loser of a fill race
   drops its own state and returns the winner's, so every [get] of a
   destination returns the same physical [Routing.t]. *)

module Parallel = Mifo_util.Parallel

type t = {
  graph : Mifo_topology.As_graph.t;
  slots : Routing.t option Atomic.t array;
}

let create graph =
  {
    graph;
    slots = Array.init (Mifo_topology.As_graph.n graph) (fun _ -> Atomic.make None);
  }

let graph t = t.graph

let get t d =
  if d < 0 || d >= Array.length t.slots then
    invalid_arg "Routing_table.get: destination out of range";
  let slot = t.slots.(d) in
  match Atomic.get slot with
  | Some route -> route
  | None ->
    let route = Routing.compute t.graph d in
    if Atomic.compare_and_set slot None (Some route) then route
    else Option.get (Atomic.get slot)

let precompute t dests =
  Parallel.parallel_for (Parallel.get_default ()) ~lo:0 ~hi:(Array.length dests)
    (fun i -> ignore (get t dests.(i)))

let cached_count t =
  Array.fold_left
    (fun acc slot -> if Option.is_some (Atomic.get slot) then acc + 1 else acc)
    0 t.slots
