(* The original event-queue backend, kept as the oracle for
   Mifo_netsim.Eventq's flat heap: a generic binary heap over boxed
   (time, seq, payload) items ordered by (time, seq). *)

module Heap = Mifo_util.Heap

type 'a item = { time : float; seq : int; payload : 'a }
type 'a t = { heap : 'a item Heap.t; mutable next_seq : int }

let cmp a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let create () = { heap = Heap.create ~cmp (); next_seq = 0 }

let alloc_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let schedule_seq t ~time ~seq payload =
  if Float.is_nan time || time < 0. then invalid_arg "Heap_queue.schedule: bad time";
  Heap.push t.heap { time; seq; payload }

let schedule t ~time payload =
  let seq = alloc_seq t in
  schedule_seq t ~time ~seq payload

let next t =
  match Heap.pop t.heap with None -> None | Some it -> Some (it.time, it.payload)

let pop_before t ~until =
  match Heap.peek t.heap with
  | Some it when it.time <= until ->
    Heap.drop t.heap;
    Some (it.time, it.payload)
  | _ -> None

let peek_key t =
  match Heap.peek t.heap with None -> None | Some it -> Some (it.time, it.seq)

let is_empty t = Heap.is_empty t.heap
