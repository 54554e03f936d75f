module Routing = Mifo_bgp.Routing

(* Entries [1 .. last] of [v]'s RIB (index 0 is the default route) that
   [keep i] admits, in RIB order.  The scan reads the allocation-free
   accessors and builds a [rib_entry] only for a kept index. *)
let collect rt v ~last keep =
  let rec go i acc =
    if i < 1 then acc else go (i - 1) (if keep i then Routing.rib_entry_at rt v i :: acc else acc)
  in
  go last []

let allowed rt v ~upstream i =
  Policy.deflection_allowed ~upstream ~downstream:(Routing.rib_rel_at rt v i)

let permitted rt ~src_as ~upstream =
  collect rt src_as ~last:(Routing.rib_size rt src_as - 1) (allowed rt src_as ~upstream)

(* The permitted RIB index [i] at [src_as] with the highest positive
   [score (if of_via then via else i)], ties to the lower neighbour id;
   [-1] when there is none.  (score desc, via asc) is a total order on
   a RIB's entries (one per neighbour), so the scan order does not
   matter.  A plain index loop: no list, no record, no closure. *)
let argmax rt ~src_as ~upstream ~of_via score =
  let best = ref (-1) and best_score = ref 0. and best_via = ref 0 in
  for i = 1 to Routing.rib_size rt src_as - 1 do
    if allowed rt src_as ~upstream i then begin
      let via = Routing.rib_via rt src_as i in
      let s = score (if of_via then via else i) in
      if s > 0. && (!best < 0 || s > !best_score || (s = !best_score && via < !best_via))
      then begin
        best := i;
        best_score := s;
        best_via := via
      end
    end
  done;
  !best

let best_by rt ~src_as ~upstream ~score = argmax rt ~src_as ~upstream ~of_via:false score

let best_alternative rt ~src_as ~upstream ~spare =
  argmax rt ~src_as ~upstream ~of_via:true spare

let ranked_alternatives rt ~src_as ~upstream ~spare ~k =
  (* Pool-cap FIRST, in RIB preference order: the k-limited static
     verifier admits deflections onto the first k RIB alternatives, so
     the runtime chooser must draw from exactly that pool for the check
     to be sound.  Every pool entry is next-hop-disjoint from the
     default route (the RIB holds one entry per neighbor and the pool
     starts after the head). *)
  let last = Stdlib.min (Stdlib.min k Fib.max_alts) (Routing.rib_size rt src_as - 1) in
  let pool =
    collect rt src_as ~last (fun i ->
        allowed rt src_as ~upstream i && spare (Routing.rib_via rt src_as i) > 0.)
  in
  List.stable_sort
    (fun (a : Routing.rib_entry) (b : Routing.rib_entry) ->
      let c = Float.compare (spare b.via) (spare a.via) in
      if c <> 0 then c else Int.compare a.via b.via)
    pool

let local_repair rt v ~link_up =
  let k = Routing.rib_size rt v in
  let rec first i = if i >= k then -1 else if link_up (Routing.rib_via rt v i) then i else first (i + 1) in
  first 0
