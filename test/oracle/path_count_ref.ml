module As_graph = Mifo_topology.As_graph
module Relationship = Mifo_topology.Relationship
module Routing = Mifo_bgp.Routing

type phase = Rose | Peaked

let phase_index = function Rose -> 0 | Peaked -> 1

let next_phase (hop : Relationship.hop) =
  match hop with Up -> Rose | Flat | Down -> Peaked

let hop_allowed phase (hop : Relationship.hop) =
  match phase with Rose -> true | Peaked -> hop = Down

let mifo_counts g rt ~capable =
  let n = As_graph.n g in
  let d = Routing.dest rt in
  let memo = Array.make (2 * n) (-1.0) in
  let rec count v phase =
    if v = d then 1.0
    else begin
      let key = (2 * v) + phase_index phase in
      if memo.(key) >= 0.0 then memo.(key)
      else begin
        (* in progress: a cyclic query contributes nothing *)
        memo.(key) <- 0.0;
        let total = ref 0.0 in
        let consider nb rel =
          let hop = Relationship.hop_of rel in
          if hop_allowed phase hop then
            total := !total +. count nb (next_phase hop)
        in
        if capable v then
          for i = 0 to Routing.rib_size rt v - 1 do
            consider (Routing.rib_via rt v i) (Routing.rib_rel_at rt v i)
          done
        else begin
          match Routing.next_hop rt v with
          | Some nb -> consider nb (As_graph.rel_exn g v nb)
          | None -> ()
        end;
        memo.(key) <- !total;
        !total
      end
    end
  in
  Array.init n (fun v -> count v Rose)
