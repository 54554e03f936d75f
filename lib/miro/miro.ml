module Routing = Mifo_bgp.Routing
module Relationship = Mifo_topology.Relationship
module Deployment = Mifo_core.Deployment

type config = { cap : int }

let default_config = { cap = 5 }

let candidates ?(config = default_config) rt ~deployment ~src =
  let size = Routing.rib_size rt src in
  if size = 0 || not (Deployment.capable deployment src) then []
  else begin
    (* The first [cap] alternatives in RIB order that share the default
       route's class and end at a capable neighbor, read through the
       allocation-free accessors; only the picked entries are built. *)
    let default_rank = Relationship.preference_rank (Routing.rib_rel_at rt src 0) in
    let rec pick i taken =
      if i >= size || taken >= config.cap then []
      else if
        Relationship.preference_rank (Routing.rib_rel_at rt src i) = default_rank
        && Deployment.capable deployment (Routing.rib_via rt src i)
      then Routing.rib_entry_at rt src i :: pick (i + 1) (taken + 1)
      else pick (i + 1) taken
    in
    pick 1 0
  end

let available_path_count ?config rt ~deployment ~src =
  if src = Routing.dest rt then 1
  else if not (Routing.reachable rt src) then 0
  else 1 + List.length (candidates ?config rt ~deployment ~src)

let alternate_paths ?config rt ~deployment ~src =
  let has_dup path =
    let seen = Hashtbl.create 16 in
    List.exists
      (fun v ->
        if Hashtbl.mem seen v then true
        else begin
          Hashtbl.add seen v ();
          false
        end)
      path
  in
  candidates ?config rt ~deployment ~src
  |> List.filter_map (fun (e : Routing.rib_entry) ->
         let path = src :: Routing.default_path rt e.via in
         if has_dup path then None else Some path)

let extra_announcements ?config rt ~deployment =
  let g_n = Deployment.size deployment in
  let total = ref 0 in
  for v = 0 to g_n - 1 do
    if v <> Routing.dest rt then begin
      let alternates = candidates ?config rt ~deployment ~src:v in
      (* each alternate is re-advertised alongside the default route *)
      total := !total + List.length alternates
    end
  done;
  !total
