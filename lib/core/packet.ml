type kind = Data | Ack
type encap = { outer_src : int; outer_dst : int }

type t = {
  src : Mifo_bgp.Prefix.addr;
  dst : Mifo_bgp.Prefix.addr;
  flow : int;
  seq : int;
  kind : kind;
  size_bits : int;
  ttl : int;
  vf_tag : bool;
  encap : encap option;
}

let default_ttl = 64

let make ?(kind = Data) ?(seq = 0) ?(ttl = default_ttl) ?(size_bits = 8000) ~src ~dst
    ~flow () =
  { src; dst; flow; seq; kind; size_bits; ttl; vf_tag = false; encap = None }

let outer_header_bits = 160 (* a minimal 20-byte outer IPv4 header *)

let wire_size_bits t =
  t.size_bits + (match t.encap with Some _ -> outer_header_bits | None -> 0)

let pp ppf t =
  Format.fprintf ppf "%s->%s flow=%d seq=%d %s ttl=%d tag=%b%s"
    (Mifo_bgp.Prefix.addr_to_string t.src) (Mifo_bgp.Prefix.addr_to_string t.dst) t.flow t.seq
    (match t.kind with Data -> "data" | Ack -> "ack")
    t.ttl t.vf_tag
    (match t.encap with
     | Some e -> Printf.sprintf " encap[R%d->R%d]" e.outer_src e.outer_dst
     | None -> "")
