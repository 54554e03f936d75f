module Prefix = Mifo_bgp.Prefix
module Obs = Mifo_util.Obs

(* Live FIB entries across every table in the process: insert keeps
   it current so `--metrics` can watch data-plane memory grow. *)
let g_entries = Obs.int_gauge "fib.entries"

let max_alts = 4

(* A table is two int arrays.  [arena] holds the entries back to back,
   [stride] ints each: the prefix key (network key * 64 + length), the
   out port, the deflection level and [max_alts] ranked alternative
   slots, compacted (filled slots first, -1 afterwards).  Entries are
   never removed, so an arena id never moves and an [entry] handle lives
   as long as its table.  [idx] is an open-addressed index over every
   prefix length at once (linear probing, power-of-two capacity, twice
   the arena's entry capacity) of arena ids, -1 = empty; a probe
   compares the id's arena key.  Both start as the shared empty array
   and are allocated on the first insert. *)
let f_key = 0
let f_out = 1
let f_defl = 2
let f_alt = 3 (* [max_alts] slots *)
let stride = f_alt + max_alts

type t = {
  mutable idx : int array;
  mutable arena : int array;
  mutable count : int;  (* live entries = arena entries in use *)
  mutable len_mask : int;  (* bit [l] set when some entry has length [l] *)
  mutable alt_entries : int;
      (* number of live entries whose ranked alternative set is
         nonempty.  Kept exact by [insert] and [set_alts], so
         [may_deflect] reflects the current state rather than a sticky
         historical bit. *)
}

(* An entry is its arena id and prefix length packed into one int:
   [id * 64 + len] (lengths fit in 6 bits). *)
type entry = int

let len_bits = 6
let len_field = (1 lsl len_bits) - 1
let[@inline] base e = (e lsr len_bits) * stride
let[@inline] handle id len = (id lsl len_bits) lor len

let buckets = 64

let create () = { idx = [||]; arena = [||]; count = 0; len_mask = 0; alt_entries = 0 }

let may_deflect t = t.alt_entries > 0
let size t = t.count

(* Network masks as plain ints, index = prefix length. *)
let imask =
  Array.init 33 (fun l -> if l = 0 then 0 else 0xFFFFFFFF lsl (32 - l) land 0xFFFFFFFF)

let key_of_addr addr = Int32.to_int addr land 0xFFFFFFFF

let key_of_prefix (p : Prefix.t) =
  (key_of_addr p.Prefix.network lsl len_bits) lor p.Prefix.length

(* Fibonacci-style multiplicative mix: keys are masked network addrs,
   whose low bits are all zero for short prefixes — the multiply+xor
   spreads them before the power-of-two mask. *)
let[@inline] hash_key k =
  let h = k * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

(* Index slot of prefix key [pk], -1 when absent. *)
let find_slot t pk =
  let idx = t.idx and a = t.arena in
  let slots = Array.length idx in
  if slots = 0 then -1
  else begin
    let mask = slots - 1 in
    let i = ref (hash_key pk land mask) in
    let r = ref (-2) in
    while !r = -2 do
      let id = idx.(!i) in
      if id < 0 then r := -1
      else if a.(id * stride) = pk then r := !i
      else i := (!i + 1) land mask
    done;
    !r
  end

(* Put arena id [id], of prefix key [pk], in an index with room. *)
let index_add idx pk id =
  let mask = Array.length idx - 1 in
  let i = ref (hash_key pk land mask) in
  while idx.(!i) >= 0 do
    i := (!i + 1) land mask
  done;
  idx.(!i) <- id

(* Double the arena's entry capacity (8 on the first insert) and rebuild
   the index at twice that many slots; arena ids are unchanged. *)
let grow t =
  let cap = Stdlib.max 8 (2 * (Array.length t.arena / stride)) in
  let arena = Array.make (cap * stride) (-1) in
  Array.blit t.arena 0 arena 0 (t.count * stride);
  let idx = Array.make (2 * cap) (-1) in
  for id = 0 to t.count - 1 do
    index_add idx arena.(id * stride) id
  done;
  t.arena <- arena;
  t.idx <- idx

let[@inline] clear_alt_slots a b =
  for j = 0 to max_alts - 1 do
    a.(b + f_alt + j) <- -1
  done

(* Refresh/replace semantics, applied to one entry whose current
   primary alternative is [cur0]:
   - same [out_port]: the call's [alt] hint is authoritative for the
     primary alternative.  [-1] (no alternative) clears the whole ranked
     set and resets the deflection level; a hint equal to the current
     primary preserves the live ranked set and deflection state; a new
     primary replaces the set with the singleton and restarts the ramp.
   - changed [out_port]: full route change — set and ramp reset. *)
let refresh_action ~same_out ~cur0 ~alt =
  if not same_out then `Replace
  else if alt < 0 then `Clear
  else if alt = cur0 then `Keep
  else `Replace

let[@inline] note_alt_transition t ~had ~has =
  if had && not has then t.alt_entries <- t.alt_entries - 1
  else if has && not had then t.alt_entries <- t.alt_entries + 1

let insert_alt t prefix ~out_port ~alt =
  let len = prefix.Prefix.length in
  let pk = key_of_prefix prefix in
  (match find_slot t pk with
  | -1 ->
    if t.count * stride = Array.length t.arena then grow t;
    let id = t.count in
    let a = t.arena and b = id * stride in
    a.(b + f_key) <- pk;
    a.(b + f_out) <- out_port;
    a.(b + f_defl) <- 0;
    clear_alt_slots a b;
    a.(b + f_alt) <- alt;
    index_add t.idx pk id;
    t.count <- id + 1;
    Obs.add_int_gauge g_entries 1;
    note_alt_transition t ~had:false ~has:(alt >= 0)
  | i ->
    let a = t.arena and b = t.idx.(i) * stride in
    let had = a.(b + f_alt) >= 0 in
    (match refresh_action ~same_out:(a.(b + f_out) = out_port) ~cur0:a.(b + f_alt) ~alt with
    | `Keep -> ()
    | `Clear ->
      clear_alt_slots a b;
      a.(b + f_defl) <- 0
    | `Replace ->
      a.(b + f_out) <- out_port;
      clear_alt_slots a b;
      a.(b + f_alt) <- alt;
      a.(b + f_defl) <- 0);
    note_alt_transition t ~had ~has:(a.(b + f_alt) >= 0));
  t.len_mask <- t.len_mask lor (1 lsl len)

let insert t prefix ~out_port ?alt_port () =
  insert_alt t prefix ~out_port ~alt:(match alt_port with None -> -1 | Some p -> p)

(* Highest set bit of a nonzero mask.  Lengths occupy 33 bits (0-32),
   one more than a power-of-two cascade covers, so bit 32 — host
   routes — is peeled off first. *)
let msb m =
  if m land 0x100000000 <> 0 then 32
  else begin
    let r = ref 0 and m = ref m in
    if !m land 0xFFFF0000 <> 0 then begin
      r := !r + 16;
      m := !m lsr 16
    end;
    if !m land 0xFF00 <> 0 then begin
      r := !r + 8;
      m := !m lsr 8
    end;
    if !m land 0xF0 <> 0 then begin
      r := !r + 4;
      m := !m lsr 4
    end;
    if !m land 0xC <> 0 then begin
      r := !r + 2;
      m := !m lsr 2
    end;
    if !m land 0x2 <> 0 then incr r;
    !r
  end

let lpm t key =
  let m = ref t.len_mask and hit = ref (-1) in
  while !m <> 0 do
    let len = msb !m in
    let i = find_slot t (((key land imask.(len)) lsl len_bits) lor len) in
    if i >= 0 then begin
      hit := handle t.idx.(i) len;
      m := 0
    end
    else m := !m land lnot (1 lsl len)
  done;
  !hit

let find t prefix =
  let i = find_slot t (key_of_prefix prefix) in
  if i < 0 then -1 else handle t.idx.(i) prefix.Prefix.length

(* By length, then insertion order: one arena pass per length in use,
   and no key read at all for a table of one length. *)
let iter t f =
  let n = t.count and m = t.len_mask in
  if m land (m - 1) = 0 then begin
    let len = msb m in
    for id = 0 to n - 1 do
      f (handle id len)
    done
  end
  else
    for len = 0 to 32 do
      if m land (1 lsl len) <> 0 then begin
        let a = t.arena in
        for id = 0 to n - 1 do
          if a.(id * stride) land len_field = len then f (handle id len)
        done
      end
    done

let prefix_key t e = t.arena.(base e + f_key)

let prefix t e =
  let pk = prefix_key t e in
  Prefix.make (Int32.of_int (pk lsr len_bits)) (pk land len_field)

(* Field readers and writers: an entry names its cells in the table's
   arena, so each is one array access. *)

let[@inline] out_port t e = t.arena.(base e + f_out)

let[@inline] alt_at t e slot =
  if slot < 0 || slot >= max_alts then -1 else t.arena.(base e + f_alt + slot)

(* Slots are compacted, so the count is the first empty index. *)
let alt_count t e =
  let a = t.arena and b = base e + f_alt in
  if a.(b) < 0 then 0
  else if a.(b + 1) < 0 then 1
  else if a.(b + 2) < 0 then 2
  else if a.(b + 3) < 0 then 3
  else 4

let[@inline] deflect_buckets t e = t.arena.(base e + f_defl)
let set_deflect_buckets t e n = t.arena.(base e + f_defl) <- n

(* Write the first [n] ports of [ports] into the entry's slots:
   negatives are skipped, the rest kept in order, truncated at
   [max_alts], compacted, higher slots cleared. *)
let set_alts t e ports n =
  let a = t.arena and b = base e + f_alt in
  let had = a.(b) >= 0 in
  let filled = ref 0 in
  for i = 0 to n - 1 do
    let p = ports.(i) in
    if p >= 0 && !filled < max_alts then begin
      a.(b + !filled) <- p;
      incr filled
    end
  done;
  for j = !filled to max_alts - 1 do
    a.(b + j) <- -1
  done;
  note_alt_transition t ~had ~has:(!filled > 0)

(* SplitMix64-style mix so bucket spread does not depend on flow-id
   assignment patterns. *)
let flow_bucket flow =
  let open Int64 in
  let z = mul (of_int ((flow * 2) + 1)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  to_int (shift_right_logical z 40) mod buckets

(* ECMP spreading: deflected buckets are dealt round-robin over the
   ranked slots, so each alternative receives a deterministic slice of
   the flow space and a single-alternative entry behaves exactly like
   the k=1 data plane (every bucket maps to slot 0). *)
let[@inline] slot_of_bucket ~bucket ~count = bucket mod count
