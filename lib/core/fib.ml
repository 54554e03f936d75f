module Prefix = Mifo_bgp.Prefix
module Obs = Mifo_util.Obs

(* Live FIB entries across every table in the process: insert keeps
   it current so `--metrics` can watch data-plane memory grow. *)
let g_entries = Obs.gauge "fib.entries"

let max_alts = 4

(* Flat store for one prefix length: an open-addressed index (linear
   probing, power-of-two capacity) over an append-only arena of unboxed
   fields.  Entries are never removed, so an arena id never moves and
   an [entry] handle lives as long as its table.  At 44K ASes the FIB
   is pure int arrays — no per-entry boxes, no Hashtbl buckets.
   [a_alt] is strided: entry [id]'s ranked alternative slots live at
   [a_alt.(id * max_alts) .. a_alt.(id * max_alts + max_alts - 1)],
   compacted (filled slots first, -1 afterwards). *)
type flat = {
  mutable cap : int;  (* index capacity, power of two; 0 = empty *)
  mutable idx_key : int array;  (* masked addr, -1 = empty slot *)
  mutable idx_id : int array;  (* arena id for the key in the same slot *)
  mutable a_key : int array;
  mutable a_out : int array;
  mutable a_alt : int array;  (* stride max_alts; -1 = empty slot *)
  mutable a_defl : int array;
  mutable a_len : int;  (* live entries = arena cells in use *)
}

type t = {
  store : flat array;  (* indexed by prefix length *)
  mutable len_mask : int;
  mutable count : int;
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
let[@inline] level t e = t.store.(e land len_field)
let[@inline] id_of e = e lsr len_bits
let[@inline] handle id len = (id lsl len_bits) lor len

let buckets = 64

let empty_ints : int array = [||]

let flat_create () =
  {
    cap = 0;
    idx_key = empty_ints;
    idx_id = empty_ints;
    a_key = empty_ints;
    a_out = empty_ints;
    a_alt = empty_ints;
    a_defl = empty_ints;
    a_len = 0;
  }

(* Every length starts on this shared, never-written level ([cap] and
   [a_len] 0 read as empty everywhere); [insert] swaps in a private
   level on a length's first use.  A 44K router uses one length of 33. *)
let unused_level = flat_create ()

let create () = { store = Array.make 33 unused_level; len_mask = 0; count = 0; alt_entries = 0 }

let may_deflect t = t.alt_entries > 0
let size t = t.count

(* Network masks as plain ints, index = prefix length. *)
let imask =
  Array.init 33 (fun l -> if l = 0 then 0 else 0xFFFFFFFF lsl (32 - l) land 0xFFFFFFFF)

let key_of_addr addr = Int32.to_int addr land 0xFFFFFFFF

(* Fibonacci-style multiplicative mix: keys are masked network addrs,
   whose low bits are all zero for short prefixes — the multiply+xor
   spreads them before the power-of-two mask. *)
let[@inline] hash_key k =
  let h = k * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

(* Slot of [key] in the index, -1 when absent. *)
let find_index fl key =
  if fl.cap = 0 then -1
  else begin
    let mask = fl.cap - 1 in
    let i = ref (hash_key key land mask) in
    let r = ref (-2) in
    while !r = -2 do
      let k = fl.idx_key.(!i) in
      if k = key then r := !i
      else if k = -1 then r := -1
      else i := (!i + 1) land mask
    done;
    !r
  end

(* Rebuild the index at [new_cap] from the arena (arena ids unchanged). *)
let rebuild_index fl new_cap =
  let keys = Array.make new_cap (-1) in
  let ids = Array.make new_cap 0 in
  let mask = new_cap - 1 in
  for id = 0 to fl.a_len - 1 do
    let k = fl.a_key.(id) in
    let i = ref (hash_key k land mask) in
    while keys.(!i) >= 0 do
      i := (!i + 1) land mask
    done;
    keys.(!i) <- k;
    ids.(!i) <- id
  done;
  fl.cap <- new_cap;
  fl.idx_key <- keys;
  fl.idx_id <- ids

let grow_arena_field a len fill =
  let n = Stdlib.max 16 (2 * len) in
  let b = Array.make n fill in
  Array.blit a 0 b 0 len;
  b

(* The strided alt field grows in lockstep with the others: same entry
   capacity, [max_alts] cells per entry. *)
let grow_arena_alts a len =
  let n = Stdlib.max 16 (2 * len) in
  let b = Array.make (n * max_alts) (-1) in
  Array.blit a 0 b 0 (len * max_alts);
  b

let[@inline] clear_alt_slots alts base =
  for j = 0 to max_alts - 1 do
    alts.(base + j) <- -1
  done

let arena_alloc fl key ~out_port ~alt =
  if fl.a_len = Array.length fl.a_key then begin
    fl.a_key <- grow_arena_field fl.a_key fl.a_len (-1);
    fl.a_out <- grow_arena_field fl.a_out fl.a_len 0;
    fl.a_alt <- grow_arena_alts fl.a_alt fl.a_len;
    fl.a_defl <- grow_arena_field fl.a_defl fl.a_len 0
  end;
  let id = fl.a_len in
  fl.a_len <- fl.a_len + 1;
  fl.a_key.(id) <- key;
  fl.a_out.(id) <- out_port;
  clear_alt_slots fl.a_alt (id * max_alts);
  fl.a_alt.(id * max_alts) <- alt;
  fl.a_defl.(id) <- 0;
  id

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

let insert t prefix ~out_port ?alt_port () =
  let len = prefix.Prefix.length in
  let key = key_of_addr prefix.Prefix.network in
  let alt = match alt_port with None -> -1 | Some p -> p in
  if t.store.(len) == unused_level then t.store.(len) <- flat_create ();
  let fl = t.store.(len) in
  (match find_index fl key with
  | -1 ->
    if 4 * (fl.a_len + 1) > 3 * fl.cap then rebuild_index fl (Stdlib.max 16 (2 * fl.cap));
    let id = arena_alloc fl key ~out_port ~alt in
    let mask = fl.cap - 1 in
    let i = ref (hash_key key land mask) in
    while fl.idx_key.(!i) >= 0 do
      i := (!i + 1) land mask
    done;
    fl.idx_key.(!i) <- key;
    fl.idx_id.(!i) <- id;
    t.count <- t.count + 1;
    Obs.add_gauge g_entries 1.;
    note_alt_transition t ~had:false ~has:(alt >= 0)
  | i ->
    let id = fl.idx_id.(i) in
    let base = id * max_alts in
    let had = fl.a_alt.(base) >= 0 in
    (match
       refresh_action ~same_out:(fl.a_out.(id) = out_port) ~cur0:fl.a_alt.(base) ~alt
     with
    | `Keep -> ()
    | `Clear ->
      clear_alt_slots fl.a_alt base;
      fl.a_defl.(id) <- 0
    | `Replace ->
      fl.a_out.(id) <- out_port;
      clear_alt_slots fl.a_alt base;
      fl.a_alt.(base) <- alt;
      fl.a_defl.(id) <- 0);
    note_alt_transition t ~had ~has:(fl.a_alt.(base) >= 0));
  t.len_mask <- t.len_mask lor (1 lsl len)

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
    let fl = t.store.(len) in
    let i = find_index fl (key land imask.(len)) in
    if i >= 0 then begin
      hit := handle fl.idx_id.(i) len;
      m := 0
    end
    else m := !m land lnot (1 lsl len)
  done;
  !hit

let find t prefix =
  let len = prefix.Prefix.length in
  let fl = t.store.(len) in
  let i = find_index fl (key_of_addr prefix.Prefix.network) in
  if i < 0 then -1 else handle fl.idx_id.(i) len

let iter t f =
  for len = 0 to 32 do
    for id = 0 to t.store.(len).a_len - 1 do
      f (handle id len)
    done
  done

let prefix_key t e = ((level t e).a_key.(id_of e) lsl len_bits) lor (e land len_field)

let key_of_prefix (p : Prefix.t) =
  (key_of_addr p.Prefix.network lsl len_bits) lor p.Prefix.length
let prefix t e = Prefix.make (Int32.of_int (level t e).a_key.(id_of e)) (e land len_field)

(* Field readers and writers: an entry names its cells in the table's
   unboxed arena, so each is one array access. *)

let[@inline] out_port t e = (level t e).a_out.(id_of e)

let[@inline] alt_at t e slot =
  if slot < 0 || slot >= max_alts then -1 else (level t e).a_alt.((id_of e * max_alts) + slot)

(* Slots are compacted, so the count is the first empty index. *)
let alt_count t e =
  let a = (level t e).a_alt and base = id_of e * max_alts in
  if a.(base) < 0 then 0
  else if a.(base + 1) < 0 then 1
  else if a.(base + 2) < 0 then 2
  else if a.(base + 3) < 0 then 3
  else 4

let[@inline] deflect_buckets t e = (level t e).a_defl.(id_of e)
let set_deflect_buckets t e n = (level t e).a_defl.(id_of e) <- n

(* Write the first [n] ports of [ports] into the entry's slots:
   negatives are skipped, the rest kept in order, truncated at
   [max_alts], compacted, higher slots cleared. *)
let set_alts t e ports n =
  let alts = (level t e).a_alt and base = id_of e * max_alts in
  let had = alts.(base) >= 0 in
  let filled = ref 0 in
  for i = 0 to n - 1 do
    let p = ports.(i) in
    if p >= 0 && !filled < max_alts then begin
      alts.(base + !filled) <- p;
      incr filled
    end
  done;
  for j = !filled to max_alts - 1 do
    alts.(base + j) <- -1
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
