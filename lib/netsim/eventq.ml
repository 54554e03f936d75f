(* Binary min-heap over (time, seq), stored in parallel flat arrays so
   that scheduling and popping allocate nothing: times live unboxed in a
   float array, and every comparison reads its keys by index.  Slots
   [0, len) hold the heap; the children of [i] are [2i + 1] and
   [2i + 2].  A payload is written once into a cell that never moves
   and the heap moves only the cell's int index: a store into the
   polymorphic payload array goes through the write barrier, too dear
   to pay at every level of a sift. *)

type 'a t = {
  mutable times : float array;  (* heap slot -> time *)
  mutable seqs : int array;  (* heap slot -> tie-break seq *)
  mutable cells : int array;  (* heap slot -> payload cell *)
  mutable payloads : 'a array;  (* payload cell -> payload *)
  mutable free : int array;  (* free payload cells, a stack in [0, nfree) *)
  mutable nfree : int;
  mutable len : int;
  mutable next_seq : int;
  mutable peak : int;
  last : float array;
      (* time of the last pop_before result, in a 1-slot flat float
         array: a [mutable float] field of this mixed record would box
         a fresh float on every pop *)
  scratch : float array;
      (* 1-slot staging cell: [schedule] takes a boxed float and hands
         it to [schedule_at], which reads times out of flat arrays *)
}

let create () =
  {
    times = [||];
    seqs = [||];
    cells = [||];
    payloads = [||];
    free = [||];
    nfree = 0;
    len = 0;
    next_seq = 0;
    peak = 0;
    last = [| 0. |];
    scratch = [| 0. |];
  }

let length t = t.len
let is_empty t = t.len = 0

let alloc_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

(* Whether slot [i]'s key strictly precedes slot [j]'s. *)
let[@inline] before t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  ti < tj || (ti = tj && t.seqs.(i) < t.seqs.(j))

let[@inline] move t src dst =
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.cells.(dst) <- t.cells.(src)

(* Called on a full queue, so every cell is in use and the new cells
   [cap, ncap) are the free ones. *)
let grow t payload =
  let cap = Array.length t.times in
  let ncap = Stdlib.max 64 (2 * cap) in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.times <- extend t.times 0.;
  t.seqs <- extend t.seqs 0;
  t.cells <- extend t.cells 0;
  t.payloads <- extend t.payloads payload;
  t.free <- Array.init ncap (fun k -> cap + k);
  t.nfree <- ncap - cap

(* Sift the new key up from slot [len], moving each later parent down
   into the hole, then write the key where it stops. *)
let schedule_at t times i ~seq payload =
  let tm = times.(i) in
  if Float.is_nan tm || tm < 0. then invalid_arg "Eventq: bad time";
  if t.len = Array.length t.times then grow t payload;
  let cell = t.free.(t.nfree - 1) in
  t.nfree <- t.nfree - 1;
  t.payloads.(cell) <- payload;
  let h = ref t.len in
  let rising = ref true in
  while !rising && !h > 0 do
    let p = (!h - 1) / 2 in
    let tp = t.times.(p) in
    if tm < tp || (tm = tp && seq < t.seqs.(p)) then begin
      move t p !h;
      h := p
    end
    else rising := false
  done;
  t.times.(!h) <- tm;
  t.seqs.(!h) <- seq;
  t.cells.(!h) <- cell;
  t.len <- t.len + 1;
  if t.len > t.peak then t.peak <- t.len

let schedule t ~time payload =
  let seq = alloc_seq t in
  t.scratch.(0) <- time;
  schedule_at t t.scratch 0 ~seq payload

(* Remove the root: the last slot's key sifts down from the root hole,
   each earlier child moving up, and is written where it stops. *)
let pop_root t =
  let cell = t.cells.(0) in
  t.free.(t.nfree) <- cell;
  t.nfree <- t.nfree + 1;
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then begin
    let h = ref 0 in
    let sinking = ref true in
    while !sinking do
      let l = (2 * !h) + 1 in
      if l >= last then sinking := false
      else begin
        let c = if l + 1 < last && before t (l + 1) l then l + 1 else l in
        if before t c last then begin
          move t c !h;
          h := c
        end
        else sinking := false
      end
    done;
    move t last !h
  end;
  t.payloads.(cell)

let next t =
  if t.len = 0 then None
  else
    let time = t.times.(0) in
    let p = pop_root t in
    Some (time, p)

(* The dispatch loop's allocation-free pop: [due] tests the head
   against the horizon, [take] pops it and stores its time into the
   time cell — a flat float-array store, where a returned float would
   be boxed on every event. *)
let due t ~until = t.len > 0 && t.times.(0) <= until

let take t =
  t.last.(0) <- t.times.(0);
  pop_root t

let pop_before t ~until = if due t ~until then Some (take t) else None
let last_time t = t.last.(0)
let time_cell t = t.last

let precedes_head_at t times i ~seq =
  t.len = 0
  ||
  let tm = times.(i) and th = t.times.(0) in
  tm < th || (tm = th && seq < t.seqs.(0))

let clear t =
  t.len <- 0;
  t.nfree <- Array.length t.free;
  for k = 0 to t.nfree - 1 do
    t.free.(k) <- k
  done;
  (* Reset the tie-break counter too: a cleared queue must schedule and
     pop exactly like a fresh one, or reuse breaks reproducibility. *)
  t.next_seq <- 0;
  t.peak <- 0;
  t.last.(0) <- 0.

let peek_time t = if t.len = 0 then None else Some t.times.(0)
let peek_key t = if t.len = 0 then None else Some (t.times.(0), t.seqs.(0))
let peak_length t = t.peak
