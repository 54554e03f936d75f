(* Clocks, and the spans the benchmark records around its calls into the
   library's layers.  Spans are kept in memory and turned into a tree
   after the run.  With recording off, [span] is a plain call, so the
   untraced repetitions that give the end-to-end numbers pay nothing. *)

module Json = Mifo_util.Obs.Json

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* User plus system time of the whole process, every domain included. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type span = {
  name : string;
  parent : int;  (* index of the enclosing span, -1 at the root *)
  start : float;
  cpu0 : float;
  words0 : float;
  mutable wall : float;
  mutable cpu : float;
  mutable words : float;  (* minor words allocated by the calling domain *)
}

let enabled = ref false
let recorded : span list ref = ref []  (* newest first *)
let count = ref 0
let stack : int list ref = ref []

let span name f =
  if not !enabled then f ()
  else begin
    let s =
      {
        name;
        parent = (match !stack with i :: _ -> i | [] -> -1);
        start = now ();
        cpu0 = cpu ();
        words0 = Gc.minor_words ();
        wall = 0.;
        cpu = 0.;
        words = 0.;
      }
    in
    recorded := s :: !recorded;
    stack := !count :: !stack;
    incr count;
    Fun.protect f ~finally:(fun () ->
        s.wall <- now () -. s.start;
        s.cpu <- cpu () -. s.cpu0;
        s.words <- Gc.minor_words () -. s.words0;
        stack := List.tl !stack)
  end

let has_prefix prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let sum field prefix =
  List.fold_left
    (fun acc s -> if has_prefix prefix s.name then acc +. field s else acc)
    0. !recorded

(* Wall seconds and minor words of every span whose name starts with
   [prefix]. *)
let wall prefix = sum (fun s -> s.wall) prefix
let words prefix = sum (fun s -> s.words) prefix

(* [work / wall prefix], 0 when no such span ran. *)
let rate work prefix =
  let w = wall prefix in
  if w > 0. then work /. w else 0.

(* The span tree with self time: a span's wall time minus the part its
   children cover.  Start times are relative to the first span. *)
let tree () =
  let spans = Array.of_list (List.rev !recorded) in
  let t0 = if Array.length spans = 0 then 0. else spans.(0).start in
  let children = Array.make (Array.length spans) [] in
  let roots = ref [] in
  for i = Array.length spans - 1 downto 0 do
    let p = spans.(i).parent in
    if p < 0 then roots := i :: !roots else children.(p) <- i :: children.(p)
  done;
  let rec node i =
    let s = spans.(i) in
    let kids = children.(i) in
    let covered = List.fold_left (fun acc k -> acc +. spans.(k).wall) 0. kids in
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("start_s", Json.Num (s.start -. t0));
        ("wall_s", Json.Num s.wall);
        ("self_s", Json.Num (s.wall -. covered));
        ("cpu_s", Json.Num s.cpu);
        ("minor_mwords", Json.Num (s.words /. 1e6));
        ("children", Json.Arr (List.map node kids));
      ]
  in
  Json.Arr (List.map node !roots)
