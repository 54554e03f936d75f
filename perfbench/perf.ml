(* The repeatable benchmark: four workloads, each repetition in a fresh
   child process, end-to-end metrics from untraced repetitions and
   per-layer metrics from one traced repetition.  Metric names, units and
   bounds come from BENCHMARK.json; see README.md in this directory.

   Usage, from the repository root:
     perf.exe --workload W --seed N --seconds S --trace 0|1
     perf.exe run [--workloads W,..] [--seed N] [--reps N] [--out FILE]
     perf.exe compare BASE.json NEW.json
     perf.exe smoke *)

module Json = Mifo_util.Obs.Json
module Obs = Mifo_util.Obs

let benchmark_file = "BENCHMARK.json"
let baseline_file = "perfbench/baseline.json"
let jobs () = min (Domain.recommended_domain_count ()) 4

(* --- JSON access -------------------------------------------------------- *)

let fail fmt = Printf.ksprintf failwith fmt

let member key j =
  match Json.member key j with Some v -> v | None -> fail "JSON: missing %S" key

let num key j = match member key j with Json.Num x -> x | _ -> fail "JSON: %S is not a number" key
let str key j = match member key j with Json.Str s -> s | _ -> fail "JSON: %S is not a string" key
let fields key j =
  match member key j with Json.Obj l -> l | _ -> fail "JSON: %S is not an object" key
let read_json path = Json.parse (In_channel.with_open_bin path In_channel.input_all)
let nums l = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) l)

type spec = { name : string; unit_ : string; better : string; bound : float }

let specs section =
  match member section (read_json benchmark_file) with
  | Json.Arr l ->
    List.map
      (fun m ->
        {
          name = str "name" m;
          unit_ = str "unit" m;
          better = str "better" m;
          bound = (match Json.member "bound" m with Some (Json.Num b) -> b | _ -> nan);
        })
      l
  | _ -> fail "%s: %S is not a list" benchmark_file section

(* --- statistics --------------------------------------------------------- *)

let sorted l = List.sort Float.compare l

let median l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile as Python's statistics.quantiles(l, n=4)
   computes them (the default "exclusive" method). *)
let quartiles l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n < 2 then (median l, median l)
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 3)

let spread l =
  let q1, q3 = quartiles l in
  (q3 -. q1) /. median l

let lowest l = List.fold_left Float.min infinity l
let highest l = List.fold_left Float.max neg_infinity l

(* --- one repetition, in the child process ------------------------------- *)

let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec scan () =
            match In_channel.input_line ic with
            | None -> None
            | Some line -> (
              match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
              | Some kb -> Some (float_of_int kb *. 1024. /. 1e6)
              | None -> scan ())
          in
          scan ())
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None -> float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1e6

let obs_counters () =
  match Json.member "counters" (Json.parse (Obs.snapshot_json ())) with
  | Some (Json.Obj l) -> List.filter_map (function k, Json.Num v -> Some (k, v) | _ -> None) l
  | _ -> []

let size_of_string = function
  | "full" -> Workloads.Full
  | "smoke" -> Workloads.Smoke
  | s -> fail "unknown size %S" s

let workload name =
  match Workloads.find name with Some w -> w | None -> fail "unknown workload %S" name

let child name seed size traced =
  let w = workload name in
  (* Sizes the shared pool, which is created on first use: a workload
     that never uses it, like pkt-testbed, runs without worker domains. *)
  Unix.putenv "MIFO_JOBS" (string_of_int (jobs ()));
  Trace.enabled := traced;
  let t0 = Trace.now () in
  let run = Trace.span "setup" (fun () -> w.Workloads.setup size ~seed) in
  let setup_s = Trace.now () -. t0 in
  (* Start the timed phase from a finished major cycle, outside both
     clocks.  Left mid-cycle, check-44k's peak RSS landed on 655 or 715 MB
     depending on where set-up's parallel allocation had left the GC. *)
  Gc.full_major ();
  let obs0 = obs_counters () and gc0 = Gc.quick_stat () in
  let cpu0 = Trace.cpu () and t1 = Trace.now () in
  Trace.span "timed" run.Workloads.timed;
  let wall_s = Trace.now () -. t1 and cpu_s = Trace.cpu () -. cpu0 in
  let gc1 = Gc.quick_stat () in
  let counters =
    List.filter_map
      (fun (k, v) ->
        let d = v -. Option.value ~default:0. (List.assoc_opt k obs0) in
        if d <> 0. then Some (k, d) else None)
      (obs_counters ())
  in
  let o = run.Workloads.outcome () in
  let traced_fields =
    if not traced then []
    else
      let layer =
        Trace.span "probe" run.Workloads.layer
        @ [ ("gc.minor_mwords", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6);
            ("gc.major_collections",
             float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)) ]
      in
      [ ("layer", nums layer); ("layers", Trace.tree ()); ("counters", nums counters) ]
  in
  let result =
    Json.Obj
      ([ ("setup_s", Json.Num setup_s);
         ("wall_s", Json.Num wall_s);
         ("cpu_s", Json.Num cpu_s);
         ("peak_rss_mb", Json.Num (peak_rss_mb ()));
         ("work", Json.Num o.Workloads.work);
         ("counts", nums (List.map (fun (k, v) -> (k, float_of_int v)) o.Workloads.counts));
         ("digest", Json.Str o.Workloads.digest);
         ("checks", Json.Obj (List.map (fun (k, b) -> (k, Json.Bool b)) o.Workloads.checks)) ]
      @ traced_fields)
  in
  print_endline (Json.to_string result)

(* --- the parent: repetitions in fresh processes ------------------------- *)

let spawn_child ~size ~seed ~traced name =
  let args =
    [| Sys.executable_name; "child"; name; string_of_int seed; size;
       (if traced then "1" else "0") |]
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin w Unix.stderr in
  Unix.close w;
  let out = In_channel.input_all (Unix.in_channel_of_descr r) in
  Unix.close r;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> (
    try Ok (Json.parse (String.trim out))
    with Failure e -> Error (Printf.sprintf "%s: unreadable result (%s)" name e))
  | _, (Unix.WEXITED c | Unix.WSIGNALED c | Unix.WSTOPPED c) ->
    Error (Printf.sprintf "%s: repetition exited with status %d" name c)

type summary = {
  wname : string;
  attempted : int;
  failures : string list;
  counts : Json.t;
  digest : string;
  e2e : (string * float list) list;  (* metric -> one value per untraced rep *)
  layer : (string * float) list;
  traced : Json.t option;
}

let e2e_values rep =
  [ ("wall_s", num "wall_s" rep);
    ("setup_s", num "setup_s" rep);
    ("cpu_s", num "cpu_s" rep);
    ("peak_rss_mb", num "peak_rss_mb" rep);
    ("work_per_s", num "work" rep /. num "wall_s" rep) ]

(* Counts and digest per workload at seed 42, full size. *)
let baseline name =
  if not (Sys.file_exists baseline_file) then None
  else
    match Json.member name (member "workloads" (read_json baseline_file)) with
    | Some w -> Some (member "counts" w, str "digest" w)
    | None -> None

let summarize ~seed ~size name reps traced =
  let attempted = ref 0 and failures = ref [] in
  let check ok what =
    incr attempted;
    if not ok then failures := what :: !failures
  in
  let results = reps @ Option.to_list traced in
  List.iter
    (function
      | Error e -> check false e
      | Ok j ->
        List.iter
          (fun (c, v) -> check (v = Json.Bool true) (Printf.sprintf "%s: %s" name c))
          (fields "checks" j))
    results;
  let ok = List.filter_map Result.to_option results in
  let counts, digest =
    match ok with j :: _ -> (member "counts" j, str "digest" j) | [] -> (Json.Obj [], "")
  in
  List.iter
    (fun j ->
      check
        (member "counts" j = counts && str "digest" j = digest)
        (name ^ ": repetitions disagree on work counts or output digest"))
    ok;
  (if seed = 42 && size = "full" && ok <> [] then
     match baseline name with
     | Some (c, d) ->
       check (c = counts && d = digest)
         (Printf.sprintf "%s: work counts or digest differ from %s" name baseline_file)
     | None -> ());
  let untraced = List.filter_map Result.to_option reps in
  let e2e =
    match untraced with
    | [] -> []
    | first :: _ ->
      List.map
        (fun (m, _) -> (m, List.map (fun j -> List.assoc m (e2e_values j)) untraced))
        (e2e_values first)
  in
  let traced = Option.bind traced Result.to_option in
  let layer =
    match traced with
    | None -> []
    | Some j ->
      let overhead =
        match List.assoc_opt "wall_s" e2e with
        | Some walls -> (num "wall_s" j /. median walls) -. 1.
        | None -> nan
      in
      List.map (function k, Json.Num v -> (k, v) | k, _ -> (k, nan)) (fields "layer" j)
      @ [ ("trace_overhead", overhead) ]
  in
  { wname = name; attempted = !attempted; failures = List.rev !failures; counts; digest; e2e;
    layer; traced }

(* A metric the spec lists but this workload does not exercise is 0:
   its layer did no work. *)
let layer_value s name =
  match List.assoc_opt name s.layer with Some v when Float.is_finite v -> v | _ -> 0.

let print_summary s =
  Printf.printf "%s: %d checks, %d failed\n" s.wname s.attempted (List.length s.failures);
  List.iter (Printf.eprintf "FAILED %s\n%!") s.failures;
  List.iter
    (fun (m, vs) ->
      Printf.printf "  %-12s median %12.6g   min %12.6g   max %12.6g   (%d reps)\n" m
        (median vs) (lowest vs) (highest vs) (List.length vs))
    s.e2e

(* --- one workload, one seed, a time budget --------------------------------- *)

let min_reps = 3

(* Stop starting repetitions once the budget is spent (but not before
   [min_reps]), and never past [hard_stop] seconds. *)
let hard_stop = 120.

let measure ~name ~seed ~seconds ~trace =
  ignore (workload name);
  let e2e_specs = specs "end_to_end" and layer_specs = specs "per_layer" in
  let t0 = Trace.now () in
  let reps = ref [] in
  let elapsed () = Trace.now () -. t0 in
  while (List.length !reps < min_reps || elapsed () < seconds) && elapsed () < hard_stop do
    reps := spawn_child ~size:"full" ~seed ~traced:false name :: !reps
  done;
  let traced = if trace then Some (spawn_child ~size:"full" ~seed ~traced:true name) else None in
  let s = summarize ~seed ~size:"full" name (List.rev !reps) traced in
  print_summary s;
  let values =
    if trace then begin
      (match s.traced with
       | Some j -> Printf.printf "layers: %s\n" (Json.to_string (member "layers" j))
       | None -> ());
      List.map (fun sp -> (sp, layer_value s sp.name)) layer_specs
    end
    else
      List.map
        (fun sp ->
          (sp, match List.assoc_opt sp.name s.e2e with Some vs -> median vs | None -> nan))
        e2e_specs
  in
  let failed = List.length s.failures in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Num (float_of_int (max 1 s.attempted)));
            ("failed", Json.Num (float_of_int failed));
            ("metrics",
             Json.Obj
               (List.map
                  (fun (sp, v) ->
                    (sp.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str sp.unit_) ]))
                  values)) ]))

(* --- run: every workload, interleaved repetitions, one JSON file -------- *)

let revision () =
  if not (Sys.file_exists ".git") then Json.Null
  else
    try
      let ic = Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] in
      let line = In_channel.input_line ic in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some rev -> Json.Str rev
      | _ -> Json.Null
    with Unix.Unix_error _ -> Json.Null

let summary_json s =
  let stat vs =
    let q1, q3 = quartiles vs in
    Json.Obj
      [ ("median", Json.Num (median vs));
        ("min", Json.Num (lowest vs));
        ("max", Json.Num (highest vs));
        ("q1", Json.Num q1); ("q3", Json.Num q3);
        ("values", Json.Arr (List.map (fun v -> Json.Num v) vs)) ]
  in
  let traced key = match s.traced with Some j -> member key j | None -> Json.Null in
  Json.Obj
    [ ("correct", Json.Bool (s.failures = []));
      ("attempted", Json.Num (float_of_int s.attempted));
      ("failures", Json.Arr (List.map (fun f -> Json.Str f) s.failures));
      ("counts", s.counts);
      ("digest", Json.Str s.digest);
      ("end_to_end", Json.Obj (List.map (fun (m, vs) -> (m, stat vs)) s.e2e));
      ("per_layer", nums s.layer);
      ("layers", traced "layers");
      ("counters", traced "counters") ]

(* Progress lines for a person watching a terminal; silent under dune
   and other callers, so a passing smoke test prints nothing. *)
let progress fmt =
  if Unix.isatty Unix.stderr then Printf.eprintf fmt else Printf.ifprintf stderr fmt

let run_all ~names ~seed ~reps ~size ~out =
  List.iter (fun n -> ignore (workload n)) names;
  (* Round-robin across workloads, so a slow stretch of a shared machine
     spreads over all of them instead of landing on one. *)
  let untraced = Hashtbl.create 8 in
  for r = 1 to reps do
    List.iter
      (fun w ->
        progress "[perf] %s rep %d/%d\n%!" w r reps;
        let prev = Option.value ~default:[] (Hashtbl.find_opt untraced w) in
        Hashtbl.replace untraced w (prev @ [ spawn_child ~size ~seed ~traced:false w ]))
      names
  done;
  let summaries =
    List.map
      (fun w ->
        progress "[perf] %s traced rep\n%!" w;
        let traced = spawn_child ~size ~seed ~traced:true w in
        summarize ~seed ~size w (Hashtbl.find untraced w) (Some traced))
      names
  in
  List.iter print_summary summaries;
  let doc =
    Json.Obj
      [ ("manifest",
         Json.Obj
           [ ("seed", Json.Num (float_of_int seed));
             ("size", Json.Str size);
             ("reps", Json.Num (float_of_int reps));
             ("jobs", Json.Num (float_of_int (jobs ())));
             ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
             ("ocaml", Json.Str Sys.ocaml_version);
             ("revision", revision ()) ]);
        ("workloads", Json.Obj (List.map (fun s -> (s.wname, summary_json s)) summaries)) ]
  in
  (match out with
   | Some path ->
     Out_channel.with_open_bin path (fun oc -> output_string oc (Json.to_string doc ^ "\n"));
     Printf.printf "wrote %s\n" path
   | None -> ());
  (List.for_all (fun s -> s.failures = []) summaries, doc)

(* --- compare ------------------------------------------------------------ *)

(* A set-up time may also worsen by this many seconds: a share of a few
   milliseconds is below what the clock and the machine resolve. *)
let setup_floor_s = 0.05

(* One row per (metric, workload).  A metric whose quartile spread in
   either run exceeds its bound is unresolved, unless every new value
   beats every base value.  Both runs must hold the same workloads. *)
let compare_runs base_doc new_doc =
  let e2e_specs = specs "end_to_end" in
  let base = fields "workloads" base_doc and next = fields "workloads" new_doc in
  let ok = ref true in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name base) then begin
        ok := false;
        Printf.printf "%s: missing from the base run\n" name
      end)
    next;
  Printf.printf "%-12s %-12s %14s %14s %8s %7s %7s  %s\n" "metric" "workload" "base" "new"
    "change" "bound" "spread" "verdict";
  List.iter
    (fun (name, b) ->
      match List.assoc_opt name next with
      | None ->
        ok := false;
        Printf.printf "%s: missing from the new run\n" name
      | Some n ->
        if member "counts" b <> member "counts" n || str "digest" b <> str "digest" n then begin
          ok := false;
          Printf.printf "%s: work counts or output digest differ\n" name
        end;
        List.iter
          (fun sp ->
            let values j =
              match member "values" (member sp.name (member "end_to_end" j)) with
              | Json.Arr l -> List.filter_map (function Json.Num v -> Some v | _ -> None) l
              | _ -> []
            in
            let bv = values b and nv = values n in
            let sign = if sp.better = "lower" then 1. else -1. in
            let worse = sign *. (median nv -. median bv) /. median bv in
            let bound =
              if sp.name = "setup_s" then Float.max sp.bound (setup_floor_s /. median bv)
              else sp.bound
            in
            let sp_spread = Float.max (spread bv) (spread nv) in
            let all_better =
              List.for_all (fun x -> List.for_all (fun y -> sign *. (x -. y) < 0.) bv) nv
            in
            let verdict =
              if sp_spread > bound && not all_better then "unresolved"
              else if worse > bound then "regressed"
              else "ok"
            in
            if verdict = "regressed" then ok := false;
            Printf.printf "%-12s %-12s %14.6g %14.6g %+7.1f%% %6.0f%% %6.1f%%  %s\n" sp.name name
              (median bv) (median nv) (100. *. sign *. worse) (100. *. bound)
              (100. *. sp_spread) verdict)
          e2e_specs)
    base;
  !ok

(* --- command line -------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: perf.exe --workload W --seed N --seconds S --trace 0|1\n\
    \       perf.exe run [--workloads W,..] [--seed N] [--reps N] [--out FILE]\n\
    \       perf.exe compare BASE.json NEW.json\n\
    \       perf.exe smoke";
  exit 2

let rec flags = function
  | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> (k, v) :: flags rest
  | [] -> []
  | _ -> usage ()

let int_flag fl k default =
  match List.assoc_opt k fl with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> usage ())

let all_names = List.map (fun w -> w.Workloads.name) Workloads.all

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  try
    match args with
    | [ "child"; name; seed; size; traced ] ->
      child name (int_of_string seed) (size_of_string size) (traced = "1")
    | "run" :: rest ->
      let fl = flags rest in
      let names =
        match List.assoc_opt "--workloads" fl with
        | Some l -> String.split_on_char ',' l
        | None -> all_names
      in
      let ok, _ =
        run_all ~names ~seed:(int_flag fl "--seed" 42) ~reps:(max 1 (int_flag fl "--reps" 10))
          ~size:"full" ~out:(List.assoc_opt "--out" fl)
      in
      exit (if ok then 0 else 1)
    | [ "compare"; a; b ] -> exit (if compare_runs (read_json a) (read_json b) then 0 else 1)
    | [ "smoke" ] ->
      let ok, doc = run_all ~names:all_names ~seed:42 ~reps:2 ~size:"smoke" ~out:None in
      exit (if ok && compare_runs doc doc then 0 else 1)
    | _ ->
      let fl = flags args in
      let need k = match List.assoc_opt k fl with Some v -> v | None -> usage () in
      let trace = match need "--trace" with "0" -> false | "1" -> true | _ -> usage () in
      measure ~name:(need "--workload") ~seed:(int_flag fl "--seed" 42)
        ~seconds:(float_of_int (int_flag fl "--seconds" 10)) ~trace
  with Failure e | Sys_error e ->
    prerr_endline ("perf: " ^ e);
    exit 1
