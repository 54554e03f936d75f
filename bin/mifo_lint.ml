(* mifo-lint: determinism and domain-safety gate, stdlib only.

   Rule families, enforced over every .ml file under the given
   directories (default: lib bin test examples):

   - Determinism: the simulators must be bit-reproducible from their
     seeds, so wall-clock reads ([Unix.gettimeofday]) and the global
     self-seeded PRNG ([Random.self_init], unseeded [Random.int] & co.)
     are banned; randomness goes through the seeded [Mifo_util.Prng].

   - Domain safety: modules whose values are shared across domains by
     design (Routing, Routing_table, Obs) may not use a bare [Hashtbl]
     without a [Mutex] in the same file — the OCaml runtime does not
     make [Hashtbl] atomic, and a silent race there corrupts routing
     state under the multicore fan-out.

   - Simulator hot paths: polymorphic comparison ([compare] /
     [Stdlib.compare]) is banned in lib/netsim/, in the topology
     builders (as_graph.ml, generator.ml), in prefix.ml, in the FIB,
     the daemon and the FIB audit (fib.ml, daemon.ml, net_check.ml)
     and in the AS-level property suite (automaton.ml, as_check.ml,
     props.ml) — it walks the runtime
     representation on every call, which is both slow on the simulators'
     inner loops and fragile (it would traverse whole records if a
     comparator's argument type drifted).  Use the monomorphic
     [Float.compare] / [Int.compare] (identical orders on those types).

   - One model of the Tag-Check: in lib/, only the engine (per packet),
     the two static checkers and the chooser filter may call [Policy]'s
     predicates; anything else that needs the rule drives
     [Engine.decide], as [Loop_walk] does.

   A finding can be waived for one line with a [lint:allow] marker.  A
   marker must earn its place: one on a line where no rule fires is a
   finding itself, and so is an exemption-list entry naming a file the
   walk never saw, so waivers cannot outlive the code they excused.
   Exit status: 0 clean, 1 findings. *)

let banned_substrings =
  [
    ("Unix.gettimeofday", "wall-clock read breaks seeded determinism");
    ("Unix.time", "wall-clock read breaks seeded determinism");
    ("Random.self_init", "self-seeded global PRNG is nondeterministic");
    ("Random.State.make_self_init", "self-seeded PRNG state is nondeterministic");
    ("Random.int", "unseeded global PRNG; use Mifo_util.Prng");
    ("Random.float", "unseeded global PRNG; use Mifo_util.Prng");
    ("Random.bool", "unseeded global PRNG; use Mifo_util.Prng");
    ("Random.bits", "unseeded global PRNG; use Mifo_util.Prng");
    ("Random.full_int", "unseeded global PRNG; use Mifo_util.Prng");
    ("Random.nativeint", "unseeded global PRNG; use Mifo_util.Prng");
  ]

(* Files shared across domains: a bare Hashtbl here needs a Mutex. *)
let domain_shared = [ "routing.ml"; "routing_table.ml"; "obs.ml" ]

(* Data-plane hot paths (lib/bgp, lib/core): new bare [Hashtbl] use is
   banned — the CSR RIB arena and the open-addressed flat FIB are the
   representations there, and a boxed hash table on those paths undoes
   the 44K-scale memory/locality work.  Mutex-guarded control-plane
   caches and cold analysis paths carry explicit [lint:allow] waivers;
   pure control-plane parsers are exempt wholesale.  Boxed reference
   representations live in test/oracle/, outside these directories. *)
let no_hashtbl_dirs = [ "bgp"; "core"; "analysis" ]
let no_hashtbl_exempt = [ "bgp_proto.ml" ]

(* Files named one by one.  The packet-network builder: lib/netsim as a
   whole stays outside the rule (packetsim.ml's iBGP session table is a
   documented cold path), but as_network.ml keys every port and
   alternative by adjacency position and routing arena, so a [Hashtbl]
   there is a regression of the 44K build.  The same holds for the
   topology builders, which dedupe links with the flat [Pair_set], and
   for the router-level expansion, whose link owners sit in int arrays
   parallel to the adjacency; as_rel_io.ml stays exempt as a parser.
   The flow simulator numbers its links by adjacency position and marks
   visited ASes in an epoch-stamped int array, so a [Hashtbl] in
   flowsim.ml is a regression of its epoch loop. *)
let no_hashtbl_files =
  [ "as_network.ml"; "as_graph.ml"; "generator.ml"; "router_level.ml"; "flowsim.ml" ]

(* Library code reports through {!Report} / {!Obs.Json}; writing to
   stdout from lib/ bypasses the JSON contract and interleaves with the
   drivers' own output under the domain fan-out. *)
let no_stdout_prints =
  [
    ("Printf.printf", "stdout print in lib/; report through Report/Obs.Json");
    ("print_endline", "stdout print in lib/; report through Report/Obs.Json");
  ]

(* The Tag-Check predicates of [Policy] and the lib/ files that may call
   them: [Engine.decide] applies the rule to every packet, [Automaton]
   and [Net_check] enumerate it statically, and [Alt_select] filters
   chooser candidates by it.  A call anywhere else in lib/ is a second
   model of the rule that no static/dynamic agreement gate would
   cover. *)
let policy_predicates =
  [
    ("Policy.check", "Tag-Check outside its models; drive Engine.decide instead");
    ("Policy.deflection_allowed", "Tag-Check outside its models; drive Engine.decide instead");
    ("Policy.tag_of_upstream", "Tag-Check outside its models; drive Engine.decide instead");
  ]

let policy_callers = [ "engine.ml"; "automaton.ml"; "net_check.ml"; "alt_select.ml" ]

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m > 0 && go 0

(* Does [line] use the polymorphic [compare]?  A match is the bare word
   "compare" not preceded by '.' (so [Float.compare] / [Int.compare] /
   [String.compare] pass) or an identifier character (so [my_compare]
   passes), plus the explicit [Stdlib.compare].  Substring-based like the
   rest of this linter: comments and strings are not parsed, use a
   [lint:allow] waiver for prose hits. *)
let uses_polymorphic_compare line =
  if contains ~sub:"Stdlib.compare" line then true
  else begin
    let n = String.length line in
    let m = String.length "compare" in
    let is_ident c =
      (c >= 'a' && c <= 'z')
      || (c >= 'A' && c <= 'Z')
      || (c >= '0' && c <= '9')
      || c = '_' || c = '\'' || c = '.'
    in
    let rec go i =
      if i + m > n then false
      else if
        String.sub line i m = "compare"
        && (i = 0 || not (is_ident line.[i - 1]))
        && (i + m = n || not (is_ident line.[i + m]))
      then true
      else go (i + 1)
    in
    go 0
  end

(* Directories whose .ml files sit on simulator hot paths, and files
   named one by one: the topology builders, which sort and compare ids
   as plain ints at 44K scale; [Prefix], whose compare and equal must
   stay monomorphic (a 0-word gate pins them); the FIB and the daemon, which
   read and rewrite every entry each epoch; the router-level FIB
   audit, which visits every installed entry; and the AS-level property
   suite (the automaton's int cursor, the loop DFS and its DP, the
   property checkers), which walks every (AS, tag) edge at 44K. *)
let hot_path_dirs = [ "netsim" ]

let hot_path_files =
  [
    "as_graph.ml";
    "generator.ml";
    "prefix.ml";
    "fib.ml";
    "daemon.ml";
    "net_check.ml";
    "automaton.ml";
    "as_check.ml";
    "props.ml";
  ]

let findings = ref 0

let report path line_no line msg =
  incr findings;
  Printf.printf "%s:%d: %s\n  %s\n" path line_no msg (String.trim line)

let in_lib path =
  let prefix = "lib" ^ Filename.dir_sep in
  let n = String.length prefix in
  (String.length path >= n && String.sub path 0 n = prefix)
  || contains ~sub:(Filename.dir_sep ^ prefix) path

let lint_file path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = Array.of_list (List.rev !lines) in
  let dir = Filename.basename (Filename.dirname path) in
  let on_hot_path =
    List.mem dir hot_path_dirs || List.mem (Filename.basename path) hot_path_files
  in
  let no_hashtbl =
    (List.mem dir no_hashtbl_dirs
    && not (List.mem (Filename.basename path) no_hashtbl_exempt))
    || List.mem (Filename.basename path) no_hashtbl_files
  in
  let in_lib = in_lib path in
  let policy_restricted = in_lib && not (List.mem (Filename.basename path) policy_callers) in
  (* The messages of every rule that fires on [line]. *)
  let rule_hits line =
    let substring_hits table =
      List.filter_map
        (fun (sub, msg) -> if contains ~sub line then Some (sub ^ ": " ^ msg) else None)
        table
    in
    substring_hits banned_substrings
    @ (if on_hot_path && uses_polymorphic_compare line then
         [
           "polymorphic compare on a simulator hot path; use Float.compare / \
            Int.compare (or waive with lint:allow)";
         ]
       else [])
    @ (if no_hashtbl && contains ~sub:"Hashtbl." line then
         [
           "bare Hashtbl on a data-plane hot path; use the flat CSR/open-addressed \
            representations (or waive a cold path with lint:allow)";
         ]
       else [])
    @ (if policy_restricted then substring_hits policy_predicates else [])
    @ if in_lib then substring_hits no_stdout_prints else []
  in
  Array.iteri
    (fun i line ->
      match (contains ~sub:"lint:allow" line, rule_hits line) with
      | false, hits -> List.iter (report path (i + 1) line) hits
      | true, [] ->
        report path (i + 1) line "stale lint:allow waiver: no rule fires on this line"
      | true, _ :: _ -> ())
    lines;
  if List.mem (Filename.basename path) domain_shared then begin
    let whole = String.concat "\n" (Array.to_list lines) in
    if contains ~sub:"Hashtbl." whole && not (contains ~sub:"Mutex" whole) then begin
      incr findings;
      Printf.printf "%s: bare Hashtbl in a domain-shared module without a Mutex\n" path
    end
  end

(* Basenames of the linted files under lib/, to check that every entry
   of the file lists above still names one of them. *)
let seen_lib = ref []

let rec walk path =
  if Sys.is_directory path then
    Array.iter
      (fun entry ->
        if entry <> "_build" then walk (Filename.concat path entry))
      (Sys.readdir path)
  else if
    Filename.check_suffix path ".ml" && Filename.basename path <> "mifo_lint.ml"
    (* the rule table above would match itself *)
  then begin
    if in_lib path then seen_lib := Filename.basename path :: !seen_lib;
    lint_file path
  end

let () =
  let dirs =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as rest) -> rest
    | _ -> [ "lib"; "bin"; "test"; "examples" ]
  in
  List.iter (fun d -> if Sys.file_exists d then walk d) dirs;
  (* Only meaningful when the walk covered lib/; a run over test/ alone
     sees none of the named files. *)
  if !seen_lib <> [] then
    List.iter
      (fun (list, name) ->
        if not (List.mem name !seen_lib) then begin
          incr findings;
          Printf.printf "%s: stale entry %S names no linted file\n" list name
        end)
      (List.map (fun f -> ("no_hashtbl_exempt", f)) no_hashtbl_exempt
      @ List.map (fun f -> ("no_hashtbl_files", f)) no_hashtbl_files
      @ List.map (fun f -> ("hot_path_files", f)) hot_path_files
      @ List.map (fun f -> ("policy_callers", f)) policy_callers);
  if !findings > 0 then begin
    Printf.printf "mifo-lint: %d finding(s)\n" !findings;
    exit 1
  end
  else print_endline "mifo-lint: clean"
