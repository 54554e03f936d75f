(* Inputs for the parser fuzz properties of the test suites: random
   strings over [alphabet], prefixes of the valid [samples], and samples
   with one byte overwritten. *)
let gen ~alphabet ~samples =
  QCheck2.Gen.(
    let char = map (String.get alphabet) (int_bound (String.length alphabet - 1)) in
    oneof
      [
        string_size ~gen:char (int_bound 40);
        (let* s = oneofl samples in
         let* k = int_bound (String.length s) in
         return (String.sub s 0 k));
        (let* s = oneofl samples in
         let* i = int_bound (Stdlib.max 0 (String.length s - 1)) in
         let* c = char in
         return (String.mapi (fun j x -> if j = i then c else x) s));
      ])
