module Parallel = Mifo_util.Parallel

let with_jobs n f =
  let previous = Parallel.jobs (Parallel.get_default ()) in
  Parallel.set_default_jobs n;
  Fun.protect ~finally:(fun () -> Parallel.set_default_jobs previous) f
