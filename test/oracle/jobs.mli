(** Running a test body at a chosen size of the shared domain pool. *)

val with_jobs : int -> (unit -> 'a) -> 'a
(** [with_jobs n f] runs [f] with the shared pool
    ({!Mifo_util.Parallel.get_default}) resized to [n] jobs, then
    restores the previous size, also when [f] raises.  This is how the
    tests compare a 1-job run with a 4-job run of the same entry point. *)
