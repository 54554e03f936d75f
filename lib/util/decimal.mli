(** Strict decimal integers for external input (CAIDA files, prefixes,
    CLI values). *)

val of_string_opt : string -> int option
(** [Some n] when the string is one or more ASCII digits and fits in an
    [int].  [None] for anything else, including a sign, a [0x]/[0o]/[0b]
    prefix, a [_] separator or surrounding blanks — all of which
    [int_of_string_opt] accepts. *)
