let of_string_opt s =
  if s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s then int_of_string_opt s
  else None
