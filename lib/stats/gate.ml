let threshold s =
  match float_of_string_opt s with
  | None -> Error (Printf.sprintf "invalid value '%s', expected a number" s)
  | Some v when Float.is_nan v -> Error (Printf.sprintf "%s is not a number" s)
  | Some v when v < 0. -> Error (Printf.sprintf "%s is negative" s)
  | Some v -> Ok v
