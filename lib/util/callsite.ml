type t = { file : string; line : int; col : int; label : string }

let make ?(label = "") (file, line, col, _) = { file; line; col; label }

let synthetic name = { file = "<gen>"; line = 0; col = 0; label = name }

let unknown = { file = "<unknown>"; line = 0; col = 0; label = "" }

let equal a b =
  a == b
  || a.line = b.line && a.col = b.col && String.equal a.file b.file
     && String.equal a.label b.label

let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> (
          match Int.compare a.col b.col with
          | 0 -> String.compare a.label b.label
          | c -> c)
      | c -> c)
  | c -> c

(* Mixed arithmetically: hashing a tuple would allocate it on every call. *)
let hash t =
  let h = (Hashtbl.hash t.file * 31) + t.line in
  let h = (h * 31) + t.col in
  (h * 31) + Hashtbl.hash t.label

let encode t = Printf.sprintf "%S %d %d %S" t.file t.line t.col t.label

let decode s =
  try Scanf.sscanf s "%S %d %d %S" (fun file line col label -> { file; line; col; label })
  with Scanf.Scan_failure _ | End_of_file ->
    invalid_arg ("Callsite.decode: " ^ s)

let label t = t.label

let pp ppf t =
  if t.label <> "" then Format.fprintf ppf "%s:%d[%s]" t.file t.line t.label
  else Format.fprintf ppf "%s:%d:%d" t.file t.line t.col

let to_string t = Format.asprintf "%a" pp t
