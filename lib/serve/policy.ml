module Pipeline = Benchgen.Pipeline

type t = {
  deadline_s : float option;
  max_retries : int;
  backoff_base_s : float;
  backoff_factor : float;
  backoff_max_s : float;
  jitter : float;
  escalate : bool;
  recovery : Pipeline.recovery;
}

let default =
  {
    deadline_s = None;
    max_retries = 2;
    backoff_base_s = 0.05;
    backoff_factor = 2.0;
    backoff_max_s = 5.0;
    jitter = 0.25;
    escalate = true;
    recovery = `Strict;
  }

let backoff_s t ~rng ~attempt =
  if attempt < 1 then invalid_arg "Policy.backoff_s: attempt < 1";
  let raw =
    t.backoff_base_s *. (t.backoff_factor ** float_of_int (attempt - 1))
  in
  let capped = Float.min t.backoff_max_s raw in
  capped *. (1. +. (t.jitter *. Util.Rng.float rng))

let recovery_rank = function `Strict -> 0 | `Salvage -> 1 | `Best_effort -> 2
let recovery_of_rank = function 0 -> `Strict | 1 -> `Salvage | _ -> `Best_effort

let recovery_for_attempt t ~attempt =
  if not t.escalate then t.recovery
  else recovery_of_rank (min 2 (recovery_rank t.recovery + attempt))

(* ------------------------------------------------------------------ *)
(* Request-object overrides                                            *)

let ( let* ) = Result.bind

let field_num j name =
  match Obs.Json.member name j with
  | None | Some Obs.Json.Null -> Ok None
  | Some (Obs.Json.Num v) -> Ok (Some v)
  | Some _ -> Error (Printf.sprintf "field %S must be a number" name)

let field_bool j name =
  match Obs.Json.member name j with
  | None | Some Obs.Json.Null -> Ok None
  | Some (Obs.Json.Bool b) -> Ok (Some b)
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)

let override_from_json t j =
  let* deadline = field_num j "deadline_s" in
  let* retries = field_num j "max_retries" in
  let* base = field_num j "backoff_base_s" in
  let* factor = field_num j "backoff_factor" in
  let* cap = field_num j "backoff_max_s" in
  let* jitter = field_num j "jitter" in
  let* escalate = field_bool j "escalate" in
  let* recovery =
    match Obs.Json.member "recovery" j with
    | None | Some Obs.Json.Null -> Ok None
    | Some (Obs.Json.Str s) ->
        Result.map Option.some (Pipeline.recovery_of_string s)
    | Some _ -> Error "field \"recovery\" must be a string"
  in
  let* () =
    match retries with
    | Some r when r < 0. -> Error "max_retries must be >= 0"
    | _ -> Ok ()
  in
  let* () =
    match deadline with
    | Some d when d <= 0. -> Error "deadline_s must be > 0"
    | _ -> Ok ()
  in
  (* A request may shorten its retry delays but never stretch them past
     the server's cap: a drain, and SIGTERM, wait for every pending
     retry. *)
  let* () =
    match jitter with
    | Some j when not (j >= 0. && j <= 1.) -> Error "jitter must be in [0, 1]"
    | _ -> Ok ()
  in
  let* () =
    match cap with
    | Some c when not (c >= 0. && c <= t.backoff_max_s) ->
        Error
          (Printf.sprintf "backoff_max_s must be in [0, %g], the server's cap"
             t.backoff_max_s)
    | _ -> Ok ()
  in
  Ok
    {
      deadline_s = (match deadline with None -> t.deadline_s | d -> d);
      max_retries =
        (match retries with
        | None -> t.max_retries
        | Some r -> int_of_float r);
      backoff_base_s = Option.value ~default:t.backoff_base_s base;
      backoff_factor = Option.value ~default:t.backoff_factor factor;
      backoff_max_s = Option.value ~default:t.backoff_max_s cap;
      jitter = Option.value ~default:t.jitter jitter;
      escalate = Option.value ~default:t.escalate escalate;
      recovery = Option.value ~default:t.recovery recovery;
    }
