(* Tolerant loading of damaged trace files: the readers of {!Trace_io},
   with a damage handler that notes each piece of damage instead of
   raising it, and a report of what they recovered and what was lost. *)

type rank_recovery = {
  rr_rank : int;
  rr_events : int;
  rr_events_lost : int option;
  rr_truncated : bool;
}

type report = {
  format_version : int;
  frames_seen : int;
  frames_dropped : int;
  ranks_missing : int list;
  per_rank : rank_recovery list;
  notes : string list;
}

type outcome = (Trace.t * report, string) result

(* Every piece of damage leaves its note. *)
let is_degraded r = r.notes <> []

let events_lost r =
  List.fold_left
    (fun acc rr ->
      match (acc, rr.rr_events_lost) with
      | Some a, Some l -> Some (a + l)
      | _ -> None)
    (Some 0) r.per_rank

let report_to_string r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "salvage report (format v%d): %d/%d frames intact"
       r.format_version
       (r.frames_seen - r.frames_dropped)
       r.frames_seen);
  (match events_lost r with
  | Some 0 -> ()
  | Some n -> Buffer.add_string b (Printf.sprintf ", %d events lost" n)
  | None -> Buffer.add_string b ", events lost unknown");
  if r.ranks_missing <> [] then
    Buffer.add_string b
      (Printf.sprintf "\n  ranks missing entirely: %s"
         (String.concat "," (List.map string_of_int r.ranks_missing)));
  List.iter
    (fun rr ->
      if rr.rr_truncated then
        Buffer.add_string b
          (Printf.sprintf "\n  rank %d: %d events recovered%s%s" rr.rr_rank
             rr.rr_events
             (match rr.rr_events_lost with
             | Some l -> Printf.sprintf ", %d lost" l
             | None -> ", losses unknown")
             (if rr.rr_truncated then " (stream truncated)" else "")))
    r.per_rank;
  List.iter (fun n -> Buffer.add_string b ("\n  note: " ^ n)) r.notes;
  Buffer.add_char b '\n';
  Buffer.contents b

let of_string ?path text : outcome =
  let notes = ref [] in
  match Trace_io.read ~damage:(fun msg -> notes := msg :: !notes) ?path text with
  | Error msg -> Error msg
  | Ok r ->
      Ok
        ( r.trace,
          {
            format_version = r.version;
            frames_seen = r.frames_seen;
            frames_dropped = r.frames_dropped;
            ranks_missing = r.ranks_missing;
            per_rank =
              List.mapi
                (fun rr_rank (rr_events, rr_events_lost, rr_truncated) ->
                  { rr_rank; rr_events; rr_events_lost; rr_truncated })
                r.ranks;
            notes = List.rev !notes;
          } )

let load ~path : outcome =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> of_string ~path text
  | exception Sys_error msg -> Error (Printf.sprintf "io error: %s" msg)
