(* Tolerant loader for damaged trace files.

   Strategy: scan the framed container with resynchronization (a frame
   whose header is garbled or whose checksum fails is dropped; scanning
   resumes at the next line starting with "frame "), then rebuild a
   trace from whatever sections survived.  v2 rank streams are cut to
   their longest well-formed prefix and re-merged; v3 keeps the longest
   run of intact node frames from nodes:0.  Missing sections are
   reconstructed from redundant ones (nranks from the manifest, the
   rank-frame indices or the surviving events; the communicator table
   defaults to MPI_COMM_WORLD), and events that do not fit the header are
   dropped.  The result is a typed report — never an exception — unless
   nothing usable remains. *)

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

let is_degraded r =
  r.frames_dropped > 0
  || r.ranks_missing <> []
  || List.exists (fun rr -> rr.rr_truncated) r.per_rank

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

(* ------------------------------------------------------------------ *)
(* Tolerant frame scan                                                  *)

(* Find the next plausible frame-header line at or after [pos]. *)
let resync text pos =
  let n = String.length text in
  let rec go p =
    if p >= n then None
    else
      match String.index_from_opt text p '\n' with
      | None -> None
      | Some nl ->
          if nl + 1 < n && n - (nl + 1) >= 6
             && String.sub text (nl + 1) 6 = "frame " then Some (nl + 1)
          else go (nl + 1)
  in
  if pos < n && n - pos >= 6 && String.sub text pos 6 = "frame " then Some pos
  else go pos

(* Scan all frames, skipping damage.  Returns the intact (kind, payload)
   list in order, the number of frames seen, the number dropped, and
   whether the end-of-trace terminator frame was reached.  Its absence
   means the file was cut off even if every frame before the cut is
   intact (e.g. a cut right before the last frame), so it counts as one
   dropped frame and the report registers the damage. *)
let scan_tolerant text =
  let n = String.length text in
  let line_end pos =
    match String.index_from_opt text pos '\n' with Some i -> i | None -> n
  in
  let frames = ref [] and seen = ref 0 and dropped = ref 0 in
  let pos = ref (line_end 0 + 1) (* skip magic line *) in
  let finished = ref false in
  let terminated = ref false in
  while not !finished do
    match resync text !pos with
    | None -> finished := true
    | Some p -> (
        let e = line_end p in
        let header = String.sub text p (e - p) in
        match String.split_on_char ' ' header with
        | [ "frame"; "end"; "0"; _ ] ->
            terminated := true;
            finished := true
        | [ "frame"; kind; len_s; crc_s ] -> (
            incr seen;
            match (int_of_string_opt len_s, Util.Crc32.of_hex crc_s) with
            | Some len, Some crc when len >= 0 && e + 1 + len <= n ->
                let payload = String.sub text (e + 1) len in
                if Util.Crc32.string payload = crc then
                  frames := (kind, payload) :: !frames
                else incr dropped;
                (* the length told us where the next header starts even
                   when the payload is damaged *)
                pos := e + 1 + len + 1
            | Some len, Some _ when len >= 0 ->
                (* header intact but payload runs past end of file *)
                incr dropped;
                finished := true
            | _ ->
                (* garbled header: resync from the next line *)
                incr dropped;
                pos := e + 1)
        | _ ->
            (* a line that merely starts with "frame " *)
            incr dropped;
            pos := e + 1)
  done;
  let missing_end = if !terminated then 0 else 1 in
  (List.rev !frames, !seen + missing_end, !dropped + missing_end, !terminated)

(* ------------------------------------------------------------------ *)
(* Assembly from surviving frames                                       *)

(* Drop the events that do not fit the header (see
   {!Trace_io.event_problem}), with the number dropped and the first
   reason. *)
let keep_fitting ~nranks ~comms nodes =
  let table = Trace_io.comm_table ~nranks comms in
  let dropped = ref 0 and why = ref None in
  let rec filter ns =
    List.filter_map
      (fun n ->
        match n with
        | Tnode.Leaf (e : Event.t) -> (
            match Trace_io.event_problem ~nranks table e with
            | None -> Some n
            | Some reason ->
                incr dropped;
                if !why = None then why := Some reason;
                None)
        | Tnode.Loop { count; body; _ } -> (
            match filter body with
            | [] -> None
            | body' -> Some (Tnode.loop ~count body')))
      ns
  in
  let ns = filter nodes in
  (ns, !dropped, !why)

let dropped_note ~dropped ~why =
  Printf.sprintf "dropped %d events that do not fit the header (first: %s)"
    dropped (Option.value ~default:"?" why)

let header_nranks find =
  match find "header" with
  | Some p -> (
      try Some (Trace_io.parse_header_payload p)
      with Trace_io.Format_error _ -> None)
  | None -> None

(* The communicator table, or MPI_COMM_WORLD alone when its frame is
   lost or unreadable. *)
let recover_comms ~note ~nranks find =
  let world = [ (0, Util.Rank_set.all nranks) ] in
  match find "comms" with
  | Some p -> (
      try Trace_io.parse_comms_payload p
      with Trace_io.Format_error _ ->
        note "comms frame unreadable; assuming MPI_COMM_WORLD only";
        world)
  | None ->
      note "comms frame lost; assuming MPI_COMM_WORLD only";
      world

let of_framed_tolerant ?path text =
  ignore path;
  let frames, seen, dropped, terminated = scan_tolerant text in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  if not terminated then
    note "end-of-trace marker missing (file truncated?)";
  let find kind = List.assoc_opt kind frames in
  let timing =
    match find "timing" with
    | Some p -> Some (Trace_io.parse_timing_payload p)
    | None -> None
  in
  let rank_frames =
    List.filter_map
      (fun (kind, payload) ->
        match Trace_io.rank_of_kind kind with
        | Some r when r >= 0 -> Some (r, payload)
        | _ -> None)
      frames
  in
  (* nranks: header frame, else the timing manifest, else the highest
     surviving rank index. *)
  let nranks =
    match header_nranks find with
    | Some k -> Some k
    | None -> (
        note "header frame lost; inferring rank count";
        match timing with
        | Some (_, per_rank) when per_rank <> [] ->
            Some (1 + List.fold_left (fun a (r, _) -> max a r) 0 per_rank)
        | _ -> (
            match rank_frames with
            | [] -> None
            | rf -> Some (1 + List.fold_left (fun a (r, _) -> max a r) 0 rf)))
  in
  match nranks with
  | None -> Error "unrecoverable: no header, timing, or rank frames survived"
  | Some nranks when nranks <= 0 -> Error "unrecoverable: invalid rank count"
  | Some nranks -> (
      let comms = recover_comms ~note:(note "%s") ~nranks find in
      let expected_for r =
        match timing with
        | Some (_, per_rank) -> List.assoc_opt r per_rank
        | None -> None
      in
      let ranks_missing = ref [] in
      let per_rank = ref [] in
      let streams =
        Array.init nranks (fun r ->
            match List.assoc_opt (Printf.sprintf "rank:%d" r) frames with
            | None ->
                ranks_missing := r :: !ranks_missing;
                per_rank :=
                  {
                    rr_rank = r;
                    rr_events = 0;
                    rr_events_lost = expected_for r;
                    rr_truncated = true;
                  }
                  :: !per_rank;
                []
            | Some payload ->
                let nodes, truncated, err =
                  Trace_io.parse_nodes_prefix (Trace_io.payload_lines payload)
                in
                (match err with
                | Some msg -> note "rank %d: %s" r msg
                | None -> ());
                let nodes, dropped_events, why = keep_fitting ~nranks ~comms nodes in
                if dropped_events > 0 then
                  note "rank %d: %s" r (dropped_note ~dropped:dropped_events ~why);
                let events = Tnode.event_count nodes in
                let lost =
                  match expected_for r with
                  | Some expect -> Some (max 0 (expect - events))
                  | None -> if truncated then None else Some 0
                in
                per_rank :=
                  {
                    rr_rank = r;
                    rr_events = events;
                    rr_events_lost = lost;
                    rr_truncated = truncated || dropped_events > 0;
                  }
                  :: !per_rank;
                nodes)
      in
      if Array.for_all (fun s -> s = []) streams && dropped > 0 then
        Error "unrecoverable: no rank stream survived"
      else
        let trace = Trace_io.assemble ~nranks ~comms streams in
        Ok
          ( trace,
            {
              format_version = 2;
              frames_seen = seen;
              frames_dropped = dropped;
              ranks_missing = List.rev !ranks_missing;
              per_rank = List.rev !per_rank;
              notes = List.rev !notes;
            } ))

(* ------------------------------------------------------------------ *)
(* v3 salvage: the longest run of intact node frames                    *)

(* The merged trace's top-level nodes are in global order, and global
   order preserves each rank's order, so the node frames before the
   first damaged or missing one are a prefix of every rank's stream.
   Later frames are not used even when intact: splicing around a hole
   would drop events from the middle of some ranks' streams.  The
   manifest, when it survived, says exactly what each rank lost. *)
let of_v3_tolerant text =
  let frames, seen, dropped, terminated = scan_tolerant text in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  if not terminated then
    note "end-of-trace marker missing (file truncated?)";
  let find kind = List.assoc_opt kind frames in
  let manifest =
    match find "manifest" with
    | None ->
        note "manifest frame lost; per-rank losses unknown";
        None
    | Some p -> (
        try Some (Trace_io.parse_manifest_payload p)
        with Trace_io.Format_error msg ->
          note "manifest unreadable (%s); per-rank losses unknown" msg;
          None)
  in
  let node_frames = Hashtbl.create 64 in
  List.iter
    (fun (kind, payload) ->
      match Trace_io.node_of_kind kind with
      | Some i when not (Hashtbl.mem node_frames i) -> Hashtbl.add node_frames i payload
      | _ -> ())
    frames;
  (* [kept]: node frames used whole; [cut]: the run ended on a frame
     whose payload did not parse to the end *)
  let rec run i acc =
    match Hashtbl.find_opt node_frames i with
    | None -> (acc, i, false)
    | Some payload ->
        let nodes, truncated, err = Trace_io.parse_nodes_prefix (Trace_io.payload_lines payload) in
        (match err with Some msg -> note "nodes:%d: %s" i msg | None -> ());
        if truncated then (List.rev_append nodes acc, i, true)
        else run (i + 1) (List.rev_append nodes acc)
  in
  let rev_nodes, kept, cut = run 0 [] in
  let nodes = List.rev rev_nodes in
  let later = Hashtbl.fold (fun i _ acc -> acc || i > kept) node_frames false in
  let max_rank_plus_one sets =
    List.fold_left
      (fun acc set ->
        match Util.Rank_set.max_elt set with Some r -> max acc (r + 1) | None -> acc)
      0 sets
  in
  let nranks =
    match header_nranks find with
    | Some k -> Some k
    | None -> (
        note "header frame lost; inferring rank count";
        let from_manifest =
          match manifest with
          | Some m -> max_rank_plus_one (List.map fst m.m_groups)
          | None -> 0
        in
        let from_nodes =
          let sets = ref [] in
          Tnode.iter_leaves (fun e -> sets := e.Event.ranks :: !sets) nodes;
          max_rank_plus_one !sets
        in
        match max from_manifest from_nodes with 0 -> None | k -> Some k)
  in
  match nranks with
  | None -> Error "unrecoverable: no header, manifest, or node frames survived"
  | Some _ when nodes = [] && dropped > 0 -> Error "unrecoverable: no node frame survived"
  | Some nranks ->
      let comms = recover_comms ~note:(note "%s") ~nranks find in
      let nodes, dropped_events, why = keep_fitting ~nranks ~comms nodes in
      if dropped_events > 0 then note "%s" (dropped_note ~dropped:dropped_events ~why);
      let expected =
        match manifest with
        | None -> Array.make nranks None
        | Some m -> (
            try Trace_io.manifest_counts ~nranks m
            with Trace_io.Format_error msg ->
              note "manifest disagrees with the header (%s); per-rank losses unknown"
                msg;
              Array.make nranks None)
      in
      (match manifest with
      | Some m when kept < m.m_nodes ->
          note "kept node frames 0..%d of %d" (kept - 1) m.m_nodes
      | Some _ -> ()
      | None -> if later || cut then note "kept node frames 0..%d" (kept - 1));
      (* without a manifest, the prefix is known whole only when nothing
         at all was damaged *)
      let whole = terminated && dropped = 0 && (not cut) && not later in
      let got = Trace_io.rank_event_counts ~nranks nodes in
      let per_rank =
        List.init nranks (fun r ->
            let lost =
              match expected.(r) with
              | Some c -> Some (max 0 (c - got.(r)))
              | None -> if whole && dropped_events = 0 then Some 0 else None
            in
            {
              rr_rank = r;
              rr_events = got.(r);
              rr_events_lost = lost;
              rr_truncated = (match lost with Some l -> l > 0 | None -> true);
            })
      in
      let ranks_missing =
        List.filter_map
          (fun rr ->
            match expected.(rr.rr_rank) with
            | Some c when c > 0 && rr.rr_events = 0 -> Some rr.rr_rank
            | _ -> None)
          per_rank
      in
      Ok
        ( Trace.make ~nranks ~comms ~nodes,
          {
            format_version = 3;
            frames_seen = seen;
            frames_dropped = dropped;
            ranks_missing;
            per_rank;
            notes = List.rev !notes;
          } )

(* ------------------------------------------------------------------ *)
(* v1 salvage: longest parseable line prefix                            *)

let of_text_tolerant ?path text =
  ignore path;
  let lines = String.split_on_char '\n' text in
  match lines with
  | magic :: rest when String.trim magic = Trace_io.magic_v1 ->
      (* headers (nranks/comm) first; cut the body at the first bad line *)
      let nranks = ref 0 and comms = ref [] in
      let body = ref [] and header_lines = ref 0 and bad = ref None in
      (try
         List.iteri
           (fun i raw ->
             let lineno = i + 2 in
             let line = String.trim raw in
             if line = "" then ()
             else
               match String.split_on_char ' ' line with
               | "nranks" :: v :: [] when !body = [] -> (
                   incr header_lines;
                   match int_of_string_opt v with
                   | Some k -> nranks := k
                   | None ->
                       bad := Some (Printf.sprintf "line %d: bad nranks" lineno);
                       raise Exit)
               | "comm" :: id :: members :: [] when !body = [] -> (
                   incr header_lines;
                   match int_of_string_opt id with
                   | Some id -> (
                       try comms := (id, Trace_io.parse_ranks members) :: !comms
                       with Trace_io.Format_error _ ->
                         bad := Some (Printf.sprintf "line %d: bad comm" lineno);
                         raise Exit)
                   | None ->
                       bad := Some (Printf.sprintf "line %d: bad comm id" lineno);
                       raise Exit)
               | _ -> body := (lineno, line) :: !body)
           rest
       with Exit -> ());
      if !nranks <= 0 then
        Error "unrecoverable: v1 trace lost its nranks line"
      else
        let body_lines = List.rev_map snd !body in
        let nodes, truncated, err = Trace_io.parse_nodes_prefix body_lines in
        let comms =
          if !comms = [] then [ (0, Util.Rank_set.all !nranks) ]
          else List.rev !comms
        in
        let nodes, dropped_events, why = keep_fitting ~nranks:!nranks ~comms nodes in
        let trace = Trace.make ~nranks:!nranks ~comms ~nodes in
        let notes =
          List.filter_map Fun.id
            [
              !bad;
              err;
              (if dropped_events > 0 then
                 Some (dropped_note ~dropped:dropped_events ~why)
               else None);
            ]
        in
        let degraded = truncated || !bad <> None || dropped_events > 0 in
        Ok
          ( trace,
            {
              format_version = 1;
              frames_seen = 0;
              frames_dropped = 0;
              ranks_missing = [];
              per_rank =
                List.init !nranks (fun r ->
                    {
                      rr_rank = r;
                      rr_events = Tnode.event_count_for nodes ~rank:r;
                      rr_events_lost = (if degraded then None else Some 0);
                      rr_truncated = degraded;
                    });
              notes;
            } )
  | _ -> Error "unrecoverable: no recognizable trace magic"

let of_string ?path text : outcome =
  match Trace_io.framed_version text with
  | Some 3 -> of_v3_tolerant text
  | Some _ -> of_framed_tolerant ?path text
  | None -> of_text_tolerant ?path text

let load ~path : outcome =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> of_string ~path text
  | exception Sys_error msg -> Error (Printf.sprintf "io error: %s" msg)
