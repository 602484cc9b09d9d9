exception Format_error of string

(* All parse errors go through [fail]: "line N: ..." with an optional
   source (file path) prefix, so a failure inside a multi-file workflow
   names the offending file, not just the line. *)
let fail ?src line fmt =
  Printf.ksprintf
    (fun s ->
      let where =
        match src with
        | None -> Printf.sprintf "line %d" line
        | Some p -> Printf.sprintf "%s: line %d" p line
      in
      raise (Format_error (Printf.sprintf "%s: %s" where s)))
    fmt

(* ------------------------------------------------------------------ *)
(* Writing                                                              *)

let kind_to_string (k : Event.kind) =
  match k with
  | Event.E_waitall n -> Printf.sprintf "MPI_Waitall:%d" n
  | k -> Event.kind_name k

let kind_of_string ?src line s =
  match String.index_opt s ':' with
  | Some i when String.sub s 0 i = "MPI_Waitall" ->
      let n =
        try int_of_string (String.sub s (i + 1) (String.length s - i - 1))
        with Failure _ -> fail ?src line "bad waitall width in %S" s
      in
      Event.E_waitall n
  | _ -> (
      match s with
      | "MPI_Send" -> Event.E_send
      | "MPI_Isend" -> Event.E_isend
      | "MPI_Recv" -> Event.E_recv
      | "MPI_Irecv" -> Event.E_irecv
      | "MPI_Wait" -> Event.E_wait
      | "MPI_Barrier" -> Event.E_barrier
      | "MPI_Bcast" -> Event.E_bcast
      | "MPI_Reduce" -> Event.E_reduce
      | "MPI_Allreduce" -> Event.E_allreduce
      | "MPI_Gather" -> Event.E_gather
      | "MPI_Gatherv" -> Event.E_gatherv
      | "MPI_Allgather" -> Event.E_allgather
      | "MPI_Allgatherv" -> Event.E_allgatherv
      | "MPI_Scatter" -> Event.E_scatter
      | "MPI_Scatterv" -> Event.E_scatterv
      | "MPI_Alltoall" -> Event.E_alltoall
      | "MPI_Alltoallv" -> Event.E_alltoallv
      | "MPI_Reduce_scatter" -> Event.E_reduce_scatter
      | "MPI_Neighbor_alltoall" -> Event.E_neighbor_alltoall
      | "MPI_Neighbor_allgather" -> Event.E_neighbor_allgather
      | "MPI_Comm_split" -> Event.E_comm_split
      | "MPI_Comm_dup" -> Event.E_comm_dup
      | "MPI_Finalize" -> Event.E_finalize
      | s -> fail ?src line "unknown operation %S" s)

let peer_to_string (p : Event.peer) =
  match p with
  | Event.P_none -> "none"
  | Event.P_any -> "any"
  | Event.P_abs a -> Printf.sprintf "abs:%d" a
  | Event.P_rel d -> Printf.sprintf "rel:%d" d
  | Event.P_map m ->
      "map:"
      ^ String.concat ","
          (List.map (fun (r, p) -> Printf.sprintf "%d>%d" r p) m)

let peer_of_string ?src line s =
  let num tail = try int_of_string tail with Failure _ -> fail ?src line "bad peer %S" s in
  match String.index_opt s ':' with
  | None -> (
      match s with
      | "none" -> Event.P_none
      | "any" -> Event.P_any
      | _ -> fail ?src line "bad peer %S" s)
  | Some i -> (
      let head = String.sub s 0 i
      and tail = String.sub s (i + 1) (String.length s - i - 1) in
      match head with
      | "abs" -> Event.P_abs (num tail)
      | "rel" -> Event.P_rel (num tail)
      | "map" ->
          let entries =
            if tail = "" then []
            else
              List.map
                (fun pair ->
                  match String.index_opt pair '>' with
                  | Some j ->
                      let r = String.sub pair 0 j in
                      let p = String.sub pair (j + 1) (String.length pair - j - 1) in
                      (num r, num p)
                  | None -> fail ?src line "bad peer map entry %S" pair)
                (String.split_on_char ',' tail)
          in
          Event.P_map entries
      | _ -> fail ?src line "bad peer %S" s)

let ranks_to_string set =
  String.concat ","
    (List.map
       (fun (first, last, stride) -> Printf.sprintf "%d:%d:%d" first last stride)
       (Util.Rank_set.intervals set))

let ranks_of_string ?src line s =
  if s = "" then Util.Rank_set.empty
  else
    List.fold_left
      (fun acc part ->
        match String.split_on_char ':' part with
        | [ f; l; st ] -> (
            try
              Util.Rank_set.union acc
                (Util.Rank_set.range ~stride:(int_of_string st) (int_of_string f)
                   (int_of_string l))
            with Failure _ | Invalid_argument _ -> fail ?src line "bad rank interval %S" part)
        | _ -> fail ?src line "bad rank interval %S" part)
      Util.Rank_set.empty (String.split_on_char ',' s)

let vec_to_string = function
  | None -> "-"
  | Some v -> String.concat "," (Array.to_list (Array.map string_of_int v))

let vec_of_string ?src line = function
  | "-" -> None
  | s -> (
      try Some (Array.of_list (List.map int_of_string (String.split_on_char ',' s)))
      with Failure _ -> fail ?src line "bad size vector %S" s)

let event_to_line (e : Event.t) =
  (* [parts=] is emitted only for partial participant sets, so every
     trace written before neighborhood collectives existed reproduces
     byte-identically. *)
  let parts_field =
    match e.parts with
    | None -> ""
    | Some ps -> " parts=" ^ vec_to_string (Some ps)
  in
  Printf.sprintf "event %s peer=%s bytes=%d vec=%s tag=%d comm=%d ranks=%s dt=%d;%.17g;%.17g;%.17g;%.17g%s site=%s"
    (kind_to_string e.kind) (peer_to_string e.peer) e.bytes (vec_to_string e.vec)
    e.tag e.comm (ranks_to_string e.ranks)
    (Util.Histogram.count e.dtime) (Util.Histogram.sum e.dtime)
    (Util.Histogram.min_value e.dtime) (Util.Histogram.max_value e.dtime)
    (Util.Histogram.first_sample e.dtime)
    parts_field
    (Util.Callsite.encode e.site)

let add_nodes buf depth ns =
  let rec go depth ns =
    List.iter
      (fun n ->
        let indent = String.make (2 * depth) ' ' in
        match n with
        | Tnode.Leaf e ->
            Buffer.add_string buf indent;
            Buffer.add_string buf (event_to_line e);
            Buffer.add_char buf '\n'
        | Tnode.Loop { count; body; _ } ->
            Buffer.add_string buf (Printf.sprintf "%sloop %d\n" indent count);
            go (depth + 1) body;
            Buffer.add_string buf (indent ^ "end\n"))
      ns
  in
  go depth ns

let to_text trace =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "scalatrace-trace 1\n";
  Buffer.add_string buf (Printf.sprintf "nranks %d\n" (Trace.nranks trace));
  List.iter
    (fun (id, members) ->
      Buffer.add_string buf (Printf.sprintf "comm %d %s\n" id (ranks_to_string members)))
    (Trace.comms trace);
  add_nodes buf 0 (Trace.nodes trace);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reading                                                              *)

(* "key=value" fields separated by single spaces; values contain no
   spaces except the trailing site=, which runs to end of line. *)
let parse_event ?src lineno rest =
  let site_marker = " site=" in
  let site_pos =
    let n = String.length rest and m = String.length site_marker in
    let rec go i =
      if i + m > n then fail ?src lineno "missing site field"
      else if String.sub rest i m = site_marker then i
      else go (i + 1)
    in
    go 0
  in
  let head = String.sub rest 0 site_pos in
  let site_str =
    String.sub rest
      (site_pos + String.length site_marker)
      (String.length rest - site_pos - String.length site_marker)
  in
  let site =
    try Util.Callsite.decode site_str
    with Invalid_argument _ -> fail ?src lineno "bad site %S" site_str
  in
  match String.split_on_char ' ' head with
  | kind_s :: fields ->
      let kind = kind_of_string ?src lineno kind_s in
      let get key =
        let prefix = key ^ "=" in
        match
          List.find_opt
            (fun f ->
              String.length f >= String.length prefix
              && String.sub f 0 (String.length prefix) = prefix)
            fields
        with
        | Some f ->
            String.sub f (String.length prefix) (String.length f - String.length prefix)
        | None -> fail ?src lineno "missing field %s" key
      in
      let get_opt key =
        let prefix = key ^ "=" in
        Option.map
          (fun f ->
            String.sub f (String.length prefix)
              (String.length f - String.length prefix))
          (List.find_opt
             (fun f ->
               String.length f >= String.length prefix
               && String.sub f 0 (String.length prefix) = prefix)
             fields)
      in
      let int_field key =
        try int_of_string (get key) with Failure _ -> fail ?src lineno "bad %s" key
      in
      let dt =
        match String.split_on_char ';' (get "dt") with
        | [ c; s; mn; mx; fs ] -> (
            try
              Util.Histogram.of_stats ~count:(int_of_string c)
                ~sum:(float_of_string s) ~min:(float_of_string mn)
                ~max:(float_of_string mx) ~first:(float_of_string fs)
            with Failure _ | Invalid_argument _ -> fail ?src lineno "bad dt field")
        | _ -> fail ?src lineno "bad dt field"
      in
      {
        Event.site;
        kind;
        peer = peer_of_string ?src lineno (get "peer");
        bytes = int_field "bytes";
        vec = vec_of_string ?src lineno (get "vec");
        tag = int_field "tag";
        comm = int_field "comm";
        parts =
          (match get_opt "parts" with
          | None -> None
          | Some s -> vec_of_string ?src lineno s);
        dtime = dt;
        ranks = ranks_of_string ?src lineno (get "ranks");
        hcache = 0;
      }
  | [] -> fail ?src lineno "empty event"

(* One step of the node-stream parser: feed a trimmed line into the open
   loop stack.  Shared by the strict parsers and the salvage loader. *)
type node_stack = (int * Tnode.t list ref) list ref

let fresh_stack () : node_stack = ref [ (0, ref []) ]

let stack_push_node (stack : node_stack) n =
  match !stack with
  | (_, body) :: _ -> body := n :: !body
  | [] -> assert false

let node_line_step ?src (stack : node_stack) lineno line =
  match String.index_opt line ' ' with
  | None when line = "end" -> (
      match !stack with
      | (count, body) :: rest when rest <> [] ->
          stack := rest;
          stack_push_node stack (Tnode.loop ~count (List.rev !body))
      | _ -> fail ?src lineno "unmatched end")
  | None -> fail ?src lineno "cannot parse %S" line
  | Some sp -> (
      let word = String.sub line 0 sp in
      let rest = String.sub line (sp + 1) (String.length line - sp - 1) in
      match word with
      | "loop" ->
          let count =
            try int_of_string rest with Failure _ -> fail ?src lineno "bad loop count"
          in
          stack := (count, ref []) :: !stack
      | "event" -> stack_push_node stack (Tnode.Leaf (parse_event ?src lineno rest))
      | _ -> fail ?src lineno "unknown directive %S" word)

(* Completed top-level nodes of a (possibly still-open) stack: open loops
   are dropped wholesale — their counts and bodies are not trustworthy. *)
let stack_completed (stack : node_stack) =
  match List.rev !stack with
  | (_, top) :: _ -> List.rev !top
  | [] -> []

let stack_closed (stack : node_stack) = match !stack with [ _ ] -> true | _ -> false

(* Strict node-stream parser over [lines]; line numbers are offset by
   [lineno0] so errors point into the enclosing file. *)
let parse_nodes ?src ?(lineno0 = 0) lines =
  let stack = fresh_stack () in
  List.iteri
    (fun i raw ->
      let line = String.trim raw in
      if line <> "" then node_line_step ?src stack (lineno0 + i + 1) line)
    lines;
  if not (stack_closed stack) then
    fail ?src (lineno0 + List.length lines) "unterminated loop at end of input";
  stack_completed stack

(* Salvage variant: parse the longest well-formed prefix; never raises.
   Returns the completed nodes, whether the stream was cut short, and the
   first error (if any). *)
let parse_nodes_prefix ?(lineno0 = 0) lines =
  let stack = fresh_stack () in
  let error = ref None in
  (try
     List.iteri
       (fun i raw ->
         let line = String.trim raw in
         if line <> "" then
           try node_line_step stack (lineno0 + i + 1) line
           with Format_error msg ->
             error := Some msg;
             raise Exit)
       lines
   with Exit -> ());
  let truncated = !error <> None || not (stack_closed stack) in
  (stack_completed stack, truncated, !error)

let of_text ?path text =
  let src = path in
  let lines = String.split_on_char '\n' text in
  let nranks = ref 0 in
  let comms = ref [] in
  let stack = fresh_stack () in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      let line = String.trim raw in
      if line = "" then ()
      else if lineno = 1 then begin
        if line <> "scalatrace-trace 1" then
          fail ?src lineno "not a scalatrace trace (bad magic %S)" line
      end
      else
        match String.index_opt line ' ' with
        | Some sp
          when (let w = String.sub line 0 sp in w = "nranks" || w = "comm") -> (
            let word = String.sub line 0 sp in
            let rest = String.sub line (sp + 1) (String.length line - sp - 1) in
            match word with
            | "nranks" -> (
                try nranks := int_of_string rest
                with Failure _ -> fail ?src lineno "bad nranks")
            | _ -> (
                match String.split_on_char ' ' rest with
                | [ id; members ] -> (
                    try
                      comms :=
                        (int_of_string id, ranks_of_string ?src lineno members)
                        :: !comms
                    with Failure _ -> fail ?src lineno "bad comm id")
                | _ -> fail ?src lineno "bad comm line"))
        | _ -> node_line_step ?src stack lineno line)
    lines;
  if not (stack_closed stack) then
    raise
      (Format_error
         (match src with
         | None -> "unterminated loop at end of input"
         | Some p -> p ^ ": unterminated loop at end of input"));
  if !nranks <= 0 then
    raise
      (Format_error
         (match src with
         | None -> "missing or invalid nranks"
         | Some p -> p ^ ": missing or invalid nranks"));
  Trace.make ~nranks:!nranks ~comms:(List.rev !comms)
    ~nodes:(stack_completed stack)

(* ------------------------------------------------------------------ *)
(* Framed format v2                                                     *)

(* Container layout (text-friendly, binary-safe):

     scalatrace-frames 2\n
     frame <kind> <len> <crc32-hex8>\n
     <len payload bytes>\n
     ...
     frame end 0 00000000\n

   Kinds: [header] (nranks), [comms] (communicator table), [rank:<r>]
   (rank r's RSD stream, singleton participant sets, concrete peers,
   timing on the lowest participating rank only), [timing] (per-rank
   event-count manifest).  Each frame's CRC-32 covers exactly its
   payload bytes, so corruption is localized to one section: a flipped
   byte invalidates one frame, a truncation costs the tail — which is
   what lets {!Salvage} recover every intact section. *)

let magic_v1 = "scalatrace-trace 1"
let magic_v2 = "scalatrace-frames 2"

let frame_header ~kind ~payload =
  Printf.sprintf "frame %s %d %s" kind (String.length payload)
    (Util.Crc32.to_hex (Util.Crc32.string payload))

(* Rank [rank]'s serializable stream: its projection with participant
   sets narrowed to the singleton and generalized peers resolved to the
   concrete value — the same shape the tracer's per-rank collectors
   produce, which is what lets the loader re-merge streams with the
   production {!Merge} path.  Compute-time summaries ride on the lowest
   participating rank only ("owner"), so re-merging does not double-count
   timing. *)
let rank_stream trace ~rank =
  let nranks = Trace.nranks trace in
  Tnode.map_leaves
    (fun (e : Event.t) ->
      let owner = Util.Rank_set.min_elt e.ranks = Some rank in
      let e' = Event.copy e in
      e'.Event.ranks <- Util.Rank_set.singleton rank;
      (match e'.Event.peer with
      | Event.P_map _ | Event.P_rel _ -> (
          match Event.peer_of e ~rank ~nranks with
          | Some p -> e'.Event.peer <- Event.P_abs p
          | None -> e'.Event.peer <- Event.P_none)
      | Event.P_none | Event.P_any | Event.P_abs _ -> ());
      if not owner then
        { e' with Event.dtime = Util.Histogram.create (); hcache = 0 }
      else e')
    (Trace.project trace ~rank)

let to_framed trace =
  let buf = Buffer.create 8192 in
  let frame kind payload =
    Buffer.add_string buf (frame_header ~kind ~payload);
    Buffer.add_char buf '\n';
    Buffer.add_string buf payload;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf magic_v2;
  Buffer.add_char buf '\n';
  let nranks = Trace.nranks trace in
  frame "header" (Printf.sprintf "nranks %d" nranks);
  frame "comms"
    (String.concat "\n"
       (List.map
          (fun (id, members) ->
            Printf.sprintf "comm %d %s" id (ranks_to_string members))
          (Trace.comms trace)));
  let manifest = Buffer.create 256 in
  Buffer.add_string manifest
    (Printf.sprintf "events %d" (Trace.event_count trace));
  for rank = 0 to nranks - 1 do
    let stream = rank_stream trace ~rank in
    let b = Buffer.create 1024 in
    add_nodes b 0 stream;
    (* payloads carry no trailing newline; the container adds the separator *)
    let payload =
      let s = Buffer.contents b in
      let n = String.length s in
      if n > 0 && s.[n - 1] = '\n' then String.sub s 0 (n - 1) else s
    in
    frame (Printf.sprintf "rank:%d" rank) payload;
    Buffer.add_string manifest
      (Printf.sprintf "\nrank %d %d" rank (Tnode.event_count stream))
  done;
  frame "timing" (Buffer.contents manifest);
  Buffer.add_string buf "frame end 0 00000000\n";
  Buffer.contents buf

let is_framed text =
  String.length text >= String.length magic_v2
  && String.sub text 0 (String.length magic_v2) = magic_v2

(* Exact (strict) frame scan: any malformation raises. *)
let scan_frames_strict ?src text =
  let n = String.length text in
  let line_end pos = match String.index_from_opt text pos '\n' with
    | Some i -> i
    | None -> n
  in
  (* line numbers are only approximate bookkeeping for error messages *)
  let lineno = ref 1 in
  let pos = ref (line_end 0 + 1) in
  incr lineno;
  let frames = ref [] in
  let finished = ref false in
  while not !finished do
    if !pos >= n then fail ?src !lineno "missing end frame";
    let e = line_end !pos in
    let header = String.sub text !pos (e - !pos) in
    (match String.split_on_char ' ' header with
    | [ "frame"; "end"; "0"; _ ] ->
        finished := true;
        pos := e + 1
    | [ "frame"; kind; len_s; crc_s ] -> (
        match (int_of_string_opt len_s, Util.Crc32.of_hex crc_s) with
        | Some len, Some crc when len >= 0 && e + 1 + len <= n ->
            let payload = String.sub text (e + 1) len in
            if Util.Crc32.string payload <> crc then
              fail ?src !lineno "frame %s: checksum mismatch" kind;
            if e + 1 + len < n && text.[e + 1 + len] <> '\n' then
              fail ?src !lineno "frame %s: missing separator" kind;
            frames := (kind, payload) :: !frames;
            lineno := !lineno + 1
              + (List.length (String.split_on_char '\n' payload));
            pos := e + 1 + len + 1
        | Some _, Some _ -> fail ?src !lineno "frame %s: truncated payload" kind
        | _ -> fail ?src !lineno "bad frame header %S" header)
    | _ -> fail ?src !lineno "bad frame header %S" header)
  done;
  List.rev !frames

let parse_header_payload ?src payload =
  match String.split_on_char ' ' (String.trim payload) with
  | [ "nranks"; v ] -> (
      match int_of_string_opt v with
      | Some k when k > 0 -> k
      | _ -> fail ?src 1 "bad nranks in header frame")
  | _ -> fail ?src 1 "bad header frame"

let parse_comms_payload ?src payload =
  List.filter_map
    (fun raw ->
      let line = String.trim raw in
      if line = "" then None
      else
        match String.split_on_char ' ' line with
        | [ "comm"; id; members ] -> (
            match int_of_string_opt id with
            | Some id -> Some (id, ranks_of_string ?src 1 members)
            | None -> fail ?src 1 "bad comm id in comms frame")
        | _ -> fail ?src 1 "bad comms frame line %S" line)
    (String.split_on_char '\n' payload)

let parse_timing_payload payload =
  let events = ref None and per_rank = ref [] in
  List.iter
    (fun raw ->
      let line = String.trim raw in
      match String.split_on_char ' ' line with
      | [ "events"; v ] -> events := int_of_string_opt v
      | [ "rank"; r; c ] -> (
          match (int_of_string_opt r, int_of_string_opt c) with
          | Some r, Some c -> per_rank := (r, c) :: !per_rank
          | _ -> ())
      | _ -> ())
    (String.split_on_char '\n' payload);
  (!events, List.rev !per_rank)

let parse_ranks ?src s = ranks_of_string ?src 0 s

let rank_of_kind kind =
  if String.length kind > 5 && String.sub kind 0 5 = "rank:" then
    int_of_string_opt (String.sub kind 5 (String.length kind - 5))
  else None

let assemble ?src ~nranks ~comms streams = ignore src; Merge.merge ~nranks ~comms streams

let of_framed ?path text =
  let src = path in
  if not (is_framed text) then
    fail ?src 1 "not a framed scalatrace trace (bad magic)";
  let frames = scan_frames_strict ?src text in
  let find kind = List.assoc_opt kind frames in
  let nranks =
    match find "header" with
    | Some p -> parse_header_payload ?src p
    | None -> fail ?src 1 "missing header frame"
  in
  let comms =
    match find "comms" with
    | Some p -> parse_comms_payload ?src p
    | None -> fail ?src 1 "missing comms frame"
  in
  let streams =
    Array.init nranks (fun r ->
        match find (Printf.sprintf "rank:%d" r) with
        | Some payload ->
            if String.trim payload = "" then []
            else parse_nodes ?src (String.split_on_char '\n' payload)
        | None -> fail ?src 1 "missing frame for rank %d" r)
  in
  let trace = assemble ?src ~nranks ~comms streams in
  (match find "timing" with
  | None -> fail ?src 1 "missing timing frame"
  | Some p ->
      let events, per_rank = parse_timing_payload p in
      (match events with
      | Some expect when expect <> Trace.event_count trace ->
          fail ?src 1 "event-count manifest mismatch (%d recorded, %d loaded)"
            expect (Trace.event_count trace)
      | _ -> ());
      List.iter
        (fun (r, expect) ->
          if r >= 0 && r < nranks then
            let got = Tnode.event_count_for (Trace.nodes trace) ~rank:r in
            if got <> expect then
              fail ?src 1
                "rank %d event-count manifest mismatch (%d recorded, %d loaded)"
                r expect got)
        per_rank);
  trace

(* ------------------------------------------------------------------ *)
(* Files                                                                *)

let of_string ?path text =
  if is_framed text then of_framed ?path text else of_text ?path text

let save ?(format = `V2) trace ~path =
  let text = match format with `V1 -> to_text trace | `V2 -> to_framed trace in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc text)

let load ~path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  of_string ~path text
