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
   loop stack.  Shared by the strict parsers and the salvage loader;
   [seen] is told the line of every event parsed. *)
type node_stack = (int * Tnode.t list ref) list ref

let fresh_stack () : node_stack = ref [ (0, ref []) ]

let stack_push_node (stack : node_stack) n =
  match !stack with
  | (_, body) :: _ -> body := n :: !body
  | [] -> assert false

let node_line_step ?src ?(seen = fun _ _ -> ()) (stack : node_stack) lineno
    line =
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
      | "event" ->
          let e = parse_event ?src lineno rest in
          seen lineno e;
          stack_push_node stack (Tnode.Leaf e)
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
let parse_nodes ?src ?seen ?(lineno0 = 0) lines =
  let stack = fresh_stack () in
  List.iteri
    (fun i raw ->
      let line = String.trim raw in
      if line <> "" then node_line_step ?src ?seen stack (lineno0 + i + 1) line)
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

(* ------------------------------------------------------------------ *)
(* Events inside their own header                                       *)

(* A parsed event must fit the trace it sits in: its participants are
   ranks of the trace and members of a communicator in the table, and a
   concrete peer is a member of that communicator too.  Generation trusts
   all four (a peer outside the world becomes "TO TASK 9" in a 4-task
   benchmark), so loaders check them once, after assembly.  A
   comm_split's map holds colours, not ranks, so its peer is exempt. *)
type comm_table = (int * (Util.Rank_set.t * bool)) list

let comm_table ~nranks comms : comm_table =
  let world = Util.Rank_set.all nranks in
  List.map (fun (id, members) -> (id, (members, Util.Rank_set.equal members world))) comms

let event_problem ~nranks (table : comm_table) (e : Event.t) =
  match (Util.Rank_set.min_elt e.ranks, Util.Rank_set.max_elt e.ranks) with
  | Some lo, Some hi when lo < 0 || hi >= nranks ->
      Some (Printf.sprintf "ranks %s outside [0, %d)" (ranks_to_string e.ranks) nranks)
  | _ -> (
      match List.assoc_opt e.comm table with
      | None -> Some (Printf.sprintf "unknown communicator %d" e.comm)
      | Some (members, world) ->
          if not (world || Util.Rank_set.subset e.ranks members) then
            Some
              (Printf.sprintf "ranks %s outside communicator %d"
                 (ranks_to_string e.ranks) e.comm)
          else
            let outside p = not (Util.Rank_set.mem p members) in
            let peer =
              if e.kind = Event.E_comm_split then None
              else
                match e.peer with
                | Event.P_abs p -> if outside p then Some p else None
                | Event.P_map m ->
                    List.find_map (fun (_, p) -> if outside p then Some p else None) m
                | Event.P_none | Event.P_any | Event.P_rel _ -> None
            in
            Option.map
              (fun p -> Printf.sprintf "peer %d outside communicator %d" p e.comm)
              peer)

(* The [seen] hook of the strict parsers. *)
let check_fit ?src ~nranks table lineno e =
  match event_problem ~nranks table e with
  | Some why -> fail ?src lineno "event %s" why
  | None -> ()

(* Per-rank event counts of [nodes] (loops expanded), ranks outside
   [0, nranks) ignored: one pass over the leaves' intervals. *)
let rank_event_counts ~nranks nodes =
  let counts = Array.make nranks 0 in
  let rec go mult = function
    | Tnode.Leaf e ->
        List.iter
          (fun (first, last, stride) ->
            let r =
              ref
                (if first >= 0 then first
                 else first + ((stride - 1 - first) / stride * stride))
            in
            while !r <= last && !r < nranks do
              counts.(!r) <- counts.(!r) + mult;
              r := !r + stride
            done)
          (Util.Rank_set.intervals e.Event.ranks)
    | Tnode.Loop { count; body; _ } -> List.iter (go (mult * count)) body
  in
  List.iter (go 1) nodes;
  counts

let of_text ?path text =
  let src = path in
  let lines = String.split_on_char '\n' text in
  let nranks = ref 0 in
  let comms = ref [] in
  let events = ref [] in
  let seen lineno e = events := (lineno, e) :: !events in
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
        | _ -> node_line_step ?src ~seen stack lineno line)
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
  let comms = List.rev !comms in
  let table = comm_table ~nranks:!nranks comms in
  List.iter
    (fun (lineno, e) -> check_fit ?src ~nranks:!nranks table lineno e)
    (List.rev !events);
  Trace.make ~nranks:!nranks ~comms ~nodes:(stack_completed stack)

(* ------------------------------------------------------------------ *)
(* Framed containers                                                    *)

(* Container layout (text-friendly, binary-safe):

     scalatrace-frames <version>\n
     frame <kind> <len> <crc32-hex8>\n
     <len payload bytes>\n
     ...
     frame end 0 00000000\n

   Each frame's CRC-32 covers exactly its payload bytes, so corruption is
   localized to one section: a flipped byte invalidates one frame, a
   truncation costs the tail — which is what lets {!Salvage} recover
   every intact section.  Payloads carry no trailing newline; the
   container adds the separator.

   Version 2 kinds: [header] (nranks), [comms] (communicator table),
   [rank:<r>] (rank r's RSD stream, singleton participant sets, concrete
   peers, timing on the lowest participating rank only), [timing]
   (per-rank event-count manifest).

   Version 3 kinds, in this order: [header], [comms], [manifest] (total
   events, node-frame count, per-rank event counts grouped by count as
   rank sets), then [nodes:<i>] — the i-th top-level RSD/PRSD of the
   merged trace in v1 node syntax.  Metadata leads because truncation is
   the common damage; one frame per top-level node means a cut loses
   only the node being written and those after it. *)

let magic_v1 = "scalatrace-trace 1"
let magic_v2 = "scalatrace-frames 2"
let magic_v3 = "scalatrace-frames 3"
let end_marker = "frame end 0 00000000\n"

let framed_version text =
  if String.starts_with ~prefix:magic_v3 text then Some 3
  else if String.starts_with ~prefix:magic_v2 text then Some 2
  else None

let frame_header ~kind ~payload =
  Printf.sprintf "frame %s %d %s" kind (String.length payload)
    (Util.Crc32.to_hex (Util.Crc32.string payload))

let add_frame buf kind payload =
  Buffer.add_string buf (frame_header ~kind ~payload);
  Buffer.add_char buf '\n';
  Buffer.add_string buf payload;
  Buffer.add_char buf '\n'

let nodes_payload nodes =
  let b = Buffer.create 1024 in
  add_nodes b 0 nodes;
  let n = Buffer.length b in
  if n > 0 && Buffer.nth b (n - 1) = '\n' then Buffer.sub b 0 (n - 1)
  else Buffer.contents b

let comms_payload trace =
  String.concat "\n"
    (List.map
       (fun (id, members) -> Printf.sprintf "comm %d %s" id (ranks_to_string members))
       (Trace.comms trace))

let payload_lines payload =
  if String.trim payload = "" then [] else String.split_on_char '\n' payload

(* "frame nodes:3" in error messages, after the file path if any. *)
let in_frame ?src kind =
  Some (match src with None -> "frame " ^ kind | Some p -> p ^ ": frame " ^ kind)

(* Exact (strict) frame scan: any malformation raises.  Returns each
   frame's kind, payload, and the file line its payload starts on. *)
let scan_frames_strict ?src text =
  let n = String.length text in
  let line_end pos = match String.index_from_opt text pos '\n' with
    | Some i -> i
    | None -> n
  in
  let lineno = ref 2 in
  let pos = ref (line_end 0 + 1) in
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
            frames := (kind, payload, !lineno + 1) :: !frames;
            let newlines = ref 0 in
            String.iter (fun c -> if c = '\n' then incr newlines) payload;
            lineno := !lineno + 2 + !newlines;
            pos := e + 1 + len + 1
        | Some _, Some _ -> fail ?src !lineno "frame %s: truncated payload" kind
        | _ -> fail ?src !lineno "bad frame header %S" header)
    | _ -> fail ?src !lineno "bad frame header %S" header)
  done;
  List.rev !frames

let parse_header_payload ?src ?(line = 1) payload =
  match String.split_on_char ' ' (String.trim payload) with
  | [ "nranks"; v ] -> (
      match int_of_string_opt v with
      | Some k when k > 0 -> k
      | _ -> fail ?src line "bad nranks in header frame")
  | _ -> fail ?src line "bad header frame"

let parse_comms_payload ?src ?(line = 1) payload =
  List.filter_map
    (fun raw ->
      let line' = String.trim raw in
      if line' = "" then None
      else
        match String.split_on_char ' ' line' with
        | [ "comm"; id; members ] -> (
            match int_of_string_opt id with
            | Some id -> Some (id, ranks_of_string ?src line members)
            | None -> fail ?src line "bad comm id in comms frame")
        | _ -> fail ?src line "bad comms frame line %S" line')
    (String.split_on_char '\n' payload)

let parse_ranks ?src s = ranks_of_string ?src 0 s

let index_of_kind prefix kind =
  let k = String.length prefix in
  if String.starts_with ~prefix kind then
    int_of_string_opt (String.sub kind k (String.length kind - k))
  else None

let rank_of_kind = index_of_kind "rank:"
let node_of_kind = index_of_kind "nodes:"

(* ------------------------------------------------------------------ *)
(* Format v2: one singleton projection per rank                         *)

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
  Buffer.add_string buf magic_v2;
  Buffer.add_char buf '\n';
  let nranks = Trace.nranks trace in
  add_frame buf "header" (Printf.sprintf "nranks %d" nranks);
  add_frame buf "comms" (comms_payload trace);
  let manifest = Buffer.create 256 in
  Buffer.add_string manifest
    (Printf.sprintf "events %d" (Trace.event_count trace));
  for rank = 0 to nranks - 1 do
    let stream = rank_stream trace ~rank in
    add_frame buf (Printf.sprintf "rank:%d" rank) (nodes_payload stream);
    Buffer.add_string manifest
      (Printf.sprintf "\nrank %d %d" rank (Tnode.event_count stream))
  done;
  add_frame buf "timing" (Buffer.contents manifest);
  Buffer.add_string buf end_marker;
  Buffer.contents buf

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

let assemble ~nranks ~comms streams = Merge.merge ~nranks ~comms streams

let of_framed ?path text =
  let src = path in
  if framed_version text <> Some 2 then
    fail ?src 1 "not a framed scalatrace trace (bad magic)";
  let frames = scan_frames_strict ?src text in
  let find kind =
    List.find_map (fun (k, p, line) -> if k = kind then Some (p, line) else None) frames
  in
  let nranks =
    match find "header" with
    | Some (p, line) -> parse_header_payload ?src ~line p
    | None -> fail ?src 1 "missing header frame"
  in
  let comms =
    match find "comms" with
    | Some (p, line) -> parse_comms_payload ?src ~line p
    | None -> fail ?src 1 "missing comms frame"
  in
  let table = comm_table ~nranks comms in
  let streams =
    Array.init nranks (fun r ->
        let kind = Printf.sprintf "rank:%d" r in
        match find kind with
        | Some (payload, line) ->
            let src = in_frame ?src kind in
            parse_nodes ?src ~seen:(check_fit ?src ~nranks table) ~lineno0:(line - 1)
              (payload_lines payload)
        | None -> fail ?src 1 "missing frame for rank %d" r)
  in
  let trace = assemble ~nranks ~comms streams in
  (match find "timing" with
  | None -> fail ?src 1 "missing timing frame"
  | Some (p, line) ->
      let events, per_rank = parse_timing_payload p in
      (match events with
      | Some expect when expect <> Trace.event_count trace ->
          fail ?src line "event-count manifest mismatch (%d recorded, %d loaded)"
            expect (Trace.event_count trace)
      | _ -> ());
      let counts = rank_event_counts ~nranks (Trace.nodes trace) in
      List.iter
        (fun (r, expect) ->
          if r >= 0 && r < nranks && counts.(r) <> expect then
            fail ?src line
              "rank %d event-count manifest mismatch (%d recorded, %d loaded)"
              r expect counts.(r))
        per_rank);
  trace

(* ------------------------------------------------------------------ *)
(* Format v3: the merged trace, one frame per top-level node            *)

type manifest = {
  m_events : int;
  m_nodes : int;
  m_groups : (Util.Rank_set.t * int) list;
}

(* Ranks grouped by event count, groups in order of their lowest rank:
   SPMD codes have a handful of distinct counts, so the manifest stays a
   few lines at any rank count. *)
let manifest_payload ~nranks nodes =
  let groups = Hashtbl.create 8 and order = ref [] in
  Array.iteri
    (fun r c ->
      match Hashtbl.find_opt groups c with
      | Some ranks -> ranks := r :: !ranks
      | None ->
          Hashtbl.add groups c (ref [ r ]);
          order := c :: !order)
    (rank_event_counts ~nranks nodes);
  String.concat "\n"
    (Printf.sprintf "events %d" (Tnode.event_count nodes)
    :: Printf.sprintf "nodes %d" (List.length nodes)
    :: List.rev_map
         (fun c ->
           Printf.sprintf "ranks %s %d"
             (ranks_to_string (Util.Rank_set.of_list !(Hashtbl.find groups c)))
             c)
         !order)

let parse_manifest_payload ?src ?(line = 1) payload =
  let events = ref None and nodes = ref None and groups = ref [] in
  List.iter
    (fun raw ->
      let l = String.trim raw in
      let int v =
        match int_of_string_opt v with
        | Some k when k >= 0 -> k
        | _ -> fail ?src line "bad manifest line %S" l
      in
      match String.split_on_char ' ' l with
      | [ "" ] -> ()
      | [ "events"; v ] -> events := Some (int v)
      | [ "nodes"; v ] -> nodes := Some (int v)
      | [ "ranks"; set; c ] -> groups := (ranks_of_string ?src line set, int c) :: !groups
      | _ -> fail ?src line "bad manifest line %S" l)
    (String.split_on_char '\n' payload);
  match (!events, !nodes) with
  | Some m_events, Some m_nodes -> { m_events; m_nodes; m_groups = List.rev !groups }
  | _ -> fail ?src line "manifest lacks its events or nodes line"

(* The manifest's per-rank counts, one slot per rank of [0, nranks);
   [None] marks a rank no group lists.
   @raise Format_error when a group names a rank twice or out of range. *)
let manifest_counts ?src ?(line = 1) ~nranks m =
  let counts = Array.make nranks None in
  List.iter
    (fun (set, c) ->
      (match Util.Rank_set.max_elt set with
      | Some hi when hi >= nranks -> fail ?src line "manifest names rank %d of %d" hi nranks
      | _ -> ());
      Util.Rank_set.iter
        (fun r ->
          if r < 0 then fail ?src line "manifest names rank %d" r;
          if counts.(r) <> None then fail ?src line "manifest lists rank %d twice" r;
          counts.(r) <- Some c)
        set)
    m.m_groups;
  counts

let to_string trace =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf magic_v3;
  Buffer.add_char buf '\n';
  let nranks = Trace.nranks trace and nodes = Trace.nodes trace in
  add_frame buf "header" (Printf.sprintf "nranks %d" nranks);
  add_frame buf "comms" (comms_payload trace);
  add_frame buf "manifest" (manifest_payload ~nranks nodes);
  List.iteri
    (fun i n -> add_frame buf (Printf.sprintf "nodes:%d" i) (nodes_payload [ n ]))
    nodes;
  Buffer.add_string buf end_marker;
  Buffer.contents buf

(* Strict v3 parse: the frames must come exactly as written — header,
   comms, manifest, then nodes:0 .. nodes:(k-1) with k from the manifest,
   each holding one top-level node — and the loaded trace must match the
   manifest rank by rank.  No per-rank streams and no re-merge. *)
let of_v3 ?path text =
  let src = path in
  let frames = scan_frames_strict ?src text in
  let take kind = function
    | (k, payload, line) :: rest when k = kind -> (payload, line, rest)
    | (k, _, line) :: _ -> fail ?src (line - 1) "expected frame %s, found %s" kind k
    | [] -> fail ?src 2 "missing %s frame" kind
  in
  let header, hline, frames = take "header" frames in
  let nranks = parse_header_payload ?src:(in_frame ?src "header") ~line:hline header in
  let comms, cline, frames = take "comms" frames in
  let comms = parse_comms_payload ?src:(in_frame ?src "comms") ~line:cline comms in
  let manifest, mline, frames = take "manifest" frames in
  let msrc = in_frame ?src "manifest" in
  let m = parse_manifest_payload ?src:msrc ~line:mline manifest in
  let expect = manifest_counts ?src:msrc ~line:mline ~nranks m in
  let table = comm_table ~nranks comms in
  let rec nodes i acc = function
    | [] ->
        if i < m.m_nodes then fail ?src 2 "missing node frame nodes:%d" i;
        List.rev acc
    | (kind, payload, line) :: rest -> (
        match node_of_kind kind with
        | None -> fail ?src (line - 1) "unexpected frame %s" kind
        | Some j when j < i -> fail ?src (line - 1) "duplicate node frame %s" kind
        | Some j when j > i ->
            if List.exists (fun (k, _, _) -> node_of_kind k = Some i) rest then
              fail ?src (line - 1) "node frame %s out of order (expected nodes:%d)" kind i
            else fail ?src (line - 1) "missing node frame nodes:%d" i
        | Some _ ->
            if i >= m.m_nodes then
              fail ?src (line - 1) "node frame %s beyond the manifest's %d" kind
                m.m_nodes;
            let src = in_frame ?src kind in
            let seen = check_fit ?src ~nranks table in
            (match parse_nodes ?src ~seen ~lineno0:(line - 1) (payload_lines payload) with
            | [ n ] -> nodes (i + 1) (n :: acc) rest
            | ns ->
                fail ?src (line - 1) "holds %d top-level nodes, expected one"
                  (List.length ns)))
  in
  let nodes = nodes 0 [] frames in
  let events = Tnode.event_count nodes in
  if events <> m.m_events then
    fail ?src:msrc mline "event-count manifest mismatch (%d recorded, %d loaded)"
      m.m_events events;
  Array.iteri
    (fun r got ->
      match expect.(r) with
      | None -> fail ?src:msrc mline "manifest does not list rank %d" r
      | Some c when c <> got ->
          fail ?src:msrc mline
            "rank %d event-count manifest mismatch (%d recorded, %d loaded)" r c got
      | Some _ -> ())
    (rank_event_counts ~nranks nodes);
  Trace.make ~nranks ~comms ~nodes

(* ------------------------------------------------------------------ *)
(* Files                                                                *)

let of_string ?path text =
  match framed_version text with
  | Some 3 -> of_v3 ?path text
  | Some _ -> of_framed ?path text
  | None -> of_text ?path text

let save trace ~path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string trace))

let load ~path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  of_string ~path text
