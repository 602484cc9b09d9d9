exception Format_error of string

(* Every damage message is "line N: ..." with an optional source (file
   path, and frame) prefix, so a failure inside a multi-file workflow
   names the offending file, not just the line. *)
let where ?src line s =
  match src with
  | None -> Printf.sprintf "line %d: %s" line s
  | Some p -> Printf.sprintf "%s: line %d: %s" p line s

let fail ?src line fmt =
  Printf.ksprintf (fun s -> raise (Format_error (where ?src line s))) fmt

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

(* A single interval stays a [range], never expanded into its members.
   A list of intervals is built once from all their members: folding
   [union] over it rebuilt the set once per interval, quadratic in the
   interval count.  Both give the set the fold gave, since [union] and
   [of_list] produce the same canonical intervals. *)
let ranks_of_string ?src line s =
  if s = "" then Util.Rank_set.empty
  else
    let interval part =
      match String.split_on_char ':' part with
      | [ f; l; st ] -> (
          try
            Util.Rank_set.range ~stride:(int_of_string st) (int_of_string f)
              (int_of_string l)
          with Failure _ | Invalid_argument _ -> fail ?src line "bad rank interval %S" part)
      | _ -> fail ?src line "bad rank interval %S" part
    in
    match List.map interval (String.split_on_char ',' s) with
    | [ set ] -> set
    | sets -> Util.Rank_set.of_list (List.concat_map Util.Rank_set.to_list sets)

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

(* The node-stream parser: the loop/event/end lines of a v1 body or of
   one frame, fed into the open-loop stack.  [header], given for v1,
   takes that format's nranks/comm lines wherever they stand.  The parse
   stops at the first malformed line, and a loop still open at the end
   is dropped whole (its count and body are not trustworthy), so [nodes]
   is the longest well-formed prefix.  [events] keeps every event parsed
   with its line, for the header-fit check. *)
type stream = {
  nodes : Tnode.t list;  (* completed top-level nodes *)
  events : (int * Event.t) list;  (* in line order *)
  error : string option;  (* the malformed line's message *)
  closed : bool;  (* no loop left open *)
  last : int;  (* the stream's last line *)
}

let parse_stream ?src ?(header = fun _ _ _ -> false) ~lineno0 lines =
  let stack = ref [ (0, ref []) ] and events = ref [] in
  let push n = match !stack with (_, body) :: _ -> body := n :: !body | [] -> assert false in
  let step lineno line =
    match String.index_opt line ' ' with
    | None when line = "end" -> (
        match !stack with
        | (count, body) :: (_ :: _ as outer) ->
            stack := outer;
            push (Tnode.loop ~count (List.rev !body))
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
            events := (lineno, e) :: !events;
            push (Tnode.Leaf e)
        | _ -> if not (header lineno word rest) then fail ?src lineno "unknown directive %S" word)
  in
  let error =
    match
      List.iteri
        (fun i raw ->
          let line = String.trim raw in
          if line <> "" then step (lineno0 + i + 1) line)
        lines
    with
    | () -> None
    | exception Format_error msg -> Some msg
  in
  {
    nodes = (match List.rev !stack with (_, top) :: _ -> List.rev !top | [] -> []);
    events = List.rev !events;
    error;
    closed = (match !stack with [ _ ] -> true | _ -> false);
    last = lineno0 + List.length lines;
  }

(* ------------------------------------------------------------------ *)
(* Events inside their own header                                       *)

(* A parsed event must fit the trace it sits in: its participants are
   ranks of the trace and members of a communicator in the table, and a
   concrete peer is a member of that communicator too.  Generation trusts
   all four (a peer outside the world becomes "TO TASK 9" in a 4-task
   benchmark), so the readers check every event.  A comm_split's map
   holds colours, not ranks, so its peer is exempt. *)
let event_problem ~nranks table (e : Event.t) =
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

(* The header-fit check: each event of [events] that does not fit goes
   to [damage]; returns those misfits, in line order. *)
let misfits ~damage ~nranks comms =
  let world = Util.Rank_set.all nranks in
  let table =
    List.map (fun (id, members) -> (id, (members, Util.Rank_set.equal members world))) comms
  in
  fun ?src events ->
    List.filter_map
      (fun (line, e) ->
        match event_problem ~nranks table e with
        | None -> None
        | Some why ->
            damage (where ?src line ("event " ^ why));
            Some e)
      events

(* [nodes] without the leaves in [bad] (physically, and in the order the
   leaves come in) and without the loops that leaves empty; with how many
   leaves went.  Misfits inside a loop left open were never in [nodes]. *)
let drop bad nodes =
  if bad = [] then (nodes, 0)
  else
    let bad = ref bad and gone = ref 0 in
    let rec filter ns =
      List.filter_map
        (fun n ->
          match n with
          | Tnode.Leaf e -> (
              match !bad with
              | b :: rest when b == e ->
                  bad := rest;
                  incr gone;
                  None
              | _ -> Some n)
          | Tnode.Loop { count; body; _ } -> (
              match filter body with [] -> None | body -> Some (Tnode.loop ~count body)))
        ns
    in
    let nodes = filter nodes in
    (nodes, !gone)

(* A stream's own damage: the line that stopped its parse, or else the
   loop it left open. *)
let stream_damage ~damage ~open_loop p =
  match p.error with
  | Some msg -> damage msg
  | None -> if not p.closed then damage (open_loop ())

(* One frame's node stream, its damage reported in line order: the
   events that do not fit the header come before the line that stopped
   the parse, and a loop left open comes last.  The nodes come back
   without the misfits, with how many went. *)
let frame_stream ~damage ?src ~fit p =
  let bad = fit ?src p.events in
  stream_damage ~damage p ~open_loop:(fun () ->
      where ?src p.last "unterminated loop at end of input");
  drop bad p.nodes

(* Per-rank events of [nodes] (loops expanded), ranks outside
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

(* "frame nodes:3" in error messages, after the file path if any. *)
let in_frame ?src kind =
  Some (match src with None -> "frame " ^ kind | Some p -> p ^ ": frame " ^ kind)

(* A frame's node stream; its payload starts on file line [line]. *)
let parse_frame ?src ~line payload =
  parse_stream ?src ~lineno0:(line - 1)
    (if String.trim payload = "" then [] else String.split_on_char '\n' payload)

type scan = {
  frames : (string * string * int) list;
      (* intact frames in file order: kind, payload, the line it starts on *)
  seen : int;
  dropped : int;  (* checksum failures, garbled headers, a missing end *)
  terminated : bool;
  last : int;  (* the line the scan ended on *)
}

(* The frame scanner.  Each frame whose header parses and whose checksum
   verifies is kept.  At damage it goes on where it can: past a payload
   whose length it trusts, else from the next line that starts with
   "frame ".  A garbled header line that the resync skips lines past
   counts as one dropped frame, and so does a missing end-of-trace frame:
   the file was cut even if every frame before the cut is intact. *)
let scan_frames ~damage ?src text =
  let n = String.length text in
  let line_end pos = match String.index_from_opt text pos '\n' with Some i -> i | None -> n in
  let is_header p = n - p >= 6 && String.sub text p 6 = "frame " in
  let newlines a b =
    let k = ref 0 in
    for i = a to b - 1 do
      if String.unsafe_get text i = '\n' then incr k
    done;
    !k
  in
  let frames = ref [] and seen = ref 0 and dropped = ref 0 in
  let lineno = ref 2 and pos = ref (line_end 0 + 1) in
  let terminated = ref false and finished = ref false in
  while not !finished do
    if !pos >= n then finished := true
    else
      let e = line_end !pos in
      let header = String.sub text !pos (e - !pos) in
      let bad fmt = Printf.ksprintf (fun s -> damage (where ?src !lineno s)) fmt in
      let skip_line () =
        incr dropped;
        incr lineno;
        pos := e + 1
      in
      if not (String.starts_with ~prefix:"frame " header) then begin
        bad "bad frame header %S" header;
        let rec resync p = if p >= n || is_header p then p else resync (line_end p + 1) in
        let p = resync (e + 1) in
        if p > e + 1 then begin
          incr seen;
          incr dropped
        end;
        lineno := !lineno + 1 + newlines (e + 1) (min p n);
        pos := p
      end
      else
        match String.split_on_char ' ' header with
        | [ "frame"; "end"; "0"; _ ] ->
            terminated := true;
            finished := true
        | [ "frame"; kind; len_s; crc_s ] -> (
            incr seen;
            match (int_of_string_opt len_s, Util.Crc32.of_hex crc_s) with
            | Some len, Some crc when len >= 0 && e + 1 + len <= n ->
                let payload = String.sub text (e + 1) len in
                if Util.Crc32.string payload <> crc then begin
                  bad "frame %s: checksum mismatch" kind;
                  incr dropped
                end
                else begin
                  if e + 1 + len < n && text.[e + 1 + len] <> '\n' then
                    bad "frame %s: missing separator" kind;
                  frames := (kind, payload, !lineno + 1) :: !frames
                end;
                lineno := !lineno + 2 + newlines (e + 1) (e + 1 + len);
                pos := e + 1 + len + 1
            | Some len, Some _ ->
                bad "frame %s: truncated payload" kind;
                if len >= 0 then begin
                  incr dropped;
                  finished := true
                end
                else skip_line ()
            | _ ->
                bad "bad frame header %S" header;
                skip_line ())
        | _ ->
            bad "bad frame header %S" header;
            skip_line ()
  done;
  if not !terminated then begin
    damage (where ?src !lineno "missing end frame");
    incr seen;
    incr dropped
  end;
  {
    frames = List.rev !frames;
    seen = !seen;
    dropped = !dropped;
    terminated = !terminated;
    last = !lineno;
  }

let parse_header_payload ?src ~line payload =
  match String.split_on_char ' ' (String.trim payload) with
  | [ "nranks"; v ] -> (
      match int_of_string_opt v with
      | Some k when k > 0 -> k
      | _ -> fail ?src line "bad nranks in header frame")
  | _ -> fail ?src line "bad header frame"

let parse_comms_payload ?src ~line payload =
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

(* The index of a "rank:3" or "nodes:3" frame kind. *)
let index_of_kind prefix kind =
  let k = String.length prefix in
  if String.starts_with ~prefix kind then
    match int_of_string_opt (String.sub kind k (String.length kind - k)) with
    | Some i when i >= 0 -> Some i
    | _ -> None
  else None

(* ------------------------------------------------------------------ *)
(* Format v2: one singleton projection per rank                         *)

(* Rank [rank]'s serializable stream: its projection with participant
   sets narrowed to the singleton and generalized peers resolved to the
   concrete value — the same shape the tracer's per-rank collectors
   produce, which is what lets the loader re-merge streams with the
   production {!Merge} path.  Compute-time summaries ride on the lowest
   participating rank only ("owner"), so re-merging does not double-count
   timing. *)
let rank_stream ~nranks ~rank projection =
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
    projection

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
  let projections = Trace.projections trace in
  for rank = 0 to nranks - 1 do
    let stream = rank_stream ~nranks ~rank projections.(rank) in
    projections.(rank) <- [];
    add_frame buf (Printf.sprintf "rank:%d" rank) (nodes_payload stream);
    Buffer.add_string manifest
      (Printf.sprintf "\nrank %d %d" rank (Tnode.event_count stream))
  done;
  add_frame buf "timing" (Buffer.contents manifest);
  Buffer.add_string buf end_marker;
  Buffer.contents buf

(* Lenient: the total (if present) and the per-rank counts it could read. *)
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

let parse_manifest_payload ?src ~line payload =
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
let manifest_counts ?src ~line ~nranks m =
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

(* ------------------------------------------------------------------ *)
(* One reader per format                                                *)

(* Each reader hands every piece of damage to [damage], with the message
   strict loading raises.  Strict loading's handler raises it; when the
   handler returns (salvage), the reader recovers by the format's rule
   and goes on, so both read a file with the same code.  [damaged] tells
   whether [damage] has been called: a manifest is only checked against
   an intact read, since after damage it can only measure the losses. *)

type recovered = {
  trace : Trace.t;
  version : int;
  frames_seen : int;
  frames_dropped : int;
  ranks_missing : int list;
  ranks : (int * int option * bool) list;
}

(* Damage that leaves nothing to recover from. *)
exception Unrecoverable of string

let fatal ~damage msg why =
  damage msg;
  raise (Unrecoverable why)

let attempt ~damage f =
  match f () with
  | v -> Some v
  | exception Format_error msg ->
      damage msg;
      None

let world nranks = [ (0, Util.Rank_set.all nranks) ]

(* v1: the magic on line 1, then nranks/comm lines and the node stream.
   Recovery keeps the longest good prefix. *)
let read_v1 ~damage ~damaged ?src text =
  let first, body =
    match String.split_on_char '\n' text with
    | l :: rest -> (String.trim l, rest)
    | [] -> ("", [])
  in
  if first <> magic_v1 then
    fatal ~damage
      (where ?src 1 (Printf.sprintf "not a scalatrace trace (bad magic %S)" first))
      "no recognizable trace magic";
  let nranks = ref 0 and comms = ref [] in
  let header lineno word rest =
    match word with
    | "nranks" ->
        (nranks := try int_of_string rest with Failure _ -> fail ?src lineno "bad nranks");
        true
    | "comm" -> (
        match String.split_on_char ' ' rest with
        | [ id; members ] ->
            let members = ranks_of_string ?src lineno members in
            let id = try int_of_string id with Failure _ -> fail ?src lineno "bad comm id" in
            comms := (id, members) :: !comms;
            true
        | _ -> fail ?src lineno "bad comm line")
    | _ -> false
  in
  let p = parse_stream ?src ~header ~lineno0:1 body in
  let whole_file msg = match src with None -> msg | Some s -> s ^ ": " ^ msg in
  stream_damage ~damage p ~open_loop:(fun () ->
      whole_file "unterminated loop at end of input");
  if !nranks <= 0 then
    fatal ~damage (whole_file "missing or invalid nranks") "v1 trace lost its nranks line";
  let nranks = !nranks and comms = List.rev !comms in
  let nodes, _ = drop (misfits ~damage ~nranks comms ?src p.events) p.nodes in
  let got = rank_event_counts ~nranks nodes in
  let intact = not !damaged in
  {
    trace = Trace.make ~nranks ~comms ~nodes;
    version = 1;
    frames_seen = 0;
    frames_dropped = 0;
    ranks_missing = [];
    ranks =
      List.init nranks (fun r -> (got.(r), (if intact then Some 0 else None), not intact));
  }

let find_frame (sc : scan) kind =
  List.find_map (fun (k, p, line) -> if k = kind then Some (p, line) else None) sc.frames

(* v2: header, comms, one frame per rank, timing, in any order.  Recovery
   cuts each rank stream back to its longest good prefix and re-merges;
   the rank count falls back on the timing manifest or the rank frames,
   the communicator table on MPI_COMM_WORLD.  With frames in any order,
   nothing marks where a missing one belonged: it is reported on the
   line the scan ended on. *)
let read_v2 ~damage ~damaged ?src text =
  let sc = scan_frames ~damage ?src text in
  let find = find_frame sc in
  let header =
    match find "header" with
    | Some (p, line) -> attempt ~damage (fun () -> parse_header_payload ?src ~line p)
    | None ->
        damage (where ?src sc.last "missing header frame");
        None
  in
  let timing = Option.map (fun (p, line) -> (parse_timing_payload p, line)) (find "timing") in
  let expected r =
    match timing with Some ((_, per_rank), _) -> List.assoc_opt r per_rank | None -> None
  in
  let nranks =
    let highest rs = 1 + List.fold_left max 0 rs in
    match (header, timing) with
    | Some k, _ -> k
    | None, Some ((_, (_ :: _ as per_rank)), _) -> highest (List.map fst per_rank)
    | None, _ -> (
        match List.filter_map (fun (k, _, _) -> index_of_kind "rank:" k) sc.frames with
        | [] -> raise (Unrecoverable "no header, timing, or rank frames survived")
        | rs -> highest rs)
  in
  let comms =
    match find "comms" with
    | Some (p, line) -> attempt ~damage (fun () -> parse_comms_payload ?src ~line p)
    | None ->
        damage (where ?src sc.last "missing comms frame");
        None
  in
  let comms = Option.value comms ~default:(world nranks) in
  let fit = misfits ~damage ~nranks comms in
  let missing = ref [] and ranks = Array.make nranks (0, None, true) in
  let streams =
    Array.init nranks (fun r ->
        let kind = Printf.sprintf "rank:%d" r in
        match find kind with
        | None ->
            damage (where ?src sc.last (Printf.sprintf "missing frame for rank %d" r));
            missing := r :: !missing;
            ranks.(r) <- (0, expected r, true);
            []
        | Some (payload, line) ->
            let src = in_frame ?src kind in
            let p = parse_frame ?src ~line payload in
            let nodes, gone = frame_stream ~damage ?src ~fit p in
            let cut = p.error <> None || not p.closed in
            let events = Tnode.event_count nodes in
            let lost =
              match expected r with
              | Some e -> Some (max 0 (e - events))
              | None -> if cut then None else Some 0
            in
            ranks.(r) <- (events, lost, cut || gone > 0);
            nodes)
  in
  if sc.dropped > 0 && Array.for_all (fun s -> s = []) streams then
    raise (Unrecoverable "no rank stream survived");
  let trace = Merge.merge ~nranks ~comms streams in
  (match timing with
  | None -> damage (where ?src sc.last "missing timing frame")
  | Some ((events, per_rank), line) when not !damaged ->
      let mismatch fmt = Printf.ksprintf (fun s -> damage (where ?src line s)) fmt in
      (match events with
      | Some expect when expect <> Trace.event_count trace ->
          mismatch "event-count manifest mismatch (%d recorded, %d loaded)" expect
            (Trace.event_count trace)
      | _ -> ());
      let counts = rank_event_counts ~nranks (Trace.nodes trace) in
      List.iter
        (fun (r, expect) ->
          if r >= 0 && r < nranks && counts.(r) <> expect then
            mismatch "rank %d event-count manifest mismatch (%d recorded, %d loaded)" r expect
              counts.(r))
        per_rank
  | Some _ -> ());
  {
    trace;
    version = 2;
    frames_seen = sc.seen;
    frames_dropped = sc.dropped;
    ranks_missing = List.rev !missing;
    ranks = Array.to_list ranks;
  }

(* v3: header, comms, manifest, then nodes:0 .. nodes:(k-1) with k from
   the manifest, one top-level node each, matching the manifest rank by
   rank.  No per-rank streams and no re-merge.  Recovery keeps the longest
   run of intact node frames from nodes:0, looked up by index: global
   order preserves each rank's order, so the run is a prefix of every
   rank's stream (later frames are not used even when intact; splicing
   around a hole would drop events from the middle of some ranks'
   streams), and the manifest says what each rank lost. *)
let read_v3 ~damage ~damaged ?src text =
  let sc = scan_frames ~damage ?src text in
  let find = find_frame sc in
  (* a frame missing at the end belongs on the line after the last intact
     frame, the one it follows *)
  let next_line =
    match List.rev sc.frames with
    | (_, payload, line) :: _ ->
        String.fold_left (fun l c -> if c = '\n' then l + 1 else l) (line + 1) payload
    | [] -> 2
  in
  (* the metadata frames lead, in order; a missing one is looked up by kind *)
  let rest = ref sc.frames in
  let lead kind parse =
    (match !rest with
    | (k, _, _) :: tl when k = kind -> rest := tl
    | (k, _, line) :: _ ->
        damage (where ?src (line - 1) (Printf.sprintf "expected frame %s, found %s" kind k))
    | [] -> damage (where ?src next_line (Printf.sprintf "missing %s frame" kind)));
    Option.bind (find kind) (fun (p, line) ->
        attempt ~damage (fun () -> parse ?src:(in_frame ?src kind) ~line p))
  in
  let header = lead "header" parse_header_payload in
  let comms = lead "comms" parse_comms_payload in
  let manifest = lead "manifest" parse_manifest_payload in
  let msrc = in_frame ?src "manifest" in
  let mline = match find "manifest" with Some (_, line) -> line | None -> 2 in
  let counts nranks =
    match manifest with
    | None -> Array.make nranks None
    | Some m -> (
        try manifest_counts ?src:msrc ~line:mline ~nranks m
        with Format_error msg ->
          damage msg;
          Array.make nranks None)
  in
  let expect = Option.map counts header in
  (* the first node frame of each index, parsed *)
  let by_index = Hashtbl.create 64 in
  List.iter
    (fun (kind, payload, line) ->
      match index_of_kind "nodes:" kind with
      | Some i when not (Hashtbl.mem by_index i) ->
          Hashtbl.add by_index i (parse_frame ?src:(in_frame ?src kind) ~line payload)
      | _ -> ())
    sc.frames;
  let rec run i acc =
    match Hashtbl.find_opt by_index i with
    | None -> (List.rev acc, i, false)
    | Some p ->
        if p.error = None && p.closed then run (i + 1) (i :: acc)
        else (List.rev (i :: acc), i, true)
  in
  let run, kept, cut = run 0 [] in
  let run_nodes i = (Hashtbl.find by_index i).nodes in
  let nranks =
    match header with
    | Some k -> k
    | None -> (
        let top = ref 0 in
        let see set = Option.iter (fun r -> top := max !top (r + 1)) (Util.Rank_set.max_elt set) in
        Option.iter (fun m -> List.iter (fun (set, _) -> see set) m.m_groups) manifest;
        List.iter (fun i -> Tnode.iter_leaves (fun e -> see e.Event.ranks) (run_nodes i)) run;
        if !top = 0 then raise (Unrecoverable "no header, manifest, or node frames survived");
        !top)
  in
  if sc.dropped > 0 && List.for_all (fun i -> run_nodes i = []) run then
    raise (Unrecoverable "no node frame survived");
  let comms = Option.value comms ~default:(world nranks) in
  let fit = misfits ~damage ~nranks comms in
  let expect = match expect with Some e -> e | None -> counts nranks in
  (* the node frames in file order, checked as strict loading checks them *)
  let checked = Hashtbl.create 64 in
  let m_nodes = Option.map (fun m -> m.m_nodes) manifest in
  let rec walk i = function
    | [] -> (
        match m_nodes with
        | Some k when i < k ->
            damage (where ?src next_line (Printf.sprintf "missing node frame nodes:%d" i))
        | _ -> ())
    | (kind, _, line) :: frames -> (
        let here s = damage (where ?src (line - 1) s) in
        match index_of_kind "nodes:" kind with
        | None ->
            here ("unexpected frame " ^ kind);
            walk i frames
        | Some j when Hashtbl.mem checked j ->
            here ("duplicate node frame " ^ kind);
            walk i frames
        | Some j ->
            if j <> i then
              here
                (if List.exists (fun (k, _, _) -> index_of_kind "nodes:" k = Some i) frames then
                   Printf.sprintf "node frame %s out of order (expected nodes:%d)" kind i
                 else Printf.sprintf "missing node frame nodes:%d" i);
            (match m_nodes with
            | Some k when j >= k ->
                here (Printf.sprintf "node frame %s beyond the manifest's %d" kind k)
            | _ -> ());
            let p = Hashtbl.find by_index j and src = in_frame ?src kind in
            Hashtbl.add checked j (frame_stream ~damage ?src ~fit p);
            let k = List.length p.nodes in
            if p.error = None && p.closed && k <> 1 then
              damage
                (where ?src (line - 1)
                   (Printf.sprintf "holds %d top-level nodes, expected one" k));
            walk (max i (j + 1)) frames)
  in
  walk 0 !rest;
  let nodes = List.concat_map (fun i -> fst (Hashtbl.find checked i)) run in
  let gone = List.fold_left (fun a i -> a + snd (Hashtbl.find checked i)) 0 run in
  let got = rank_event_counts ~nranks nodes in
  (match manifest with
  | Some m when not !damaged ->
      let events = Tnode.event_count nodes in
      let mismatch fmt = Printf.ksprintf (fun s -> damage (where ?src:msrc mline s)) fmt in
      if events <> m.m_events then
        mismatch "event-count manifest mismatch (%d recorded, %d loaded)" m.m_events events;
      Array.iteri
        (fun r got ->
          match expect.(r) with
          | None -> mismatch "manifest does not list rank %d" r
          | Some c when c <> got ->
              mismatch "rank %d event-count manifest mismatch (%d recorded, %d loaded)" r c got
          | Some _ -> ())
        got
  | _ -> ());
  (* without a manifest, the run is known whole only when nothing at all
     was damaged *)
  let later = Hashtbl.fold (fun i _ acc -> acc || i > kept) by_index false in
  let whole = sc.terminated && sc.dropped = 0 && (not cut) && (not later) && gone = 0 in
  let ranks =
    List.init nranks (fun r ->
        let lost =
          match expect.(r) with
          | Some c -> Some (max 0 (c - got.(r)))
          | None -> if whole then Some 0 else None
        in
        (got.(r), lost, lost <> Some 0))
  in
  {
    trace = Trace.make ~nranks ~comms ~nodes;
    version = 3;
    frames_seen = sc.seen;
    frames_dropped = sc.dropped;
    ranks_missing =
      List.filter
        (fun r -> match expect.(r) with Some c -> c > 0 && got.(r) = 0 | None -> false)
        (List.init nranks Fun.id);
    ranks;
  }

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)

let read_with reader ~damage ?path text =
  let damaged = ref false in
  let damage msg =
    damaged := true;
    damage msg
  in
  match reader ~damage ~damaged ?src:path text with
  | r -> Ok r
  | exception Unrecoverable why -> Error ("unrecoverable: " ^ why)

let reader_for text =
  match framed_version text with Some 3 -> read_v3 | Some _ -> read_v2 | None -> read_v1

let read ~damage ?path text = read_with (reader_for text) ~damage ?path text

(* Strict loading: the first damage raises. *)
let strictly reader ?path text =
  match read_with reader ~damage:(fun msg -> raise (Format_error msg)) ?path text with
  | Ok r -> r.trace
  | Error msg -> raise (Format_error msg)

let of_text ?path text = strictly read_v1 ?path text
let of_string ?path text = strictly (reader_for text) ?path text

let save trace ~path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string trace))

let load ~path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  of_string ~path text
