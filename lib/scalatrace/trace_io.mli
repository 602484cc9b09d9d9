(** Trace (de)serialization.

    Three on-disk formats, all read by {!load} and {!of_string}:

    {b v1} ({!to_text}) — a line-oriented text format for saving
    compressed traces to disk and loading them back — the equivalent of
    ScalaTrace's trace files, which is what gets handed to the benchmark
    generator in the paper's workflow (Figure 1).  The format stores the
    full RSD/PRSD structure, communicator table, peers, sizes, tags, and
    the timing summaries (the count/sum/min/max/first of each
    {!Util.Histogram}, which is all a summary holds).

    {b v2} ({!to_framed}) — a framed container wrapping the same line
    vocabulary: length-prefixed sections (header / communicator table /
    one RSD stream per rank / timing manifest), each carrying a CRC-32
    over its payload.  Rank streams are stored as singleton-participant
    projections with concrete peers (the tracer's own collection shape)
    and re-merged on load with the production {!Merge} path, so the file
    grows linearly in ranks.  Kept so existing files load and as the
    benchmark's fixture format.

    {b v3} ({!to_string}, what {!save} writes) — the same CRC framing
    around the merged trace itself: [header], [comms], a [manifest]
    (total events, node-frame count, per-rank event counts grouped by
    count as rank sets), then one [nodes:<i>] frame per top-level
    RSD/PRSD in v1 node syntax.  The file is about the size of the v1
    text, and loading parses the node frames straight into a trace with
    no per-rank parsing and no re-merge.  Corruption is localized to one
    frame, which is what the {!Salvage} loader exploits.

    [of_text (to_text t)], [of_framed (to_framed t)] and
    [of_string (to_string t)] yield traces whose structure, projections
    and timing summaries (the whole summary of every leaf) equal [t]'s.
    Every strict reader also checks that each event fits its own header:
    participants in [0, nranks) and inside a communicator of the table,
    and concrete peers ([P_abs], [P_map]) members of that communicator,
    and that each timing summary is one some samples could produce
    ({!Util.Histogram.of_stats}). *)

exception Format_error of string
(** Parse failure; the message includes the offending line number (and
    the frame, for framed files), and the file path when the text came
    from a file. *)

val to_text : Trace.t -> string
(** Serialize to the v1 line format. *)

val of_text : ?path:string -> string -> Trace.t
(** Parse the v1 line format.  [path], when given, prefixes error
    messages. *)

val to_framed : Trace.t -> string
(** Serialize to the framed v2 container (one frame per rank). *)

val of_framed : ?path:string -> string -> Trace.t
(** Strict v2 parse: any malformed frame header, checksum mismatch,
    missing section, or manifest disagreement raises {!Format_error}.
    Use {!Salvage} for tolerant loading. *)

val to_string : Trace.t -> string
(** Serialize to the framed v3 container: the bytes {!save} writes. *)

val of_string : ?path:string -> string -> Trace.t
(** Auto-detect the format by magic line and parse it strictly.  For v3:
    every checksum, the frame order (header, comms, manifest, then
    [nodes:0] .. [nodes:(k-1)] with k from the manifest, one top-level
    node each) and the manifest's event counts, total and per rank. *)

val save : Trace.t -> path:string -> unit
(** Write [trace] to [path] in format v3. *)

val load : path:string -> Trace.t
(** Read any format (auto-detected); errors carry [path].
    @raise Format_error on malformed input.
    @raise Sys_error on I/O failure. *)

(** {1 Building blocks exposed for the {!Salvage} loader}

    These are not a stable user-facing API; they exist so the tolerant
    loader shares one grammar with the strict one. *)

val magic_v1 : string

val framed_version : string -> int option
(** [Some 2] or [Some 3] when [text] starts with that framed magic line;
    [None] otherwise. *)

val frame_header : kind:string -> payload:string -> string
(** The header line (sans newline) that introduces [payload]. *)

val parse_nodes :
  ?src:string ->
  ?seen:(int -> Event.t -> unit) ->
  ?lineno0:int ->
  string list ->
  Tnode.t list
(** Strict node-stream (loop/event/end lines) parser; [seen] is called
    with the line number of every event parsed.
    @raise Format_error on any malformed line. *)

val payload_lines : string -> string list
(** A frame payload's lines; none for a blank payload. *)

val parse_nodes_prefix :
  ?lineno0:int -> string list -> Tnode.t list * bool * string option
(** Longest well-formed prefix of a node stream: completed top-level
    nodes, whether the stream was cut short (parse error or unclosed
    loop), and the first error message if any.  Never raises. *)

val parse_header_payload : ?src:string -> ?line:int -> string -> int
(** [nranks] from a header-frame payload. @raise Format_error if bad. *)

val parse_comms_payload :
  ?src:string -> ?line:int -> string -> (int * Util.Rank_set.t) list
(** Communicator table from a comms-frame payload.
    @raise Format_error if bad. *)

val parse_timing_payload : string -> int option * (int * int) list
(** Best-effort read of a v2 timing manifest: total event count (if
    present) and per-rank expected event counts.  Never raises. *)

type manifest = {
  m_events : int;  (** total events, summed over ranks *)
  m_nodes : int;  (** number of [nodes:<i>] frames *)
  m_groups : (Util.Rank_set.t * int) list;
      (** ranks grouped by their event count *)
}

val parse_manifest_payload : ?src:string -> ?line:int -> string -> manifest
(** A v3 manifest. @raise Format_error if malformed. *)

val manifest_counts :
  ?src:string -> ?line:int -> nranks:int -> manifest -> int option array
(** Per-rank event counts of a manifest; [None] for a rank no group
    lists.  @raise Format_error when a group names a rank twice or one
    outside [0, nranks). *)

val rank_event_counts : nranks:int -> Tnode.t list -> int array
(** Events per rank of a node list, loops expanded; ranks outside
    [0, nranks) are ignored. *)

val parse_ranks : ?src:string -> string -> Util.Rank_set.t
(** Parse a rank-interval list ("0:7:1,16:31:1").
    @raise Format_error if bad. *)

val rank_of_kind : string -> int option
(** [rank_of_kind "rank:3"] is [Some 3]; [None] for other kinds. *)

val node_of_kind : string -> int option
(** [node_of_kind "nodes:3"] is [Some 3]; [None] for other kinds. *)

type comm_table
(** A communicator table prepared for {!event_problem}. *)

val comm_table : nranks:int -> (int * Util.Rank_set.t) list -> comm_table

val event_problem : nranks:int -> comm_table -> Event.t -> string option
(** Why an event does not fit its trace's header, if it does not: ranks
    outside [0, nranks), an unknown communicator, ranks outside the
    communicator, or a concrete peer outside it. *)

val assemble :
  nranks:int -> comms:(int * Util.Rank_set.t) list -> Tnode.t list array -> Trace.t
(** Re-merge per-rank v2 streams into a global trace (the load-time
    inverse of the per-rank narrowing done on save). *)
