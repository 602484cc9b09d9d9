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

    [of_text (to_text t)], [of_string (to_framed t)] and
    [of_string (to_string t)] yield traces whose structure, projections
    and timing summaries (the whole summary of every leaf) equal [t]'s.
    Every reader also checks that each event fits its own header:
    participants in [0, nranks) and inside a communicator of the table,
    and concrete peers ([P_abs], [P_map]) members of that communicator,
    and that each timing summary is one some samples could produce
    ({!Util.Histogram.of_stats}).

    {b One reader per format.}  Strict loading ({!of_string}, {!load})
    and tolerant loading ({!Salvage.of_string}) read a file with the same
    code, {!read}.  At each piece of damage the reader calls one handler
    with the message strict loading raises: strict loading's handler
    raises it as {!Format_error}; salvage's records it as a note, and the
    reader recovers by the format's rule and goes on.  So strict loading
    accepts some bytes exactly when {!Salvage.of_string} returns [Ok] for
    them with a report {!Salvage.is_degraded} calls undamaged, and both
    then return the same trace. *)

exception Format_error of string
(** Parse failure; the message includes the offending line number (and
    the frame, for framed files), and the file path when the text came
    from a file. *)

val to_text : Trace.t -> string
(** Serialize to the v1 line format. *)

val of_text : ?path:string -> string -> Trace.t
(** Parse the v1 line format strictly; its magic must be line 1.  [path],
    when given, prefixes error messages. *)

val to_framed : Trace.t -> string
(** Serialize to the framed v2 container (one frame per rank). *)

val to_string : Trace.t -> string
(** Serialize to the framed v3 container: the bytes {!save} writes. *)

val of_string : ?path:string -> string -> Trace.t
(** Auto-detect the format by magic line and parse it strictly: the first
    damage raises.  For v2: every checksum, a header, comms, timing and
    one frame per rank, and the timing manifest's counts.  For v3: every
    checksum, the frame order (header, comms, manifest, then [nodes:0] ..
    [nodes:(k-1)] with k from the manifest, one top-level node each) and
    the manifest's event counts, total and per rank. *)

val save : Trace.t -> path:string -> unit
(** Write [trace] to [path] in format v3. *)

val load : path:string -> Trace.t
(** Read any format (auto-detected); errors carry [path].
    @raise Format_error on malformed input.
    @raise Sys_error on I/O failure. *)

(** {1 The reader} *)

type recovered = {
  trace : Trace.t;
  version : int;  (** 1, 2 or 3 *)
  frames_seen : int;  (** framed formats only; 0 for v1 *)
  frames_dropped : int;  (** checksum failures, garbled headers, a missing end *)
  ranks_missing : int list;
      (** v2: ranks whose stream frame vanished; v3: ranks the manifest
          gives events that recovered none *)
  ranks : (int * int option * bool) list;
      (** per rank: events recovered, events lost ([None]: unknown), and
          whether its stream was cut short or filtered *)
}

val read :
  damage:(string -> unit) -> ?path:string -> string -> (recovered, string) result
(** Read any format, calling [damage] with strict loading's message at
    each piece of damage (see {!Salvage} for the recovery rules).
    [Error] when the damage left nothing to recover. *)

(** {1 Helpers} *)

val framed_version : string -> int option
(** [Some 2] or [Some 3] when [text] starts with that framed magic line;
    [None] otherwise. *)

val frame_header : kind:string -> payload:string -> string
(** The header line (sans newline) that introduces [payload]. *)

val rank_event_counts : nranks:int -> Tnode.t list -> int array
(** Events per rank of a node list, loops expanded; ranks outside
    [0, nranks) are ignored. *)

val parse_ranks : ?src:string -> string -> Util.Rank_set.t
(** Parse a rank-interval list ("0:7:1,16:31:1").
    @raise Format_error if bad. *)
