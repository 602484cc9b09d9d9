(** Tolerant loading of damaged trace files.

    Where {!Trace_io.load} is strict — one flipped byte and the whole
    file is rejected — this loader recovers everything the damage did
    not touch, and the caller gets a typed {!report} of exactly what was
    recovered and what was lost.  Only when no usable content remains
    does it return [Error].  Per format (see {!Trace_io}):

    - {b v3} (written by {!Trace_io.save}): frames with failing checksums
      are dropped and the longest run of intact node frames starting at
      [nodes:0] is kept.  The top-level nodes are in global order, which
      preserves each rank's order, so the result is a prefix of every
      rank's stream; per-rank losses come from the manifest.  A damaged
      node frame loses that frame and every later one.
    - {b v2} (written by {!Trace_io.to_framed}): per-frame recovery —
      each rank stream is cut back to its longest well-formed prefix and
      the surviving streams are re-merged.  A damaged frame loses one
      rank.
    - {b v1} (written by {!Trace_io.to_text}): longest parseable line
      prefix.

    In every format, lost sections are reconstructed from redundant ones
    and events that do not fit the header ({!Trace_io.event_problem}) are
    dropped with a note.  Cutting the result back to a globally
    consistent point is left to best-effort generation's frontier rule. *)

type rank_recovery = {
  rr_rank : int;
  rr_events : int;  (** events recovered for this rank *)
  rr_events_lost : int option;
      (** events lost vs. the manifest; [None] when the manifest itself
          was lost *)
  rr_truncated : bool;  (** stream cut short or filtered *)
}

type report = {
  format_version : int;  (** 1, 2 or 3 *)
  frames_seen : int;  (** framed formats only; 0 for v1 *)
  frames_dropped : int;  (** checksum failures + garbled headers *)
  ranks_missing : int list;
      (** v2: ranks whose stream frame vanished; v3: ranks the manifest
          gives events that recovered none *)
  per_rank : rank_recovery list;
  notes : string list;  (** human-readable recovery decisions *)
}

type outcome = (Trace.t * report, string) result

(** True when anything at all was lost (the trace differs from what was
    written). *)
val is_degraded : report -> bool

(** Total events lost across ranks; [None] if unknown for any rank. *)
val events_lost : report -> int option

val report_to_string : report -> string

val of_string : ?path:string -> string -> outcome
val load : path:string -> outcome
