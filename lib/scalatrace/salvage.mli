(** Tolerant loading of damaged trace files.

    Where {!Trace_io.load} is strict — one flipped byte and the whole
    file is rejected — this loader recovers everything the damage did
    not touch, and the caller gets a typed {!report} of exactly what was
    recovered and what was lost.  It reads a file with the same reader as
    strict loading ({!Trace_io.read}): where strict loading raises at a
    piece of damage, salvage records strict loading's message as a note
    and the reader recovers by the format's rule.  Only when no usable
    content remains does it return [Error].  Per format (see
    {!Trace_io}):

    - {b v3} (written by {!Trace_io.save}): frames with failing checksums
      are dropped and the longest run of intact node frames starting at
      [nodes:0] is kept, each looked up by its index.  The top-level
      nodes are in global order, which preserves each rank's order, so
      the result is a prefix of every rank's stream; per-rank losses come
      from the manifest.  A damaged node frame loses that frame and every
      later one.
    - {b v2} (written by {!Trace_io.to_framed}): per-frame recovery —
      each rank stream is cut back to its longest well-formed prefix and
      the surviving streams are re-merged.  A damaged frame loses one
      rank.
    - {b v1} (written by {!Trace_io.to_text}): the longest good prefix —
      the lines before the first malformed one, less a loop left open.

    In the framed formats, lost sections are reconstructed from redundant
    ones (the rank count from the manifest, the rank-frame indices or the
    surviving events; the communicator table from MPI_COMM_WORLD alone).
    In every format, events that do not fit the header are dropped.
    Cutting the result back to a globally consistent point is left to
    best-effort generation's frontier rule.

    The contract, shared with {!Trace_io}: strict loading accepts some
    bytes exactly when {!of_string} returns [Ok] with a report that
    {!is_degraded} calls undamaged, and both then return the same
    trace. *)

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
  notes : string list;
      (** strict loading's message for each piece of damage, in the
          order the reader met them *)
}

type outcome = (Trace.t * report, string) result

(** True when the file shows damage: exactly when strict loading refuses
    it.  Every piece of damage leaves a note, so this is [notes <> []].
    Damage can lose no event — a duplicated or out-of-order node frame, a
    manifest that disagrees with the nodes, a missing end frame — and
    still counts. *)
val is_degraded : report -> bool

(** Total events lost across ranks; [None] if unknown for any rank. *)
val events_lost : report -> int option

val report_to_string : report -> string

val of_string : ?path:string -> string -> outcome
val load : path:string -> outcome
