(** Algorithm 1 — aligning collective operations (paper Section 4.3).

    MPI lets different source lines issue what is dynamically one
    collective operation; ScalaTrace then records one partial-participant
    RSD per call site.  This pass walks the trace on behalf of every rank,
    parking each rank at each collective until all other members of the
    communicator arrive, then re-emits a single RSD covering the full
    participant set — the trace-level equivalent of hoisting the collective
    out of rank conditionals.  Point-to-point events pass through
    unchanged; per-rank event order is preserved; the output is
    recompressed.  Complexity O(p·e); use {!Scalatrace.Trace.has_unaligned_collectives}
    (O(r)) to decide whether the pass is needed.

    The pass runs on the shared walk ({!Traversal.run}), which ends by
    construction.  On damaged (salvaged) traces where a collective
    participant's stream ended before arriving, the walk still runs every
    rank as far as it can; the pass then reports every dead wait in one
    wait-for graph and — under [`Best_effort] — cuts the output back to
    the last channel-balanced world frontier (see {!Frontier}) so
    generation can still proceed. *)

exception Align_error of string
(** Collective mismatch: members of one communicator reach different
    collective operations at the same logical slot, their parameters
    disagree on the root, a rank reaches a collective it is not a member
    of, or parked collectives wait on each other in a cycle.  {!run} also
    raises it (with the formatted wait-for graph) when a collective can
    never complete. *)

type policy = [ `Strict | `Best_effort ]

type stall = {
  st_edges : Util.Waitgraph.edge list;
      (** one edge per rank parked at a pending collective *)
  st_missing : int list;  (** ranks that can never arrive *)
}

exception Incomplete of stall
(** Raised by {!run_policy} under [`Strict] when a collective can never
    complete — distinct from {!Align_error} so callers can map trace
    truncation and application bugs to different outcomes.  {!run} folds
    it into {!Align_error} for the simple API. *)

type outcome = {
  out : Scalatrace.Trace.t;
  stall : stall option;  (** [Some] when a dead wait was detected *)
  cut_anchors : int option;
      (** [Some k] when the output was truncated to the [k]-th world
          frontier (best-effort mode only) *)
  dropped_events : int;  (** input events not carried into [out] *)
}

val stall_message : stall -> string
(** The formatted wait-for graph, as used in errors and diagnostics. *)

val run_policy : ?policy:policy -> Scalatrace.Trace.t -> outcome
(** Full alignment under a recovery policy.  [`Strict] (default) raises
    {!Incomplete} on dead waits; [`Best_effort] never raises on
    truncation — it returns a cut, channel-balanced output instead. *)

val run : Scalatrace.Trace.t -> Scalatrace.Trace.t
(** [run t] = [(run_policy ~policy:`Strict t).out]. *)

(** [align_if_needed t] runs the O(r) pre-check and the pass only when
    required; returns the (possibly unchanged) trace and whether the pass
    ran. *)
val align_if_needed : Scalatrace.Trace.t -> Scalatrace.Trace.t * bool
