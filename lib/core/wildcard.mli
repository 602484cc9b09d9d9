(** Algorithm 2 — resolving wildcard receives (paper Section 4.4).

    Replaces every [MPI_ANY_SOURCE] in the trace with a concrete sender,
    chosen by simulating the send/receive matching over a per-rank
    traversal: each rank keeps a list of its unmatched point-to-point
    operations ([L1] in the paper) and every operation arriving at a rank
    is looked up against the pending operations destined for it ([L2]).
    A wildcard receive is pinned to the first sender that matches it; the
    trace structure is otherwise unchanged (peers are rewritten in place,
    to an absolute rank or a per-rank map).

    The traversal runs on the shared walk ({!Traversal.run}), which
    schedules the ranks and parks them at collectives; this pass parks a
    rank at a blocking send or receive until its match, and at a wait
    until the rank's pending operations have matched.  A transfer log
    (the paper's [L3]/unblock events) detects cyclic dependencies: if the
    traversal returns to a node still blocked on the same event with no
    unblocking in between, a *potential deadlock* of the original
    application has been found — a sufficient (not necessary) condition —
    and {!Potential_deadlock} is raised rather than hanging.

    Complexity O(p·e); gate the pass with the O(r)
    {!Scalatrace.Trace.has_wildcards} pre-check. *)

exception Potential_deadlock of string

exception Wildcard_error of string
(** Malformed trace: e.g. a send whose destination cannot be resolved, or
    a rank reaching a collective it is not a member of. *)

(** How to choose the concrete sender for each wildcard instance:

    - [`Traversal] — the paper's untimed Algorithm 2 exactly, including
      its sufficient deadlock detection: it reports rather than resolves
      the paper's Figure 5 program.
    - [`Timed] — replay the trace on the simulator and record which sender
      each wildcard matched: the assignment is an actual execution, hence
      always valid.
    - [`Auto] (default) — run [`Traversal] and keep its assignment when
      the traversal's own state certifies it (see {!certify}); no replay
      runs then.  A refused certificate falls back to today's check:
      replay the resolved trace and switch to [`Timed] if that hangs.
      When the untimed traversal itself wedges, [`Auto] switches to
      [`Timed] at once; that replay re-raises {!Potential_deadlock} when
      the hazard is genuine.  The replay check has not been seen to
      reject an assignment: every wildcard-bearing [Check.Gen] program of
      seeds 1–1500 and LU at 2–64 ranks replays cleanly. *)
type strategy = [ `Traversal | `Timed | `Auto ]

(** The certificate's decision on an untimed assignment. *)
type verdict = Certified | Refused of string  (** why it cannot vouch *)

(** [certify trace] — the [`Traversal] resolution of [trace] and the
    certificate's verdict on it.  The certificate holds when the
    traversal completed, no point-to-point event uses [MPI_ANY_TAG] (or
    any negative tag), every operation was matched, a per-channel ledger
    keyed (src, dst, comm, tag) saw the k-th send of each channel in
    sender program order meet the k-th receive in receiver program order,
    and the rebuild consumed every resolution queue exactly.

    Soundness: with sources pinned and tags concrete, matching is
    per-channel FIFO and so does not depend on the schedule.  The
    traversal is then one complete execution of the pinned program under
    blocking rules at least as strict as the simulator's — a blocking
    send waits for its match (rendezvous), a wait waits for all of the
    rank's pending operations, and every collective synchronizes all its
    members — while the simulator never blocks where zero-buffer
    semantics would not (a posted receive forces a parked matching send
    in).  Hence replaying a [Certified] resolution completes.
    @raise Potential_deadlock as [`Traversal] does. *)
val certify : Scalatrace.Trace.t -> Scalatrace.Trace.t * verdict

(** [?on_fallback] is invoked (with a human-readable reason) each time the
    [`Auto] strategy abandons the untimed traversal for the timed replay —
    callers surface this as a degradation warning rather than a failure. *)
val run :
  ?strategy:strategy -> ?net:Mpisim.Netmodel.t ->
  ?on_fallback:(string -> unit) -> Scalatrace.Trace.t ->
  Scalatrace.Trace.t

(** Run the [`Auto] pass only when the O(r) pre-check finds wildcard
    receives; returns the trace and whether the pass ran. *)
val resolve_if_needed :
  ?net:Mpisim.Netmodel.t ->
  ?on_fallback:(string -> unit) -> Scalatrace.Trace.t ->
  Scalatrace.Trace.t * bool
