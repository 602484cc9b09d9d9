(** Globally consistent frontiers for degraded-mode generation.

    When a salvaged trace cannot be fully aligned (a rank's stream ended
    early), the benchmark must be cut so that no message crosses the cut
    — otherwise replay hangs on a receive whose sender was lost.  The
    frontier rule: truncate Algorithm 1's output to the last
    world-spanning collective anchor of its {!Scalatrace.Merge} builder
    and verify the result by loop-weighted channel accounting; probe
    earlier anchors until the accounting closes. *)

(** [balanced t] — true when every point-to-point channel closes: for
    each destination and communicator, loop-weighted receive counts are
    covered by matching sends (tags exact, [-1] and [P_any] treated as
    wildcards, greedily most-specific-first) and no send is left over. *)
val balanced : Scalatrace.Trace.t -> bool

(** [cut b ~comms] — the latest world-anchor truncation of the builder
    [b] ({!Scalatrace.Merge.finish} [~upto_world_anchor]) that passes
    {!balanced}, with the number of anchors kept (0 means the empty
    trace). *)
val cut :
  Scalatrace.Merge.t ->
  comms:(int * Util.Rank_set.t) list ->
  Scalatrace.Trace.t * int
