(** The builder of merged traces: the tracer's ({!Tracer.finish}), the
    v2 reader's ({!merge}) and Algorithm 1's output T_out (built by
    [Align], probed by [Frontier]).

    A builder compresses each rank's events on the fly and keeps a list
    of {e anchors}: shared multi-participant RSDs, Algorithm 1's merged
    collectives, each emitted once per collective instance.  An anchor
    closes the open segments of its participants.  {!finish} merges each
    anchor's segments, which hold only singleton-rank nodes, so no shared
    RSD can be duplicated, and appends the anchor once; then it merges
    the segments still open.  Everything goes through one compressor
    (the global tail), and peers are generalized once, at the end.

    Segments are merged rank by rank: each incoming node is aligned
    greedily against the global sequence, looking at most 256 unconsumed
    global nodes ahead, and compatible nodes merge — participant sets
    union, and per-rank peers accumulate until {!Event.generalize} turns
    them into relative ([rank+d]) or absolute forms.  Each rank's event
    order is preserved, the property Algorithms 1 and 2 depend on, and
    the merged trace's size follows the number of {e distinct
    behaviours}, not the rank count.  A lookahead probe is a hash-first
    {!Tnode.equiv}, so a candidate that does not match costs O(1). *)

type t

val create : nranks:int -> t

(** [push b ~rank e] appends [e], executed by [rank] alone, to [rank]'s
    open segment.  The builder keeps [e]. *)
val push : t -> rank:int -> Event.t -> unit

(** [anchor b e] appends the shared RSD [e] once for its participants,
    [e.ranks].  The builder keeps [e] and copies it in {!finish}. *)
val anchor : t -> Event.t -> unit

(** World-spanning anchors so far: the candidate cut points of
    degraded-mode truncation. *)
val world_anchors : t -> int

(** [stream b r] — rank [r]'s open segment, oldest first. *)
val stream : t -> int -> Tnode.t list

(** The merged trace.  With [upto_world_anchor:k], only the prefix up to
    and including the [k]-th world-spanning anchor, without the open
    segments: the "globally consistent frontier" cut of degraded-mode
    generation.  The builder is left unchanged, so [finish] can run more
    than once, e.g. to probe successively earlier frontiers. *)
val finish :
  ?upto_world_anchor:int -> t -> comms:(int * Util.Rank_set.t) list -> Trace.t

(** [merge ~nranks ~comms streams] — {!finish} of a builder without
    anchors whose rank [r] recorded the segment [streams.(r)]. *)
val merge :
  nranks:int ->
  comms:(int * Util.Rank_set.t) list ->
  Tnode.t list array ->
  Trace.t
