(** Inter-rank trace merging.

    Folds per-rank compressed traces into one global trace.  Ranks are
    merged in order; each node of an incoming rank trace is aligned
    greedily against the global sequence, looking at most 256 unconsumed
    global nodes ahead, and compatible nodes are merged: participant sets
    union, per-rank peers accumulate and are generalized to relative
    ([rank+d]) or absolute forms afterwards.  The alignment preserves
    each rank's event order — the property Algorithms 1 and 2 depend on —
    while keeping the merged trace's size proportional to the number of
    *distinct behaviours*, not to the rank count.  Each lookahead probe
    is a hash-first {!Tnode.equiv}, so a candidate that does not match
    costs O(1). *)

val merge :
  nranks:int ->
  comms:(int * Util.Rank_set.t) list ->
  Tnode.t list array ->
  Trace.t

(** [merge_node_lists ~nranks segments] — the greedy alignment alone:
    merge several (per-rank) node lists into one, unioning compatible
    nodes.  Inputs are deep-copied; peers are left un-generalized. *)
val merge_node_lists : nranks:int -> Tnode.t list list -> Tnode.t list
