(** On-the-fly intra-rank loop compression.

    Implements ScalaTrace's sliding-window tail compression: after each
    event is appended, the compressor tries (a) to extend an existing PRSD
    whose body matches the new tail and (b) to fold the last [2w] nodes
    into a new 2-iteration PRSD when the two halves are equivalent, for
    window sizes [w = 1..window], smallest first.  Successful folds
    cascade, so nested source loops become nested PRSDs.

    A round does not scan [w = 1..window].  It tries only the candidate
    windows that can succeed: earlier tail nodes with the pushed node's
    hash (a fold), and loops whose body would end at the pushed node (an
    extend).  Two chains over the tail list them in O(1) per candidate.
    Each candidate is screened by an O(1) prefix-hash test, and only one
    that passes pays the O(w) structural comparison.  So a round costs
    O(candidates), not O(window), and the output is identical to the
    scan's at the same window.  That is what lets traces be collected
    greedily, with a window as long as a real loop body, without
    buffering the whole event stream. *)

type t

(** The longest loop body {!create} detects by default: 256 nodes, enough
    for NPB MG's class C V-cycle.  Every compressor in the pipeline uses
    it. *)
val default_window : int

(** [create ~nranks ()] — [window] bounds the loop-body length that can be
    detected (default {!default_window}). *)
val create : ?window:int -> nranks:int -> unit -> t

val push : t -> Event.t -> unit

(** Append an already-built node (RSD or PRSD) and recompress the tail;
    used by trace-rewriting passes that emit whole nodes. *)
val push_node : t -> Tnode.t -> unit

(** Compressed trace in chronological order.  The compressor can keep
    receiving events afterwards. *)
val contents : t -> Tnode.t list

(** [compress_list ~nranks nodes] — run the same tail compression over an
    existing node list: the {!contents} of a fresh compressor after
    pushing every node.  Only tests call it; the generator compresses
    Algorithm 1's output ("Compress T_out") by pushing into {!Merge}'s
    builder. *)
val compress_list : ?window:int -> nranks:int -> Tnode.t list -> Tnode.t list
