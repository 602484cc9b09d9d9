(** Per-rank traversal of compressed traces.

    Both of the paper's algorithms walk the trace "on behalf of" each rank,
    suspending and resuming at arbitrary events.  A {!cursor} is a purely
    functional position in one rank's projection of the trace: it expands
    PRSD loops lazily (so traversal is O(events), not O(trace size)) and
    can be stored in per-rank contexts and advanced independently — the
    "traversal context" of Algorithm 1. *)

type cursor

(** Cursor at the beginning of a node sequence (normally
    [Trace.project t ~rank]). *)
val start : Scalatrace.Tnode.t list -> cursor

(** The event under the cursor and the cursor just past it; [None] at the
    end.  The returned event is the physical [Event.t] stored in the
    trace — every iteration of a loop yields the same object, which lets
    clients key per-RSD state (e.g. wildcard resolutions) on physical
    identity. *)
val peek : cursor -> (Scalatrace.Event.t * cursor) option

(** Events already consumed before this position — a stable identifier for
    "the k-th event of this rank" used by deadlock bookkeeping. *)
val consumed : cursor -> int

(** A collective's participant key: its declared participant set, or
    [[||]] for the whole communicator.  Algorithms 1 and 2 number each
    rank's collectives per (communicator, key) and wait for each instance
    under (communicator, key, slot).  The key is the event's own array,
    shared by every iteration of its RSD, so building it costs nothing. *)
val participants : Scalatrace.Event.t -> int array

(** {1 Output rebuilding}

    Algorithm 1 rewrites the trace by re-emitting events in traversal
    order into a single output queue (the paper's [T_out]), compressed on
    the fly ("Compress T_out").  Every event instance is appended exactly
    once — shared collectives with their full participant set — so the
    per-rank projections of the result are correct by construction. *)

type rebuild

val rebuild_create : nranks:int -> comms:(int * Util.Rank_set.t) list -> rebuild

(** Emit an event instance executed by a single rank (peers are narrowed
    to that rank's concrete value). *)
val emit_single : rebuild -> rank:int -> Scalatrace.Event.t -> unit

(** Emit one collective RSD covering all of [ranks]; call it exactly once
    per collective instance, when all participants have arrived. *)
val emit_group : rebuild -> ranks:Util.Rank_set.t -> Scalatrace.Event.t -> unit

(** Number of world-spanning collective anchors emitted so far — the
    candidate cut points for degraded-mode truncation. *)
val world_anchor_count : rebuild -> int

(** Build the output trace.  With [upto_world_anchor:k], keep only the
    emission prefix up to and including the [k]-th world-spanning anchor
    and drop the open per-rank segments beyond it — the "globally
    consistent frontier" cut of degraded-mode generation.  May be called
    more than once on the same rebuild (e.g. probing successively earlier
    frontiers). *)
val rebuild_finish : ?upto_world_anchor:int -> rebuild -> Scalatrace.Trace.t
