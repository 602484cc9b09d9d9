(** Per-rank traversal of compressed traces.

    Both of the paper's algorithms walk the trace "on behalf of" each rank,
    suspending and resuming at arbitrary events.  A {!cursor} is a purely
    functional position in one rank's projection of the trace: it expands
    PRSD loops lazily (so traversal is O(events), not O(trace size)) and
    can be stored in per-rank contexts and advanced independently — the
    "traversal context" of Algorithm 1.  The {!walk} drives one cursor per
    rank for both algorithms.  The walk builds nothing: Algorithm 1's
    output goes to a {!Scalatrace.Merge} builder, and Algorithm 2 rewrites
    its trace in place. *)

type cursor

(** Cursor at the beginning of a node sequence (normally one rank's entry
    of [Trace.projections t]). *)
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

(** {1 The walk}

    Algorithms 1 and 2 walk the trace the same way and differ only in
    what they do at an event that is not a collective.  The walk owns
    each rank's cursor, the scheduler and the collective rendezvous; its
    client ({!Align}, {!Wildcard}) owns everything else.

    - {b Scheduler.}  The least-progressed runnable rank runs — fewest
      events consumed, then the lowest rank — until it parks or ends.
      This keeps the per-rank traversals in near-lockstep, so wildcard
      receives match sends from the same logical phase (approximating the
      real arrival order) instead of letting one sender run iterations
      ahead.
    - {b Rendezvous.}  Each rank numbers its collectives per
      (communicator, participant key), the key being the event's declared
      participant set or the whole communicator, and a collective instance
      is (communicator, key, slot).  Its members come from the event's
      [parts], else from the communicator table.  A rank parks at an
      instance until every member has arrived; the rank whose arrival
      completes it keeps running and the others become runnable.
    - {b Termination.}  Every step consumes an event or parks a rank, and
      a parked rank runs again only when its collective completes or its
      client resumes it, so the walk ends without an iteration budget:
      when every rank has finished, or when no rank can run. *)

(** A collective instance and its arrivals so far. *)
type collective = private {
  comm : int;
  slot : int;
  members : Util.Rank_set.t;
  member_arr : int array;  (** [members], ascending *)
  arrived : bool array;  (** by [member_arr] position *)
  mutable n_arrived : int;
  mutable arrivals : (int * Scalatrace.Event.t) list;  (** latest first *)
}

type walk

(** [walk ~fail t] — every rank of [t] runnable at its first event.  The
    walk raises [fail msg] at an unknown communicator and at a rank that
    arrives at a collective it is not a member of. *)
val walk : fail:(string -> exn) -> Scalatrace.Trace.t -> walk

(** [run w ~step ~complete] walks until no rank can run and tells whether
    every rank finished.  [step ~rank ~seq e] handles [rank]'s event [e]
    that is not a collective, [seq] events into its stream: [true] moves
    the rank past it, [false] parks the rank there until {!resume}.
    [complete c] sees each collective instance once, when its last member
    arrives. *)
val run :
  walk ->
  step:(rank:int -> seq:int -> Scalatrace.Event.t -> bool) ->
  complete:(collective -> unit) ->
  bool

(** [resume w r] — rank [r], parked by [step], becomes runnable just past
    the event it parked at. *)
val resume : walk -> int -> unit

val finished : walk -> int -> bool

(** The collective instances some members reached and others did not. *)
val pending : walk -> collective list
