(** Mutable min-priority queue on [(time, sequence)] keys.

    The discrete-event engine pops events in increasing virtual-time order;
    the strictly increasing sequence number breaks ties deterministically
    (FIFO among simultaneous events), which is essential for reproducible
    simulations.

    The keys are kept unboxed in heap order (a float array of times and
    int arrays of sequence numbers and value slots); a value stays in its
    slot while queued, so [add] and [pop_min] move only floats and ints and
    allocate nothing beyond the occasional doubling of the arrays.  A
    popped value is no longer reachable from the queue. *)

type 'a t

val create : unit -> 'a t

(** [add t ~time v] enqueues [v]; insertion order is remembered for
    tie-breaking. @raise Invalid_argument on non-finite [time]. *)
val add : 'a t -> time:float -> 'a -> unit

(** Time of the minimum entry.  @raise Invalid_argument when empty. *)
val min_time : 'a t -> float

(** Remove the minimum entry and return its value; read its time with
    {!min_time} first.  Allocates nothing.
    @raise Invalid_argument when empty. *)
val pop_min : 'a t -> 'a

(** [pop t] is [Some (min_time t, pop_min t)], or [None] when empty. *)
val pop : 'a t -> (float * 'a) option

val peek_time : 'a t -> float option
val is_empty : 'a t -> bool
val length : 'a t -> int
