(** Growable ring-buffer FIFO.

    The simulation engine's per-rank message queues (posted receives,
    unexpected messages, flow-controlled senders) and the wildcard
    traversal's queues append at the tail and consume from the head; a
    ring buffer makes both ends O(1) amortized where the previous list
    representation paid O(n) per tail append.  Order of insertion is
    preserved; [remove_at] and [remove_first] exist for mid-queue
    extraction (wildcard and flow-control matching) and cost the scan to
    the element plus the shorter of the two shifts around it.

    Elements are stored directly: [push_back] allocates nothing beyond
    the occasional doubling of the buffer.  A removed element is no
    longer reachable from the deque.  A search that must not allocate a
    closure walks the deque with {!length} and {!get} and removes with
    {!remove_at}. *)

type 'a t

(** [create ()] — an empty deque. [capacity] pre-sizes the backing array
    (rounded up to a power of two). *)
val create : ?capacity:int -> unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

(** O(1) amortized tail append. *)
val push_back : 'a t -> 'a -> unit

(** O(1) head removal; [None] when empty. *)
val pop_front : 'a t -> 'a option

(** Head element without removing it. *)
val peek_front : 'a t -> 'a option

(** [get t i] — the element [i] places from the front (0 is the head).
    @raise Invalid_argument unless [0 <= i < length t]. *)
val get : 'a t -> int -> 'a

(** [remove_at t i] removes and returns the element [i] places from the
    front; O(min(i, length t - i)).
    @raise Invalid_argument unless [0 <= i < length t]. *)
val remove_at : 'a t -> int -> 'a

(** [remove_first pred t] removes and returns the first (oldest) element
    satisfying [pred]; O(i) for the element at position [i], since the gap
    is closed from whichever end is nearer. *)
val remove_first : ('a -> bool) -> 'a t -> 'a option

(** [find_first pred t] — first element satisfying [pred], not removed. *)
val find_first : ('a -> bool) -> 'a t -> 'a option

val exists : ('a -> bool) -> 'a t -> bool

(** Front-to-back iteration. *)
val iter : ('a -> unit) -> 'a t -> unit

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

(** Front-to-back element list. *)
val to_list : 'a t -> 'a list

val clear : 'a t -> unit
