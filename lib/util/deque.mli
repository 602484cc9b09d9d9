(** Growable ring-buffer FIFO.

    The simulation engine's per-rank message queues (posted receives,
    unexpected messages, flow-controlled senders) append at the tail and
    consume from the head; a ring buffer makes both ends O(1) amortized
    where the previous list representation paid O(n) per tail append.
    Order of insertion is preserved; [remove_first] exists for mid-queue
    extraction (wildcard and flow-control matching) and costs the scan to
    the element plus the shorter of the two shifts around it. *)

type 'a t

(** [create ()] — an empty deque. [capacity] pre-sizes the backing array. *)
val create : ?capacity:int -> unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

(** O(1) amortized tail append. *)
val push_back : 'a t -> 'a -> unit

(** O(1) head removal; [None] when empty. *)
val pop_front : 'a t -> 'a option

(** Head element without removing it. *)
val peek_front : 'a t -> 'a option

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
