(** RSD/PRSD trace structure.

    A trace is a sequence of nodes: a [Leaf] is an RSD (one compressed
    event), a [Loop] is a PRSD — [count] repetitions of a nested sequence.
    Loops nest arbitrarily, mirroring source-code loop structure. *)

type t = Leaf of Event.t | Loop of loop

and loop = {
  count : int;
  body : t list;
  l_len : int;  (** cached [List.length body] *)
  l_hash : int;
      (** cached structural hash of [body] (count excluded); equivalent
          bodies hash equal, so unequal hashes reject in O(1) *)
}
(** Build [Loop] nodes with {!loop}, which computes the cached fields;
    construct the record directly only when reusing an existing node's
    [l_len]/[l_hash] for a structurally identical body (e.g. bumping
    [count]). *)

(** [loop ~count body] — a PRSD node with its cached length and hash. *)
val loop : count:int -> t list -> t

(** Structural hash consistent with {!equiv} and {!equiv_ranks}: equivalent
    nodes hash equal ([count] included at this level).  O(1) — leaves cache
    in the event, loops in [l_hash]. *)
val hash : t -> int

(** Structural equivalence: events must be {!Event.mergeable} and loop
    shapes identical (same counts, recursively equivalent bodies).
    Participant sets are ignored — this is the inter-rank merge's notion
    of compatibility.  Hash-prefiltered: mismatches reject on one integer
    compare per node. *)
val equiv : t -> t -> bool

(** Like {!equiv} but additionally requires equal participant sets and
    equal peers on every leaf.  Loop compression must use this: folding
    nodes with different participants would duplicate events in some
    ranks' projections, and folding same-rank events with different peers
    (e.g. a butterfly exchange) would corrupt the communication pattern. *)
val equiv_ranks : t -> t -> bool

(** [absorb ~nranks ~into n] merges timing/participants of [n] into [into];
    both sides must be [equiv]. *)
val absorb : nranks:int -> into:t -> t -> unit

val copy : t -> t

(** Number of RSDs (leaves) in a node list — the compressed size. *)
val rsd_count : t list -> int

(** Total MPI events represented after expanding loops, summed over all
    participating ranks. *)
val event_count : t list -> int

(** Events represented for one rank (loops expanded, nodes filtered by
    membership). *)
val event_count_for : t list -> rank:int -> int

(** [project nodes ~rank] — the subsequence visible to [rank]: nodes whose
    participant set contains it, loop bodies filtered recursively, empty
    loops dropped. *)
val project : t list -> rank:int -> t list

(** [projections nodes ~nranks] is [[| project nodes ~rank:0; ...;
    project nodes ~rank:(nranks - 1) |]], node for node and with the same
    physical leaves, built in one walk: it costs the total size of the
    projections instead of [nranks] walks of [nodes]. *)
val projections : t list -> nranks:int -> t list array

(** [iter_leaves f nodes] visits every leaf (without expanding loop
    counts). *)
val iter_leaves : (Event.t -> unit) -> t list -> unit

(** Map every leaf event (deep copy not implied; [f] may return the same
    event). *)
val map_leaves : (Event.t -> Event.t) -> t list -> t list

val pp : Format.formatter -> t -> unit
val pp_list : Format.formatter -> t list -> unit
