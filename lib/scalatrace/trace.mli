(** The global (inter-rank merged) application trace.

    This is the exchange format between ScalaTrace and the benchmark
    generator: a compressed node sequence whose per-rank projections equal
    the per-rank event streams, plus the membership table of every
    communicator the application created. *)

type t

val make :
  nranks:int -> comms:(int * Util.Rank_set.t) list -> nodes:Tnode.t list -> t

val nranks : t -> int
val nodes : t -> Tnode.t list

(** Communicator memberships, sorted by id; id 0 is the world. *)
val comms : t -> (int * Util.Rank_set.t) list

(** Members of one communicator. @raise Not_found for unknown ids. *)
val comm_members : t -> int -> Util.Rank_set.t

(** Replace the node sequence (trace-rewriting passes). *)
val with_nodes : t -> Tnode.t list -> t

(** {1 Size and content metrics} *)

val rsd_count : t -> int
val event_count : t -> int

(** Serialized size in bytes of {!to_text} — the "trace file size" proxy
    used by the scaling experiments. *)
val text_size : t -> int

(** Every rank's projection, indexed by rank: the event-node sequence
    each rank executes, built in one walk of the trace
    ({!Tnode.projections}). *)
val projections : t -> Tnode.t list array

(** [leaf_index t] numbers the leaves of [t] in {!Tnode.iter_leaves}
    order and returns an O(1) lookup by physical identity: [Some id] for a
    leaf of [t] (the last id when one physical event occurs twice), [None]
    for any other event.  Structurally equal leaves keep distinct ids. *)
val leaf_index : t -> Event.t -> int option

(** True if any receive event uses MPI_ANY_SOURCE — the O(r) pre-check of
    Section 4.4. *)
val has_wildcards : t -> bool

(** True if some collective call site covers only part of its
    communicator — the O(r) pre-check of Section 4.3. *)
val has_unaligned_collectives : t -> bool

val to_text : t -> string
val pp : Format.formatter -> t -> unit
