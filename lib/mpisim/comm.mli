(** MPI communicators.

    A communicator is an ordered subset of the world ranks, renumbered from
    0.  Every communication operation names its peers in communicator-local
    ranks; the simulator (and, later, the benchmark generator's
    absolute-rank translation) converts through the tables kept here. *)

type t

(** Unique id; the world communicator of a run always has id 0. *)
val id : t -> int

val size : t -> int

(** [world n] — the primordial communicator over ranks [0..n-1]. *)
val world : int -> t

(** [make ~id ~members] — a communicator whose local rank [i] is world rank
    [members.(i)].  @raise Invalid_argument on duplicate members. *)
val make : id:int -> members:int array -> t

(** [world_of_local t r] translates a [t]-local rank to a world rank.
    @raise Invalid_argument if [r] is out of range. *)
val world_of_local : t -> int -> int

(** [local_of_world t w] is the [t]-local rank of world rank [w], if a
    member. *)
val local_of_world : t -> int -> int option

(** [local_of_world_exn t w] is the [t]-local rank of world rank [w],
    without an option: the engine's per-event lookups use it.  On a
    communicator whose local ranks are its world ranks (the world, or a
    duplicate of it) it is a bounds check; otherwise one lookup in an
    int-keyed table.  @raise Not_found if [w] is not a member. *)
val local_of_world_exn : t -> int -> int

(** Membership test, with the cost of {!local_of_world_exn}. *)
val is_member : t -> world:int -> bool

(** All members as world ranks, in local-rank order. *)
val members : t -> int array

val pp : Format.formatter -> t -> unit
