(** Trace events: one compressed record per MPI call instance.

    An event is the payload of an RSD.  During per-rank collection the
    participant set is a singleton and peers are absolute world ranks;
    inter-node merging (see {!Merge}) unions participant sets and
    generalizes peers to relative or per-rank forms, which is what keeps
    trace size sublinear in the rank count. *)

type peer =
  | P_none  (** no peer (waits, non-rooted collectives) *)
  | P_abs of int  (** constant world rank *)
  | P_rel of int  (** world rank [(self + d) mod nranks] *)
  | P_any  (** MPI_ANY_SOURCE *)
  | P_map of (int * int) list
      (** explicit per-rank peers [(world rank, world peer)], sorted *)

type kind =
  | E_send
  | E_isend
  | E_recv
  | E_irecv
  | E_wait
  | E_waitall of int  (** number of requests *)
  | E_barrier
  | E_bcast
  | E_reduce
  | E_allreduce
  | E_gather
  | E_gatherv
  | E_allgather
  | E_allgatherv
  | E_scatter
  | E_scatterv
  | E_alltoall
  | E_alltoallv
  | E_reduce_scatter
  | E_neighbor_alltoall  (** sparse exchange over a neighbor list *)
  | E_neighbor_allgather  (** sparse gather over a neighbor list *)
  | E_comm_split
  | E_comm_dup
  | E_finalize

type t = {
  site : Util.Callsite.t;
  kind : kind;
  mutable peer : peer;
  bytes : int;  (** canonical payload: p2p message size, per-rank collective
                    size, or total for v-collectives; per-neighbor size
                    for neighborhood collectives *)
  vec : int array option;
      (** exact per-rank sizes of v-collectives; for neighborhood
          collectives, the sorted relative neighbor offsets in
          participant-position space (identical on every rank of a
          stencil, which keeps RSD merging exact).  Never mutated once
          the event exists: events share it (see {!copy}). *)
  tag : int;  (** p2p tag; [-1] encodes MPI_ANY_TAG; neighbor degree for
                  neighborhood collectives *)
  comm : int;  (** communicator id *)
  parts : int array option;
      (** declared participant set as sorted world ranks; [None] means
          the whole communicator (every pre-existing event, so old
          traces stay byte-identical on disk).  Never mutated once the
          event exists, like [vec]. *)
  dtime : Util.Histogram.t;  (** computation time preceding this event *)
  mutable ranks : Util.Rank_set.t;  (** participating world ranks *)
  mutable hcache : int;
      (** cached {!hash}; initialize to [0] (= not yet computed) when
          building records literally *)
}

(** [of_call ~ranks ~last_vec ~world_rank ~time_gap call] converts an
    intercepted MPI call of [world_rank] into an event; [None] for
    pseudo-calls ([compute], [MPI_Wtime]).  [ranks] becomes the event's
    participant set: a recorder passes the one [Rank_set.singleton
    world_rank] it keeps for the rank (sets are immutable, so its events
    share it).  A v-collective whose counts equal [last_vec] stores
    [last_vec] itself as its [vec] instead of a copy; pass the [vec] of
    the rank's previous event that had one, or [[||]]. *)
val of_call :
  ranks:Util.Rank_set.t ->
  last_vec:int array ->
  world_rank:int ->
  time_gap:float ->
  Mpisim.Call.t ->
  t option

(** Structural hash over exactly the fields {!mergeable} compares (cached
    in [hcache] after the first call — those fields never change once the
    event exists).  [mergeable a b] implies [hash a = hash b], so unequal
    hashes reject in O(1); never [0]. *)
val hash : t -> int

(** Structural compatibility for compression and merging: same call site,
    kind, sizes, tag, and communicator.  Peers, participant sets, and
    timing are excluded — they are merged, not compared.  Prefiltered by
    {!hash}, so the common non-match case is one integer compare. *)
val mergeable : t -> t -> bool

(** Kind equality ([E_waitall] counts included), without polymorphic
    [=]. *)
val kind_equal : kind -> kind -> bool

(** Peer equality, by constructor and payload. *)
val peer_equal : peer -> peer -> bool

(** [absorb ~nranks ~into e] merges [e]'s timing, participants, and peer
    observations into [into].  Differing peers combine into [P_map] form;
    call {!generalize} afterwards to simplify. *)
val absorb : nranks:int -> into:t -> t -> unit

(** Simplify a [P_map] peer to [P_abs] or [P_rel] when uniform;
    [nranks] defines the modulus for relative peers. *)
val generalize : nranks:int -> t -> unit

(** [peer_of e ~rank ~nranks] resolves the concrete world peer for a
    participant, if determined. *)
val peer_of : t -> rank:int -> nranks:int -> int option

val is_collective : kind -> bool
val is_p2p : kind -> bool

(** MPI-style name, e.g. ["MPI_Irecv"]. *)
val kind_name : kind -> string

(** A copy that absorbing into either side leaves the other unchanged:
    the timing histogram is copied, while [vec], [parts] and the rank set,
    which are never mutated, are shared. *)
val copy : t -> t

(** [narrow ~ranks ~rank ~nranks e] — [e] as its participant [rank]
    executed it: a {!copy} whose participant set is [ranks] and whose
    [P_rel] or [P_map] peer becomes [rank]'s {!peer_of}, as [P_abs], or
    [P_none] when the map does not cover [rank].  Pass the one
    [Rank_set.singleton rank] the caller keeps for the rank, as for
    {!of_call}. *)
val narrow : ranks:Util.Rank_set.t -> rank:int -> nranks:int -> t -> t

(** [neighbor_offsets ~p e] — the offsets at which each of the [p >= 2]
    participants of the neighbourhood collective [e] reaches its
    neighbours (offset [o] from participant [i] reaches participant
    [(i + o) mod p]): [e.vec] reduced modulo [p], without 0, sorted and
    distinct.  The offsets survive RSD merging exactly when the
    neighbourhood is a rank-relative stencil; a merge that lost them
    leaves [vec = None] and only the degree, in [tag], and then the
    offsets are a ring of that degree, [1 .. min (max tag 1) (p - 1)]:
    fan-out and per-rank volume are kept, the topology is not.  Replay and
    code generation both take a neighbourhood from here. *)
val neighbor_offsets : p:int -> t -> int array

val pp : Format.formatter -> t -> unit
