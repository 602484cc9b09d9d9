(** Descriptors for the MPI operations the simulator understands.

    Ranks and peers inside [op] are communicator-local (as in real MPI
    argument lists); the engine translates through {!Comm}. *)

(** Request handle for nonblocking operations. *)
type request = int

type source = Rank of int | Any_source

(** Tag matching; [Any_tag] is MPI_ANY_TAG. *)
type tag_match = Tag of int | Any_tag

type status = {
  actual_source : int;  (** communicator-local rank of the matched sender *)
  actual_tag : int;
  received_bytes : int;
}

type op =
  | Send of { dst : int; bytes : int; tag : int }
  | Isend of { dst : int; bytes : int; tag : int }
  | Recv of { src : source; bytes : int; tag : tag_match }
  | Irecv of { src : source; bytes : int; tag : tag_match }
  | Wait of request
  | Waitall of request list
  | Barrier
  | Bcast of { root : int; bytes : int }
  | Reduce of { root : int; bytes : int }
  | Allreduce of { bytes : int }
  | Gather of { root : int; bytes_per_rank : int }
  | Gatherv of { root : int; bytes_from : int array }
  | Allgather of { bytes_per_rank : int }
  | Allgatherv of { bytes_from : int array }
  | Scatter of { root : int; bytes_per_rank : int }
  | Scatterv of { root : int; bytes_to : int array }
  | Alltoall of { bytes_per_pair : int }
  | Alltoallv of { bytes_to : int array }
  | Reduce_scatter of { bytes_per_rank : int array }
  | Neighbor_alltoall of {
      parts : int array;
          (** sorted communicator-local ranks of the declared participant
              set; [[||]] means the whole communicator.  Every participant
              must call the operation (it synchronizes the set), but data
              moves only along each caller's [neighbors]. *)
      neighbors : int array;
          (** this caller's sorted communicator-local neighbor list; must be
              a subset of the participant set and must not contain the
              caller *)
      bytes_per_neighbor : int;
    }
      (** sparse all-to-all: a distinct [bytes_per_neighbor]-sized block to
          each neighbor *)
  | Neighbor_allgather of { parts : int array; neighbors : int array; bytes : int }
      (** sparse allgather: the same [bytes]-sized block to every neighbor *)
  | Comm_split of { color : int; key : int }
  | Comm_dup
  | Compute of float  (** local work for the given number of seconds *)
  | Wtime
  | Finalize

type t = { op : op; comm : Comm.t; site : Util.Callsite.t }

(** Value a call resumes its caller with. *)
type value =
  | V_unit
  | V_request of request
  | V_status of status
  | V_statuses of status array
  | V_comm of Comm.t
  | V_time of float

val is_collective : op -> bool

(** Human-readable MPI-style name, e.g. ["MPI_Isend"]. *)
val op_name : op -> string

(** Bytes this rank contributes to the operation (its send/recv volume as
    used by profiling); [p] is the communicator size, [rank] the caller's
    local rank. *)
val local_bytes : op -> p:int -> rank:int -> int

val pp_op : Format.formatter -> op -> unit
