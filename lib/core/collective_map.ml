open Scalatrace

type target =
  | T_sync
  | T_multicast of { root : int; bytes : int }
  | T_reduce of { root : int; bytes : int }
  | T_reduce_all of { bytes : int }
  | T_alltoall of { bytes : int }
  | T_reduce_multicast of { root : int; reduce_bytes : int; multicast_bytes : int }
  | T_reduce_per_member of { bytes_per_member : int array }
  | T_neighbor of { gather : bool; bytes : int; offsets : int array }
  | T_skip

exception Unmappable of string

let root_of (e : Event.t) =
  match e.peer with
  | Event.P_abs r -> r
  | _ ->
      raise
        (Unmappable
           (Printf.sprintf "%s without a concrete root" (Event.kind_name e.kind)))

let avg total p = if p <= 0 then total else (total + (p / 2)) / p

let map ~p (e : Event.t) =
  match e.kind with
  | Event.E_barrier -> T_sync
  | Event.E_bcast -> T_multicast { root = root_of e; bytes = e.bytes }
  | Event.E_reduce -> T_reduce { root = root_of e; bytes = e.bytes }
  | Event.E_allreduce -> T_reduce_all { bytes = e.bytes }
  | Event.E_gather -> T_reduce { root = root_of e; bytes = e.bytes }
  | Event.E_gatherv ->
      (* REDUCE with averaged message size *)
      T_reduce { root = root_of e; bytes = avg e.bytes p }
  | Event.E_allgather ->
      (* REDUCE + MULTICAST: everyone contributes one slice, everyone
         receives the full vector *)
      T_reduce_multicast
        { root = -1; reduce_bytes = e.bytes; multicast_bytes = e.bytes * p }
  | Event.E_allgatherv ->
      T_reduce_multicast
        { root = -1; reduce_bytes = avg e.bytes p; multicast_bytes = e.bytes }
  | Event.E_scatter -> T_multicast { root = root_of e; bytes = e.bytes }
  | Event.E_scatterv -> T_multicast { root = root_of e; bytes = avg e.bytes p }
  | Event.E_alltoall -> T_alltoall { bytes = e.bytes }
  | Event.E_alltoallv ->
      (* many-to-many MULTICAST with averaged message size: every member
         fans the average row out to the group, preserving each rank's
         exchanged volume *)
      T_alltoall { bytes = avg e.bytes p }
  | Event.E_reduce_scatter ->
      let vec =
        match e.vec with
        | Some v -> Array.copy v
        | None -> Array.make p (avg e.bytes p)
      in
      T_reduce_per_member { bytes_per_member = vec }
  | Event.E_neighbor_alltoall | Event.E_neighbor_allgather ->
      if p <= 1 then T_skip
      else
        (* the traced stencil, or a ring of the traced degree when a merge
           lost it *)
        T_neighbor
          {
            gather = e.kind = Event.E_neighbor_allgather;
            bytes = e.bytes;
            offsets = Event.neighbor_offsets ~p e;
          }
  | Event.E_comm_split | Event.E_comm_dup | Event.E_finalize -> T_skip
  | Event.E_send | Event.E_isend | Event.E_recv | Event.E_irecv | Event.E_wait
  | Event.E_waitall _ ->
      raise (Unmappable (Event.kind_name e.kind ^ " is not a collective"))

let describe = function
  | Event.E_barrier -> "SYNCHRONIZE"
  | Event.E_bcast -> "MULTICAST"
  | Event.E_reduce -> "REDUCE"
  | Event.E_allreduce -> "REDUCE to all members"
  | Event.E_gather -> "REDUCE"
  | Event.E_gatherv -> "REDUCE with averaged message size"
  | Event.E_allgather -> "REDUCE + MULTICAST"
  | Event.E_allgatherv -> "REDUCE with averaged message size + MULTICAST"
  | Event.E_scatter -> "MULTICAST"
  | Event.E_scatterv -> "MULTICAST with averaged message size"
  | Event.E_alltoall -> "native all-to-all exchange"
  | Event.E_alltoallv -> "MULTICAST with averaged message size"
  | Event.E_reduce_scatter ->
      "n many-to-one REDUCEs with different message sizes and roots"
  | Event.E_neighbor_alltoall -> "EXCHANGE WITH NEIGHBORS at the traced offsets"
  | Event.E_neighbor_allgather -> "GATHER FROM NEIGHBORS at the traced offsets"
  | Event.E_comm_split | Event.E_comm_dup -> "(communicator management: omitted)"
  | Event.E_finalize -> "(end of benchmark)"
  | Event.E_send | Event.E_isend -> "SEND"
  | Event.E_recv | Event.E_irecv -> "RECEIVE"
  | Event.E_wait | Event.E_waitall _ -> "AWAIT COMPLETION"

let table =
  [
    ("Allgather", "REDUCE + MULTICAST");
    ("Allgatherv", "REDUCE with averaged message size + MULTICAST");
    ("Alltoallv", "MULTICAST with averaged message size");
    ("Gather", "REDUCE");
    ("Gatherv", "REDUCE with averaged message size");
    ("Neighbor_allgather", "GATHER FROM NEIGHBORS at the traced offsets");
    ("Neighbor_alltoall", "EXCHANGE WITH NEIGHBORS at the traced offsets");
    ( "Reduce_scatter",
      "n many-to-one REDUCEs with different message sizes and roots, where n \
       is the communicator size" );
    ("Scatter", "MULTICAST");
    ("Scatterv", "MULTICAST with averaged message size");
  ]
