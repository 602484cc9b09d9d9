type request = int

type source = Rank of int | Any_source

type tag_match = Tag of int | Any_tag

type status = { actual_source : int; actual_tag : int; received_bytes : int }

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
      neighbors : int array;
      bytes_per_neighbor : int;
    }
  | Neighbor_allgather of { parts : int array; neighbors : int array; bytes : int }
  | Comm_split of { color : int; key : int }
  | Comm_dup
  | Compute of float
  | Wtime
  | Finalize

type t = { op : op; comm : Comm.t; site : Util.Callsite.t }

type value =
  | V_unit
  | V_request of request
  | V_status of status
  | V_statuses of status array
  | V_comm of Comm.t
  | V_time of float

let is_collective = function
  | Barrier | Bcast _ | Reduce _ | Allreduce _ | Gather _ | Gatherv _
  | Allgather _ | Allgatherv _ | Scatter _ | Scatterv _ | Alltoall _
  | Alltoallv _ | Reduce_scatter _ | Neighbor_alltoall _ | Neighbor_allgather _
  | Comm_split _ | Comm_dup | Finalize ->
      true
  | Send _ | Isend _ | Recv _ | Irecv _ | Wait _ | Waitall _ | Compute _
  | Wtime ->
      false

let op_name = function
  | Send _ -> "MPI_Send"
  | Isend _ -> "MPI_Isend"
  | Recv _ -> "MPI_Recv"
  | Irecv _ -> "MPI_Irecv"
  | Wait _ -> "MPI_Wait"
  | Waitall _ -> "MPI_Waitall"
  | Barrier -> "MPI_Barrier"
  | Bcast _ -> "MPI_Bcast"
  | Reduce _ -> "MPI_Reduce"
  | Allreduce _ -> "MPI_Allreduce"
  | Gather _ -> "MPI_Gather"
  | Gatherv _ -> "MPI_Gatherv"
  | Allgather _ -> "MPI_Allgather"
  | Allgatherv _ -> "MPI_Allgatherv"
  | Scatter _ -> "MPI_Scatter"
  | Scatterv _ -> "MPI_Scatterv"
  | Alltoall _ -> "MPI_Alltoall"
  | Alltoallv _ -> "MPI_Alltoallv"
  | Reduce_scatter _ -> "MPI_Reduce_scatter"
  | Neighbor_alltoall _ -> "MPI_Neighbor_alltoall"
  | Neighbor_allgather _ -> "MPI_Neighbor_allgather"
  | Comm_split _ -> "MPI_Comm_split"
  | Comm_dup -> "MPI_Comm_dup"
  | Compute _ -> "compute"
  | Wtime -> "MPI_Wtime"
  | Finalize -> "MPI_Finalize"

let sum (a : int array) =
  let s = ref 0 in
  for i = 0 to Array.length a - 1 do
    s := !s + a.(i)
  done;
  !s

let local_bytes op ~p ~rank =
  match op with
  | Send { bytes; _ } | Isend { bytes; _ } -> bytes
  | Recv { bytes; _ } | Irecv { bytes; _ } -> bytes
  | Wait _ | Waitall _ | Barrier | Comm_split _ | Comm_dup | Compute _
  | Wtime | Finalize ->
      0
  | Bcast { bytes; _ } | Reduce { bytes; _ } | Allreduce { bytes } -> bytes
  | Gather { root; bytes_per_rank } | Scatter { root; bytes_per_rank } ->
      if rank = root then bytes_per_rank * p else bytes_per_rank
  | Gatherv { root; bytes_from } ->
      if rank = root then sum bytes_from else bytes_from.(rank)
  | Scatterv { root; bytes_to } ->
      if rank = root then sum bytes_to else bytes_to.(rank)
  | Allgather { bytes_per_rank } -> bytes_per_rank * p
  | Allgatherv { bytes_from } -> sum bytes_from
  | Alltoall { bytes_per_pair } -> bytes_per_pair * p
  | Alltoallv { bytes_to } -> sum bytes_to
  | Reduce_scatter { bytes_per_rank } -> sum bytes_per_rank
  | Neighbor_alltoall { neighbors; bytes_per_neighbor; _ } ->
      Array.length neighbors * bytes_per_neighbor
  | Neighbor_allgather { neighbors; bytes; _ } -> Array.length neighbors * bytes

let pp_op ppf op =
  let name = op_name op in
  match op with
  | Send { dst; bytes; tag } | Isend { dst; bytes; tag } ->
      Format.fprintf ppf "%s(dst=%d,%dB,tag=%d)" name dst bytes tag
  | Recv { src; bytes; tag } | Irecv { src; bytes; tag } ->
      let src_s = match src with Rank r -> string_of_int r | Any_source -> "ANY" in
      let tag_s = match tag with Tag t -> string_of_int t | Any_tag -> "ANY" in
      Format.fprintf ppf "%s(src=%s,%dB,tag=%s)" name src_s bytes tag_s
  | Wait r -> Format.fprintf ppf "%s(req=%d)" name r
  | Waitall rs -> Format.fprintf ppf "%s(%d reqs)" name (List.length rs)
  | Neighbor_alltoall { parts; neighbors; bytes_per_neighbor } ->
      Format.fprintf ppf "%s(|parts|=%d,deg=%d,%dB)" name (Array.length parts)
        (Array.length neighbors) bytes_per_neighbor
  | Neighbor_allgather { parts; neighbors; bytes } ->
      Format.fprintf ppf "%s(|parts|=%d,deg=%d,%dB)" name (Array.length parts)
        (Array.length neighbors) bytes
  | Compute d -> Format.fprintf ppf "compute(%.3gs)" d
  | _ -> Format.pp_print_string ppf name
