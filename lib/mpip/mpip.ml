(* One counter pair per profiled operation, indexed by [slot], so a call
   costs no string hash.  [names.(i)] is set when slot [i] is first
   counted. *)
type t = { n_calls : int array; n_bytes : int array; names : string array }

type entry = { op_name : string; calls : int; bytes : int }

let n_slots = 24

let slot : Mpisim.Call.op -> int = function
  | Send _ -> 0
  | Isend _ -> 1
  | Recv _ -> 2
  | Irecv _ -> 3
  | Wait _ -> 4
  | Waitall _ -> 5
  | Barrier -> 6
  | Bcast _ -> 7
  | Reduce _ -> 8
  | Allreduce _ -> 9
  | Gather _ -> 10
  | Gatherv _ -> 11
  | Allgather _ -> 12
  | Allgatherv _ -> 13
  | Scatter _ -> 14
  | Scatterv _ -> 15
  | Alltoall _ -> 16
  | Alltoallv _ -> 17
  | Reduce_scatter _ -> 18
  | Neighbor_alltoall _ -> 19
  | Neighbor_allgather _ -> 20
  | Comm_split _ -> 21
  | Comm_dup -> 22
  | Finalize -> 23
  | Compute _ | Wtime -> -1

let create () =
  {
    n_calls = Array.make n_slots 0;
    n_bytes = Array.make n_slots 0;
    names = Array.make n_slots "";
  }

let record t ~world_rank ~(call : Mpisim.Call.t) =
  let i = slot call.op in
  if i >= 0 then begin
    if t.n_calls.(i) = 0 then t.names.(i) <- Mpisim.Call.op_name call.op;
    let p = Mpisim.Comm.size call.comm in
    let rank =
      match Mpisim.Comm.local_of_world_exn call.comm world_rank with
      | l -> l
      | exception Not_found -> 0
    in
    t.n_calls.(i) <- t.n_calls.(i) + 1;
    t.n_bytes.(i) <- t.n_bytes.(i) + Mpisim.Call.local_bytes call.op ~p ~rank
  end

let hook t =
  {
    Mpisim.Hooks.nil with
    on_enter = (fun ~world_rank ~time:_ call -> record t ~world_rank ~call);
  }

let entries t =
  List.init n_slots Fun.id
  |> List.filter_map (fun i ->
         if t.n_calls.(i) = 0 then None
         else
           Some { op_name = t.names.(i); calls = t.n_calls.(i); bytes = t.n_bytes.(i) })
  |> List.sort (fun a b -> String.compare a.op_name b.op_name)

let total_bytes t = List.fold_left (fun acc e -> acc + e.bytes) 0 (entries t)

let diff a b =
  let names =
    List.sort_uniq String.compare
      (List.map (fun e -> e.op_name) (entries a)
      @ List.map (fun e -> e.op_name) (entries b))
  in
  List.filter_map
    (fun name ->
      let find t =
        match List.find_opt (fun e -> e.op_name = name) (entries t) with
        | Some e -> (e.calls, e.bytes)
        | None -> (0, 0)
      in
      let ca, ba = find a and cb, bb = find b in
      if ca = cb && ba = bb then None
      else
        Some
          (Printf.sprintf "%s: calls %d vs %d, bytes %d vs %d" name ca cb ba bb))
    names

let equal a b = diff a b = []

let record_metrics t (m : Obs.Metrics.t) =
  List.iter
    (fun e ->
      let labels = [ ("op", e.op_name) ] in
      Obs.Metrics.inc m ~labels ~by:e.calls "mpi.calls";
      Obs.Metrics.inc m ~labels ~by:e.bytes "mpi.bytes")
    (entries t)

let pp ppf t =
  List.iter
    (fun e -> Format.fprintf ppf "%-20s %8d calls %12d bytes@." e.op_name e.calls e.bytes)
    (entries t)
