(* Per-rank recording state, shared by the tracer and [streams]. *)
type recorder = {
  last_return : float array; (* time of each rank's last MPI return *)
  singletons : Util.Rank_set.t array;
      (* [singleton r], shared by every event of rank r *)
  last_vec : int array array;
      (* [vec] of rank r's latest event that had one, [||] before it *)
}

type t = {
  nranks : int;
  builder : Merge.t;
  recording : recorder;
  mutable comms : (int * Util.Rank_set.t) list; (* comm id -> world members *)
}

let recorder ~nranks =
  {
    last_return = Array.make nranks 0.;
    singletons = Array.init nranks Util.Rank_set.singleton;
    last_vec = Array.make nranks [||];
  }

let create ~nranks () =
  {
    nranks;
    builder = Merge.create ~nranks;
    recording = recorder ~nranks;
    comms = [ (0, Util.Rank_set.all nranks) ];
  }

(* A call's event carries the compute gap since its rank's last MPI return. *)
let event_of rc ~world_rank ~time call =
  let e =
    Event.of_call ~ranks:rc.singletons.(world_rank)
      ~last_vec:rc.last_vec.(world_rank) ~world_rank
      ~time_gap:(time -. rc.last_return.(world_rank))
      call
  in
  (match e with
  | Some { Event.vec = Some v; _ } -> rc.last_vec.(world_rank) <- v
  | _ -> ());
  e

let note_return rc ~world_rank ~time (call : Mpisim.Call.t) =
  match call.op with
  | Compute _ | Wtime -> () (* gaps between MPI calls include local work *)
  | _ -> rc.last_return.(world_rank) <- time

let on_enter t ~world_rank ~time call =
  match event_of t.recording ~world_rank ~time call with
  | None -> ()
  | Some e -> Merge.push t.builder ~rank:world_rank e

let on_return t ~world_rank ~time call (v : Mpisim.Call.value) =
  note_return t.recording ~world_rank ~time call;
  match v with
  | V_comm c ->
      let id = Mpisim.Comm.id c in
      if not (List.mem_assoc id t.comms) then
        t.comms <-
          (id, Util.Rank_set.of_list (Array.to_list (Mpisim.Comm.members c)))
          :: t.comms
  | V_unit | V_request _ | V_status _ | V_statuses _ | V_time _ -> ()

let hook t =
  {
    Mpisim.Hooks.nil with
    on_enter = (fun ~world_rank ~time call -> on_enter t ~world_rank ~time call);
    on_return =
      (fun ~world_rank ~time call v -> on_return t ~world_rank ~time call v);
  }

let local_traces t = Array.init t.nranks (Merge.stream t.builder)
let finish t = Merge.finish t.builder ~comms:(List.sort compare t.comms)

let trace_run ?net ?fault ?max_events ?max_virtual_time ?coll_alg ?obs
    ?(extra_hooks = []) ~nranks program =
  let t = create ~nranks () in
  let outcome =
    Mpisim.Mpi.run ~hooks:(hook t :: extra_hooks) ?net ?fault ?max_events
      ?max_virtual_time ?coll_alg ?obs ~nranks program
  in
  (finish t, outcome)

let streams ~nranks program =
  let streams = Array.make nranks [] and rc = recorder ~nranks in
  let hook =
    {
      Mpisim.Hooks.nil with
      on_enter =
        (fun ~world_rank ~time call ->
          match event_of rc ~world_rank ~time call with
          | None -> ()
          | Some e -> streams.(world_rank) <- e :: streams.(world_rank));
      on_return =
        (fun ~world_rank ~time call _ ->
          note_return rc ~world_rank ~time call);
    }
  in
  ignore (Mpisim.Mpi.run ~hooks:[ hook ] ~nranks program);
  Array.map List.rev streams
