type t = {
  nranks : int;
  comms : (int * Util.Rank_set.t) list;
  nodes : Tnode.t list;
}

let make ~nranks ~comms ~nodes =
  { nranks; comms = List.sort compare comms; nodes }

let nranks t = t.nranks
let nodes t = t.nodes
let comms t = t.comms

let comm_members t id = List.assoc id t.comms

let with_nodes t nodes = { t with nodes }

let rsd_count t = Tnode.rsd_count t.nodes
let event_count t = Tnode.event_count t.nodes

let projections t = Tnode.projections t.nodes ~nranks:t.nranks

(* Buckets keyed by [Event.hash], each holding (event, id) pairs newest
   first, so a physical event that occurs twice resolves to its last id. *)
let leaf_index t =
  let buckets = Hashtbl.create 64 and n = ref 0 in
  Tnode.iter_leaves
    (fun e ->
      let h = Event.hash e in
      let bucket = Option.value ~default:[] (Hashtbl.find_opt buckets h) in
      Hashtbl.replace buckets h ((e, !n) :: bucket);
      incr n)
    t.nodes;
  fun e ->
    match Hashtbl.find_opt buckets (Event.hash e) with
    | None -> None
    | Some bucket ->
        List.find_map (fun (e', i) -> if e' == e then Some i else None) bucket

let has_wildcards t =
  let found = ref false in
  Tnode.iter_leaves
    (fun e -> match e.Event.peer with Event.P_any -> found := true | _ -> ())
    t.nodes;
  !found

let has_unaligned_collectives t =
  let found = ref false in
  Tnode.iter_leaves
    (fun e ->
      if Event.is_collective e.Event.kind && e.Event.kind <> Event.E_finalize
      then
        (* A partial-participant collective is complete when every rank of
           its declared participant set merged in — not the whole
           communicator. *)
        match e.Event.parts with
        | Some ps ->
            let expect =
              Array.fold_left
                (fun acc r -> Util.Rank_set.add r acc)
                Util.Rank_set.empty ps
            in
            if not (Util.Rank_set.equal e.Event.ranks expect) then found := true
        | None -> (
            match List.assoc_opt e.Event.comm t.comms with
            | Some members ->
                if not (Util.Rank_set.equal e.Event.ranks members) then
                  found := true
            | None -> ()))
    t.nodes;
  !found

let pp ppf t =
  Format.fprintf ppf "@[<v>trace: %d ranks, %d RSDs, %d events@," t.nranks
    (rsd_count t) (event_count t);
  List.iter
    (fun (id, members) ->
      Format.fprintf ppf "comm %d = %a@," id Util.Rank_set.pp members)
    t.comms;
  Format.fprintf ppf "%a@]" Tnode.pp_list t.nodes

let to_text t = Format.asprintf "%a" pp t

let text_size t = String.length (to_text t)
