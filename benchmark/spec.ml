(* The benchmark contract: workload names and the metrics each run must
   report, read from the BENCHMARK.json this binary was built with. *)

type metric = {
  name : string;
  unit_ : string;
  higher_is_better : bool;
  bound : float option;  (** end-to-end metrics only *)
}

type t = {
  run_seconds : int;
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let fail fmt = Printf.ksprintf (fun s -> failwith ("BENCHMARK.json: " ^ s)) fmt

let field k j =
  match Obs.Json.member k j with Some v -> v | None -> fail "missing %S" k

let str k j =
  match field k j with Obs.Json.Str s -> s | _ -> fail "%S is not a string" k

let num k j =
  match field k j with Obs.Json.Num f -> f | _ -> fail "%S is not a number" k

let arr k j =
  match field k j with Obs.Json.Arr l -> l | _ -> fail "%S is not an array" k

let metric ~end_to_end j =
  {
    name = str "name" j;
    unit_ = str "unit" j;
    higher_is_better =
      (match str "better" j with
      | "higher" -> true
      | "lower" -> false
      | s -> fail "better must be higher or lower, not %S" s);
    bound = (if end_to_end then Some (num "bound" j) else None);
  }

let spec =
  lazy
    (let j = Obs.Json.parse Spec_json.text in
     {
       run_seconds = int_of_float (num "run_seconds" j);
       workloads = List.map (str "name") (arr "workloads" j);
       end_to_end = List.map (metric ~end_to_end:true) (arr "end_to_end" j);
       per_layer = List.map (metric ~end_to_end:false) (arr "per_layer" j);
     })

let get () = Lazy.force spec

let find name =
  let s = get () in
  List.find_opt (fun m -> m.name = name) (s.end_to_end @ s.per_layer)
