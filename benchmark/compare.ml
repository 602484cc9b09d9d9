(* [main.exe compare RUNS_A RUNS_B]: judge run set B against run set A,
   workload by workload and metric by metric, with the bounds in
   BENCHMARK.json and the rule of choosing-metrics section 8:

   - improved: B wins at least 9/10 of the pairs (runs paired by seed,
     ties counting for neither) and the medians differ by more than A's
     quartile spread;
   - unresolved: A's or B's quartile spread exceeds the bound, unless
     every run of B reads better than every run of A;
   - regressed: B's median is worse than A's by more than the bound;
   - unchanged: otherwise.

   Counts (unit count or bytes) must match exactly, seed by seed.  The
   share of failed operations must not grow. *)

type run = {
  workload : string;
  seed : int;
  traced : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let num = function Obs.Json.Num f -> Some f | _ -> None

let run_of_json j =
  let open Obs.Json in
  match (member "workload" j, member "metrics" j) with
  | Some (Str workload), Some (Obj metrics) ->
      let int k = Option.fold ~none:0 ~some:int_of_float (Option.bind (member k j) num) in
      Some
        {
          workload;
          seed = int "seed";
          traced = int "trace" = 1;
          attempted = int "attempted";
          failed = int "failed";
          values =
            List.filter_map
              (fun (k, v) -> Option.map (fun f -> (k, f)) (Option.bind (member "value" v) num))
              metrics;
        }
  | _ -> None

(* Every result file under [path] (a file or a directory tree). *)
let rec load path =
  if Sys.is_directory path then
    List.concat_map
      (fun f -> load (Filename.concat path f))
      (List.sort compare (Array.to_list (Sys.readdir path)))
  else if Filename.check_suffix path ".json" then
    match Obs.Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | j -> Option.to_list (run_of_json j)
    | exception Obs.Json.Parse_error _ -> []
  else []

let is_count (m : Spec.metric) = m.unit_ = "count" || m.unit_ = "bytes"

let spread (q1, med, q3) = if med = 0. then 0. else (q3 -. q1) /. Float.abs med

(* Pairs (a, b) of one metric's values, matched by seed. *)
let pairs name a b =
  List.filter_map
    (fun ra ->
      match List.find_opt (fun rb -> rb.seed = ra.seed) b with
      | Some rb -> (
          match (List.assoc_opt name ra.values, List.assoc_opt name rb.values) with
          | Some x, Some y -> Some (x, y)
          | _ -> None)
      | None -> None)
    a

let verdict (m : Spec.metric) a b =
  let better x y = if m.higher_is_better then x > y else x < y in
  let va = List.filter_map (List.assoc_opt m.name) (List.map (fun r -> r.values) a)
  and vb = List.filter_map (List.assoc_opt m.name) (List.map (fun r -> r.values) b) in
  let ps = pairs m.name a b in
  let wins = List.length (List.filter (fun (x, y) -> better y x) ps) in
  let won = if ps = [] then nan else float_of_int wins /. float_of_int (List.length ps) in
  let qa = Stats.quartiles va and qb = Stats.quartiles vb in
  let (q1a, meda, q3a), (_, medb, _) = (qa, qb) in
  let verdict =
    if va = [] || vb = [] then "missing"
    else if is_count m then
      if List.for_all (fun (x, y) -> x = y) ps && ps <> [] then "identical"
      else if better medb meda then "improved"
      else "changed"
    else
      match m.bound with
      | None -> "-"
      | Some bound ->
          let all_better = List.for_all (fun y -> List.for_all (fun x -> better y x) va) vb in
          let worse =
            (if m.higher_is_better then meda -. medb else medb -. meda) /. Float.abs meda
          in
          if won >= 0.9 && Float.abs (medb -. meda) > q3a -. q1a && better medb meda then
            "improved"
          else if (spread qa > bound || spread qb > bound) && not all_better then "unresolved"
          else if worse > bound then "regressed"
          else "unchanged"
  in
  (qa, qb, won, verdict)

let fmt_q (q1, med, q3) = Printf.sprintf "%.6g [%.6g, %.6g]" med q1 q3

let run path_a path_b =
  let a = load path_a and b = load path_b in
  if a = [] || b = [] then begin
    prerr_endline "compare: no result files found (expected <workload>.json files written by run)";
    2
  end
  else begin
    let spec = Spec.get () in
    let bad = ref 0 in
    Printf.printf "%-15s %-32s %-36s %-36s %5s  %s\n" "workload" "metric" "A median [q1, q3]"
      "B median [q1, q3]" "won" "verdict";
    List.iter
      (fun w ->
        List.iter
          (fun (traced, metrics) ->
            let sel runs = List.filter (fun r -> r.workload = w && r.traced = traced) runs in
            let ra = sel a and rb = sel b in
            if ra <> [] && rb <> [] then begin
              List.iter
                (fun (m : Spec.metric) ->
                  let qa, qb, won, v = verdict m ra rb in
                  if v = "regressed" || v = "changed" || v = "missing" then incr bad;
                  Printf.printf "%-15s %-32s %-36s %-36s %4.0f%%  %s\n" w m.name (fmt_q qa)
                    (fmt_q qb) (100. *. won) v)
                metrics;
              let share rs =
                let att = List.fold_left (fun s r -> s + r.attempted) 0 rs
                and fl = List.fold_left (fun s r -> s + r.failed) 0 rs in
                if att = 0 then 0. else float_of_int fl /. float_of_int att
              in
              let fa = share ra and fb = share rb in
              let v = if fb > fa then "regressed" else "unchanged" in
              if fb > fa then incr bad;
              Printf.printf "%-15s %-32s %-36.6g %-36.6g %5s  %s\n" w "failed_share" fa fb "" v
            end)
          [ (false, spec.end_to_end); (true, spec.per_layer) ])
      spec.workloads;
    if !bad > 0 then 1 else 0
  end
