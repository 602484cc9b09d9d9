(* The repository benchmark.

     main.exe run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                  [--smoke] [--out DIR]
     main.exe compare RUNS_A RUNS_B

   [run] with a workload measures it in this process: end-to-end metrics
   with tracing off, or per-layer metrics from a traced run with
   [--trace 1].  It checks every output, prints every metric with its
   unit, writes DIR/<workload>.json (and, traced, DIR/<workload>.layers.json
   plus the Chrome trace DIR/<workload>.trace.json), and ends its standard
   output with one JSON line: correct, attempted, failed, metrics.  It
   exits non-zero on any check violation.  Without a workload it runs each
   one in its own child process, so peak memory is per workload.  See
   README.md. *)

open Cmdliner

let spec = Spec.get ()

(* benchgen's CLI, built next to this executable: <root>/bin/. *)
let cli_path () =
  let root = Filename.dirname (Filename.dirname Sys.executable_name) in
  Filename.concat root (Filename.concat "bin" "benchgen_cli.exe")

let result_path ~out ~workload ~trace =
  Filename.concat out (workload ^ if trace then ".layers.json" else ".json")

(* All digits, so that no two measured times print alike by rounding. *)
let number v = Printf.sprintf "%.17g" v

let metrics_json metrics =
  "{"
  ^ String.concat ","
      (List.map
         (fun ((m : Spec.metric), v) ->
           Printf.sprintf {|%s:{"value":%s,"unit":%s}|}
             (Obs.Json.to_string (Obs.Json.Str m.name))
             (number v)
             (Obs.Json.to_string (Obs.Json.Str m.unit_)))
         metrics)
  ^ "}"

exception Timeout

let run_workload ~workload ~seed ~seconds ~trace ~smoke ~out =
  if not (List.mem workload spec.workloads) then begin
    Printf.eprintf "benchmark: unknown workload %S (expected one of: %s)\n" workload
      (String.concat ", " spec.workloads);
    exit 2
  end;
  (* a wedged run must end itself, stopping the processes it started; a
     dead server must surface as EPIPE, not kill this process *)
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Timeout));
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  ignore (Unix.alarm (120 + (2 * int_of_float seconds)));
  let cli = cli_path () in
  if workload = "serve-mix" && not (Sys.file_exists cli) then
    failwith ("benchgen executable not found at " ^ cli);
  Harness.mkdir_p out;
  let prof = if trace then Some (Prof.create ()) else None in
  let ctx = { Harness.seed; seconds; smoke; prof; out; cli } in
  let tally = Harness.tally () in
  let passes, end_to_end, per_layer =
    if workload = "serve-mix" then Serve_mix.run ctx tally else Batch.run ctx workload tally
  in
  let wanted, values =
    if trace then (spec.per_layer, per_layer) else (spec.end_to_end, end_to_end)
  in
  let metrics =
    List.map
      (fun (m : Spec.metric) ->
        match List.assoc_opt m.name values with
        | Some v when Float.is_finite v -> (m, v)
        | Some _ ->
            Harness.violation tally "metric %s is not a finite number" m.name;
            (m, 0.)
        | None -> failwith ("no value computed for metric " ^ m.name))
      wanted
  in
  Option.iter
    (fun p ->
      let chrome = Prof.chrome_json p in
      match Obs.Exporter.validate_chrome chrome with
      | Ok () ->
          Harness.write_file
            (Filename.concat out (workload ^ ".trace.json"))
            (Obs.Json.to_string chrome)
      | Error msg -> Harness.violation tally "Chrome trace rejected: %s" msg)
    prof;
  List.iter (fun e -> prerr_endline ("benchmark: check failed: " ^ e)) (List.rev tally.errors);
  let correct = tally.errors = [] in
  Printf.printf "%s (seed %d, %s, %d passes): %d operations, %d failed\n" workload seed
    (if trace then "traced" else "untraced")
    passes tally.attempted tally.failed;
  List.iter
    (fun ((m : Spec.metric), v) -> Printf.printf "  %-34s %16.6f %s\n" m.name v m.unit_)
    metrics;
  let summary =
    Printf.sprintf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":%s}|} correct
      tally.attempted tally.failed (metrics_json metrics)
  in
  Harness.write_file
    (result_path ~out ~workload ~trace)
    (Printf.sprintf
       {|{"workload":%s,"seed":%d,"trace":%d,"seconds":%s,"passes":%d,"correct":%b,"attempted":%d,"failed":%d,"metrics":%s,"errors":%s}|}
       (Obs.Json.to_string (Obs.Json.Str workload))
       seed
       (if trace then 1 else 0)
       (number seconds) passes correct tally.attempted tally.failed (metrics_json metrics)
       (Obs.Json.to_string (Obs.Json.Arr (List.rev_map (fun e -> Obs.Json.Str e) tally.errors)))
    ^ "\n");
  print_endline summary;
  if correct then 0 else 1

(* The smoke run's re-parse of what each child wrote. *)
let check_outputs ~out ~workload ~trace =
  let path = result_path ~out ~workload ~trace in
  let j = Obs.Json.parse (In_channel.with_open_bin path In_channel.input_all) in
  let wanted = if trace then spec.per_layer else spec.end_to_end in
  (match Obs.Json.member "metrics" j with
  | Some m ->
      List.iter
        (fun (w : Spec.metric) ->
          if Obs.Json.member w.name m = None then failwith (path ^ ": no metric " ^ w.name))
        wanted
  | None -> failwith (path ^ ": no metrics"));
  if trace then
    let t = Filename.concat out (workload ^ ".trace.json") in
    match Obs.Exporter.validate_chrome_string (In_channel.with_open_bin t In_channel.input_all) with
    | Ok () -> ()
    | Error msg -> failwith (t ^ ": " ^ msg)

let run_all ~seed ~seconds ~trace ~smoke ~out =
  let traces = if smoke then [ false; true ] else [ trace ] in
  let status =
    List.fold_left
      (fun status (workload, trace) ->
        let args =
          [
            Sys.executable_name; "run"; "--workload"; workload; "--seed"; string_of_int seed;
            "--seconds"; number seconds; "--trace"; (if trace then "1" else "0"); "--out"; out;
          ]
          @ if smoke then [ "--smoke" ] else []
        in
        let pid =
          Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout
            Unix.stderr
        in
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 ->
            if smoke then check_outputs ~out ~workload ~trace;
            status
        | _, Unix.WEXITED n ->
            Printf.eprintf "benchmark: %s exited with %d\n%!" workload n;
            max status n
        | _ ->
            Printf.eprintf "benchmark: %s was killed\n%!" workload;
            max status 2)
      0
      (List.concat_map (fun w -> List.map (fun t -> (w, t)) traces) spec.workloads)
  in
  status

let run_cmd =
  let workload =
    Arg.(
      value
      & opt (some string) None
      & info [ "workload" ] ~docv:"NAME"
          ~doc:"Workload to measure in this process; all of them, one child process each, if absent.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:"Seed the inputs are made from. 1 is the default, 2 is held out for checking claims.")
  in
  let seconds =
    Arg.(
      value
      & opt (some float) None
      & info [ "seconds" ] ~docv:"S"
          ~doc:"How long the passes measure (default: run_seconds of BENCHMARK.json).")
  in
  let trace =
    Arg.(
      value
      & opt (enum [ ("0", false); ("1", true) ]) false
      & info [ "trace" ] ~docv:"0|1"
          ~doc:"1: the traced run, reporting the per-layer metrics instead of the end-to-end ones.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Toy sizes (16 ranks, 20 serve jobs), one pass, untraced and traced; times assert nothing.")
  in
  let out =
    Arg.(
      value & opt string "benchmark/out"
      & info [ "out" ] ~docv:"DIR" ~doc:"Directory for fixtures, logs and results.")
  in
  let go workload seed seconds trace smoke out =
    let seconds =
      if smoke then 0. else Option.value ~default:(float_of_int spec.run_seconds) seconds
    in
    match workload with
    | None -> run_all ~seed ~seconds ~trace ~smoke ~out
    | Some workload -> (
        try run_workload ~workload ~seed ~seconds ~trace ~smoke ~out with
        | Timeout ->
            prerr_endline "benchmark: run exceeded its time limit";
            3
        | Failure msg | Sys_error msg ->
            prerr_endline ("benchmark: " ^ msg);
            3)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Measure the workloads and check their outputs.")
    Term.(const go $ workload $ seed $ seconds $ trace $ smoke $ out)

let compare_cmd =
  let set i name =
    Arg.(required & pos i (some file) None & info [] ~docv:name ~doc:"A run set: result files, or a directory of them.")
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Judge run set B against run set A with the bounds of BENCHMARK.json.")
    Term.(const Compare.run $ set 0 "RUNS_A" $ set 1 "RUNS_B")

let () =
  exit (Cmd.eval' (Cmd.group (Cmd.info "main" ~doc:"the repository benchmark") [ run_cmd; compare_cmd ]))
