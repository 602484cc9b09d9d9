(* Experiment harness: regenerates every table and figure of the paper.
   Run with no arguments for the full sequence, or name experiments:

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig6 fig7    # a subset *)

let experiments =
  [
    ("table1", "Table 1 mapping + volume-preservation validation", Experiments.table1);
    ("correctness", "Sec 5.2 mpiP statistics comparison", Experiments.correctness);
    ("replay", "Sec 5.2 ScalaReplay per-event comparison", Experiments.replay_check);
    ("fig6", "Figure 6 timing accuracy across the suite", Experiments.fig6);
    ("fig7", "Figure 7 BT what-if acceleration study", Experiments.fig7);
    ("scaling", "trace/benchmark size scaling claims", Experiments.scaling);
    ("algo", "Algorithms 1/2 cost scaling", Experiments.algo);
    ("deadlock", "Figure 5 deadlock detection", Experiments.deadlock);
    ("extrap", "extension: rank-count extrapolation (paper Sec 6)", Experiments.extrap);
    ("ablation", "ablations: wildcard strategy, window, compute floor", Experiments.ablation);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let wall name f =
    let t0 = Unix.gettimeofday () in
    f ();
    Printf.printf "[%s finished in %.1fs]\n%!" name (Unix.gettimeofday () -. t0)
  in
  match args with
  | [] ->
      print_endline
        "Reproduction harness for 'Automatic Generation of Executable\n\
         Communication Specifications from Parallel Applications'";
      List.iter (fun (name, _, f) -> wall name f) experiments
  | "perf" :: rest -> wall "perf" (Perf.run ~quick:(List.mem "--quick" rest))
  | [ "perf-smoke" ] -> wall "perf-smoke" Perf.smoke
  | [ "list" ] ->
      List.iter (fun (n, d, _) -> Printf.printf "%-12s %s\n" n d) experiments;
      print_endline
        "perf         engine/compressor perf-regression suite -> \
         BENCH_engine.json (add --quick for the smoke-test mode)";
      print_endline
        "perf-smoke   guards on the merge's cost against the traced run, on \
         Lower's speed against the application, on v3 against v2 load time, \
         on the engine's per-event cost at 1024 against 64 ranks, on \
         compression at the default window against window 64, on the \
         words the engine allocates per event, and on the words recording \
         allocates per event (runs under dune runtest)"
  | names ->
      List.iter
        (fun n ->
          match List.find_opt (fun (n', _, _) -> n' = n) experiments with
          | Some (name, _, f) -> wall name f
          | None ->
              Printf.eprintf "unknown experiment %S (try 'list')\n" n;
              exit 1)
        names
