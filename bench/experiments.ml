(* The experiment harness: one function per reproduced table/figure.
   Each prints an aligned ASCII table (plus a dot plot for figures) and
   returns nothing; `main.ml` dispatches. *)

open Util

let fig6_sizes (app : Apps.Registry.app) =
  (* BT/SP need square rank counts; everything else powers of two.  256
     is both, and the paper's largest node count. *)
  match app.name with
  | "bt" | "sp" -> [ 16; 36; 64; 144; 256 ]
  | _ -> [ 16; 32; 64; 128; 256 ]

let cls = Apps.Params.W
let cls_name = Apps.Params.cls_to_string cls

module Pipeline = Benchgen.Pipeline

(* Local shims over the unified pipeline: the harness has no recovery
   story, so any typed pipeline error just aborts the experiment. *)
let gen ?name ?compute_floor_usecs trace =
  match
    Pipeline.run
      { Pipeline.default with name; compute_floor_usecs }
      (Pipeline.From_trace trace)
  with
  | Ok (a, _) -> a.Pipeline.report
  | Error e -> failwith (Pipeline.error_to_string e)

let gen_app ?name ?net ~nranks app =
  match
    Pipeline.run
      { Pipeline.default with name; net }
      (Pipeline.From_app { nranks; app })
  with
  | Ok (a, _) -> (a.Pipeline.report, Option.get a.Pipeline.trace_outcome)
  | Error e -> failwith (Pipeline.error_to_string e)

let generate_for (app : Apps.Registry.app) ~nranks =
  gen_app ~name:app.name ~nranks (app.program ~cls ())

(* ------------------------------------------------------------------ *)
(* Table 1                                                              *)

let table1 () =
  Table.print ~title:"Table 1: mapping of MPI collectives to coNCePTuaL"
    ~header:[ "MPI collective"; "coNCePTuaL implementation" ]
    (List.map (fun (a, b) -> [ a; b ]) Benchgen.Collective_map.table);
  (* validation: one synthetic app per collective; the generated benchmark
     must preserve the per-rank data volume through the substitution *)
  let p = 8 in
  let site = Mpisim.Mpi.site in
  let mk name f : string list =
    let prog (ctx : Mpisim.Mpi.ctx) =
      f ctx;
      Mpisim.Mpi.finalize ~site:(site __POS__) ctx
    in
    let report, _ = gen_app ~name ~nranks:p prog in
    let res = Conceptual.Lower.run ~nranks:p report.program in
    let prof_o = Mpip.create () and prof_g = Mpip.create () in
    ignore (Mpisim.Mpi.run ~hooks:[ Mpip.hook prof_o ] ~nranks:p prog);
    ignore
      (Conceptual.Lower.run ~hooks:[ Mpip.hook prof_g ] ~nranks:p report.program);
    let vol t =
      List.fold_left
        (fun acc (e : Mpip.entry) ->
          match e.op_name with
          | "MPI_Comm_split" | "MPI_Comm_dup" | "MPI_Finalize" -> acc
          | _ -> acc + e.bytes)
        0 (Mpip.entries t)
    in
    ignore res;
    let vo = vol prof_o and vg = vol prof_g in
    [
      name;
      Table.fbytes vo;
      Table.fbytes vg;
      (if vo = 0 && vg = 0 then "+0.0%"
       else
         Table.fpct
           (Stats.pct_error ~reference:(float_of_int vo) ~measured:(float_of_int vg)));
    ]
  in
  let s1 = site __POS__ and s2 = site __POS__ and s3 = site __POS__ in
  let s4 = site __POS__ and s5 = site __POS__ and s6 = site __POS__ in
  let s7 = site __POS__ and s8 = site __POS__ and s9 = site __POS__ in
  let s10 = site __POS__ and s11 = site __POS__ and s12 = site __POS__ in
  let vec = Array.init p (fun i -> 512 * (i + 1)) in
  let rows =
    [
      mk "Barrier" (fun ctx -> Mpisim.Mpi.barrier ~site:s1 ctx);
      mk "Bcast" (fun ctx -> Mpisim.Mpi.bcast ~site:s2 ctx ~root:2 ~bytes:4096);
      mk "Reduce" (fun ctx -> Mpisim.Mpi.reduce ~site:s3 ctx ~root:1 ~bytes:2048);
      mk "Allreduce" (fun ctx -> Mpisim.Mpi.allreduce ~site:s4 ctx ~bytes:1024);
      mk "Gather" (fun ctx -> Mpisim.Mpi.gather ~site:s5 ctx ~root:0 ~bytes_per_rank:512);
      mk "Gatherv" (fun ctx -> Mpisim.Mpi.gatherv ~site:s6 ctx ~root:0 ~bytes_from:vec);
      mk "Allgather" (fun ctx -> Mpisim.Mpi.allgather ~site:s7 ctx ~bytes_per_rank:256);
      mk "Allgatherv" (fun ctx -> Mpisim.Mpi.allgatherv ~site:s8 ctx ~bytes_from:vec);
      mk "Scatter" (fun ctx -> Mpisim.Mpi.scatter ~site:s9 ctx ~root:3 ~bytes_per_rank:512);
      mk "Scatterv" (fun ctx -> Mpisim.Mpi.scatterv ~site:s10 ctx ~root:3 ~bytes_to:vec);
      mk "Alltoall" (fun ctx -> Mpisim.Mpi.alltoall ~site:s11 ctx ~bytes_per_pair:128);
      mk "Reduce_scatter" (fun ctx ->
          Mpisim.Mpi.reduce_scatter ~site:s12 ctx ~bytes_per_rank:vec);
    ]
  in
  Table.print
    ~title:
      "Table 1 validation: per-rank data volume, original MPI collective vs \
       generated coNCePTuaL (8 ranks)"
    ~header:[ "collective"; "original volume"; "generated volume"; "error" ]
    rows

(* ------------------------------------------------------------------ *)
(* Section 5.2: communication correctness (mpiP statistics)             *)

(* Wait-family and communicator-management calls are never compared: the
   generator legitimately rewrites them (AWAIT COMPLETION, absolute task
   groups).  Collectives are compared after mapping through Table 1. *)
let correctness () =
  let rows =
    List.map
      (fun (app : Apps.Registry.app) ->
        let nranks = Apps.Registry.fit_nranks app ~wanted:16 in
        let report, _ = generate_for app ~nranks in
        let prof_o = Mpip.create () and prof_g = Mpip.create () in
        ignore (Mpisim.Mpi.run ~hooks:[ Mpip.hook prof_o ] ~nranks (app.program ~cls ()));
        ignore
          (Conceptual.Lower.run ~hooks:[ Mpip.hook prof_g ] ~nranks report.program);
        let p2p_ops = [ "MPI_Send"; "MPI_Isend"; "MPI_Recv"; "MPI_Irecv" ] in
        let count t names kind =
          List.fold_left
            (fun acc (e : Mpip.entry) ->
              if List.mem e.op_name names then
                acc + (match kind with `Calls -> e.calls | `Bytes -> e.bytes)
              else acc)
            0 (Mpip.entries t)
        in
        (* sends+isends vs sends+isends, recvs likewise: the generator may
           turn a blocking op into its nonblocking twin but never changes
           direction or volume *)
        let sends = [ "MPI_Send"; "MPI_Isend" ] and recvs = [ "MPI_Recv"; "MPI_Irecv" ] in
        let ok_p2p =
          count prof_o sends `Calls = count prof_g sends `Calls
          && count prof_o recvs `Calls = count prof_g recvs `Calls
          && count prof_o p2p_ops `Bytes = count prof_g p2p_ops `Bytes
        in
        let coll_ops =
          [
            "MPI_Barrier"; "MPI_Bcast"; "MPI_Reduce"; "MPI_Allreduce"; "MPI_Gather";
            "MPI_Gatherv"; "MPI_Allgather"; "MPI_Allgatherv"; "MPI_Scatter";
            "MPI_Scatterv"; "MPI_Alltoall"; "MPI_Alltoallv"; "MPI_Reduce_scatter";
          ]
        in
        let co = count prof_o coll_ops `Calls and cg = count prof_g coll_ops `Calls in
        let vo = count prof_o coll_ops `Bytes and vg = count prof_g coll_ops `Bytes in
        [
          app.name;
          string_of_int nranks;
          (if ok_p2p then "exact" else "MISMATCH");
          Printf.sprintf "%d -> %d" co cg;
          Table.fpct
            (if vo = 0 then 0.
             else Stats.pct_error ~reference:(float_of_int vo) ~measured:(float_of_int vg));
        ])
      Apps.Registry.paper_suite
  in
  Table.print
    ~title:
      (Printf.sprintf
         "Sec 5.2: mpiP comparison, original vs generated benchmark (class %s)"
         cls_name)
    ~header:
      [ "app"; "ranks"; "p2p calls+volume"; "collective calls"; "coll volume err" ]
    rows;
  print_endline
    "  (collective call counts differ only by Table 1 substitutions, e.g.\n\
    \   Allgather -> REDUCE + MULTICAST; volume errors come from the\n\
    \   documented size averaging of the v-collectives)"

(* ------------------------------------------------------------------ *)
(* Section 5.2: per-event semantics via replay                          *)

let replay_check () =
  let rows =
    List.map
      (fun (app : Apps.Registry.app) ->
        let nranks = Apps.Registry.fit_nranks app ~wanted:16 in
        let trace, orig = Scalatrace.Tracer.trace_run ~nranks (app.program ~cls ()) in
        (* replay the original trace *)
        let rep = Replay.run trace in
        (* re-trace the generated benchmark and replay that trace *)
        let report = gen ~name:app.name trace in
        let tracer2 = Scalatrace.Tracer.create ~nranks () in
        ignore
          (Mpisim.Mpi.run
             ~hooks:[ Scalatrace.Tracer.hook tracer2 ]
             ~nranks
             (Conceptual.Lower.compile ~nranks report.program));
        let trace2 = Scalatrace.Tracer.finish tracer2 in
        let rep2 = Replay.run trace2 in
        let e1 = Scalatrace.Trace.event_count trace
        and e2 = Scalatrace.Trace.event_count trace2 in
        [
          app.name;
          string_of_int e1;
          string_of_int e2;
          Table.fsec rep.outcome.elapsed;
          Table.fsec rep2.outcome.elapsed;
          Table.fpct
            (Stats.pct_error ~reference:rep.outcome.elapsed
               ~measured:rep2.outcome.elapsed);
          Table.fpct (Stats.pct_error ~reference:orig.elapsed ~measured:rep.outcome.elapsed);
        ])
      Apps.Registry.paper_suite
  in
  Table.print
    ~title:
      "Sec 5.2: ScalaReplay comparison (replayed original trace vs replayed \
       trace of the generated benchmark)"
    ~header:
      [
        "app"; "orig events"; "gen events"; "replay(orig)"; "replay(gen)";
        "replay err"; "replay vs app";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Figure 6: timing accuracy                                            *)

let fig6 () =
  let all_pairs = ref [] in
  let rows =
    List.concat_map
      (fun (app : Apps.Registry.app) ->
        List.map
          (fun nranks ->
            let report, orig = generate_for app ~nranks in
            let res = Conceptual.Lower.run ~nranks report.program in
            all_pairs := (orig.elapsed, res.outcome.elapsed) :: !all_pairs;
            [
              app.name;
              string_of_int nranks;
              Table.fsec orig.elapsed;
              Table.fsec res.outcome.elapsed;
              Table.fpct
                (Stats.pct_error ~reference:orig.elapsed ~measured:res.outcome.elapsed);
              (if report.aligned then "align" else "-");
              (if report.resolved then "wildcard" else "-");
              string_of_int report.statements;
            ])
          (fig6_sizes app))
      Apps.Registry.paper_suite
  in
  Table.print
    ~title:
      (Printf.sprintf
         "Figure 6: total execution time, original application vs generated \
          benchmark (class %s, Blue Gene/L model)"
         cls_name)
    ~header:
      [ "app"; "nodes"; "T_app"; "T_conceptual"; "error"; "alg.1"; "alg.2"; "stmts" ]
    rows;
  Printf.printf "\n  mean absolute percentage error: %.1f%%  (paper: 2.9%%)\n"
    (Stats.mape !all_pairs)

(* ------------------------------------------------------------------ *)
(* Figure 7: what-if acceleration study                                 *)

let fig7 () =
  let app = Option.get (Apps.Registry.find "bt") in
  let nranks = 64 in
  let net = Mpisim.Netmodel.ethernet_cluster in
  let report, _ =
    gen_app ~name:"bt" ~net ~nranks (app.program ~cls:Apps.Params.C ())
  in
  (* ARC-like calibration: the cluster's CPUs are much faster than Blue
     Gene/L's, so the baseline compute is scaled until communication is
     ~70% of the run, the Amdahl fraction implied by the paper's "3.3x
     compute speedup -> 21% total reduction". *)
  let baseline = Conceptual.Edit.scale_compute 0.00028 report.program in
  let points = [ 100; 90; 80; 70; 60; 50; 40; 30; 20; 10; 0 ] in
  let results =
    List.map
      (fun pct ->
        let p = Conceptual.Edit.scale_compute (float_of_int pct /. 100.) baseline in
        let res = Conceptual.Lower.run ~net ~nranks p in
        (pct, res.outcome))
      points
  in
  let t100 = (List.assoc 100 results).elapsed in
  let t30 = (List.assoc 30 results).elapsed in
  Table.print
    ~title:
      "Figure 7: BT what-if study, 64 tasks, Ethernet model (compute scaled \
       100% .. 0%)"
    ~header:[ "compute"; "total time"; "vs 100%"; "flow stalls"; "unexpected" ]
    (List.map
       (fun (pct, (o : Mpisim.Engine.outcome)) ->
         [
           Printf.sprintf "%d%%" pct;
           Table.fsec o.elapsed;
           Table.fpct (Stats.pct_error ~reference:t100 ~measured:o.elapsed);
           string_of_int o.flow_stalls;
           string_of_int o.unexpected;
         ])
       results);
  print_endline
    (Table.series_plot ~title:"Figure 7 (series)" ~x_label:"% of original compute"
       ~y_label:"total time (s)"
       (List.map (fun (p, (o : Mpisim.Engine.outcome)) -> (float_of_int p, o.elapsed)) results));
  Printf.printf
    "\n\
    \  3.3x compute speedup (100%% -> 30%%) cuts total time by %.0f%%  (paper: 21%%)\n\
    \  below ~20%% the curve flattens: accelerating computation further buys\n\
    \  almost nothing (paper additionally observed a terminal *increase*,\n\
    \  driven by OS/network noise amplification that this deterministic\n\
    \  simulator excludes by design; see EXPERIMENTS.md)\n"
    (100. *. (t100 -. t30) /. t100)

(* ------------------------------------------------------------------ *)
(* Trace/benchmark size scaling (Section 2 claims)                      *)

let scaling () =
  let ring iters (ctx : Mpisim.Mpi.ctx) =
    let s1 = Mpisim.Mpi.site __POS__ and s2 = Mpisim.Mpi.site __POS__ in
    let s3 = Mpisim.Mpi.site __POS__ in
    let n = ctx.nranks in
    for _ = 1 to iters do
      let r =
        Mpisim.Mpi.irecv ~site:s1 ctx
          ~src:(Mpisim.Call.Rank ((ctx.rank + n - 1) mod n))
          ~bytes:1024
      in
      let s = Mpisim.Mpi.isend ~site:s2 ctx ~dst:((ctx.rank + 1) mod n) ~bytes:1024 in
      ignore (Mpisim.Mpi.waitall ~site:s3 ctx [ r; s ]);
      Mpisim.Mpi.compute ctx 1e-6
    done;
    Mpisim.Mpi.finalize ~site:(Mpisim.Mpi.site __POS__) ctx
  in
  let file_bytes trace = String.length (Scalatrace.Trace_io.to_string trace) in
  let row label trace =
    let report = gen ~name:"ring" trace in
    [
      label;
      string_of_int (Scalatrace.Trace.event_count trace);
      string_of_int (Scalatrace.Trace.rsd_count trace);
      Table.fbytes (file_bytes trace);
      string_of_int report.statements;
    ]
  in
  let header first =
    [ first; "MPI events"; "RSDs"; "file (v3)"; "generated stmts" ]
  in
  Table.print
    ~title:"Trace and benchmark size vs rank count (ring, 1000 iterations)"
    ~header:(header "ranks")
    (List.map
       (fun p ->
         row (string_of_int p) (fst (Scalatrace.Tracer.trace_run ~nranks:p (ring 1000))))
       [ 4; 8; 16; 32; 64; 128 ]);
  Table.print
    ~title:"Trace and benchmark size vs communication events (ring, 16 ranks)"
    ~header:(header "iterations")
    (List.map
       (fun iters ->
         row (string_of_int iters)
           (fst (Scalatrace.Tracer.trace_run ~nranks:16 (ring iters))))
       [ 10; 100; 1000; 10000 ]);
  (* The saved file in each format: v2 stores one projection per rank,
     v3 (what [Trace_io.save] writes) the merged trace, v1 its text.  The
     aligned RSDs are what code generation starts from when a collective
     needs aligning (CG), otherwise the raw count. *)
  Table.print ~title:"Saved trace bytes vs rank count (class C)"
    ~header:
      [ "app"; "ranks"; "RSDs"; "aligned RSDs"; "v2 bytes"; "v3 bytes"; "v1 bytes"; "v3 / v1" ]
    (List.concat_map
       (fun name ->
         let app = Option.get (Apps.Registry.find name) in
         List.map
           (fun wanted ->
             let nranks = Apps.Registry.fit_nranks app ~wanted in
             let trace, _ =
               Scalatrace.Tracer.trace_run ~nranks (app.program ~cls:Apps.Params.C ())
             in
             let v1 = String.length (Scalatrace.Trace_io.to_text trace)
             and v3 = file_bytes trace in
             let aligned, _ = Benchgen.Align.align_if_needed trace in
             [
               name;
               string_of_int nranks;
               string_of_int (Scalatrace.Trace.rsd_count trace);
               string_of_int (Scalatrace.Trace.rsd_count aligned);
               Table.fbytes (String.length (Scalatrace.Trace_io.to_framed trace));
               Table.fbytes v3;
               Table.fbytes v1;
               Printf.sprintf "%.2f" (float_of_int v3 /. float_of_int v1);
             ])
           [ 64; 256; 1024 ])
       [ "bt"; "ep"; "cg"; "mg" ])

(* ------------------------------------------------------------------ *)
(* Algorithm cost scaling (Sections 4.3/4.4 complexity claims)          *)

let algo () =
  let rows =
    List.map
      (fun p ->
        let sweep = Option.get (Apps.Registry.find "sweep3d") in
        let lu = Option.get (Apps.Registry.find "lu") in
        let t_sweep, _ = Scalatrace.Tracer.trace_run ~nranks:p (sweep.program ~cls ()) in
        let t_lu, _ = Scalatrace.Tracer.trace_run ~nranks:p (lu.program ~cls ()) in
        let time f =
          let t0 = Unix.gettimeofday () in
          let r = f () in
          (r, Unix.gettimeofday () -. t0)
        in
        let (_, pre1) = time (fun () -> Scalatrace.Trace.has_unaligned_collectives t_sweep) in
        let (_, t_align) = time (fun () -> Benchgen.Align.run t_sweep) in
        let (_, pre2) = time (fun () -> Scalatrace.Trace.has_wildcards t_lu) in
        let (_, t_wild) = time (fun () -> Benchgen.Wildcard.run t_lu) in
        [
          string_of_int p;
          string_of_int (Scalatrace.Trace.event_count t_sweep);
          Table.fsec pre1;
          Table.fsec t_align;
          string_of_int (Scalatrace.Trace.event_count t_lu);
          Table.fsec pre2;
          Table.fsec t_wild;
        ])
      [ 8; 16; 32; 64 ]
  in
  Table.print
    ~title:
      "Algorithm costs: O(r) pre-checks vs O(p*e) passes (align on Sweep3D, \
       wildcard on LU)"
    ~header:
      [
        "ranks"; "sweep3d events"; "align pre-check"; "align pass"; "lu events";
        "wildcard pre-check"; "wildcard pass";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Figure 5: deadlock detection                                         *)

let deadlock () =
  let f1 = Mpisim.Mpi.site __POS__ and f2 = Mpisim.Mpi.site __POS__ in
  let f3 = Mpisim.Mpi.site __POS__ and f4 = Mpisim.Mpi.site __POS__ in
  let fig5 (ctx : Mpisim.Mpi.ctx) =
    (* rank 0 delays its send so the traced execution completes (the
       wildcard matches rank 2 first); Algorithm 2's traversal order then
       exposes the latent deadlock of Figure 5 *)
    if ctx.rank = 0 then Mpisim.Mpi.compute ctx 1e-3;
    (if ctx.rank = 1 then begin
       ignore (Mpisim.Mpi.recv ~site:f1 ctx ~src:Mpisim.Call.Any_source ~bytes:8);
       ignore (Mpisim.Mpi.recv ~site:f2 ctx ~src:(Mpisim.Call.Rank 0) ~bytes:8)
     end
     else if ctx.rank = 0 || ctx.rank = 2 then
       Mpisim.Mpi.send ~site:f3 ctx ~dst:1 ~bytes:8);
    Mpisim.Mpi.finalize ~site:f4 ctx
  in
  let trace, outcome = Scalatrace.Tracer.trace_run ~nranks:3 fig5 in
  Printf.printf
    "\n== Figure 5: deadlock detection ==\noriginal execution completed in %s \
     (wildcard matched the deterministic first arrival)\n"
    (Table.fsec outcome.elapsed);
  (try
     let _ = Benchgen.Wildcard.run ~strategy:`Traversal trace in
     print_endline "UNEXPECTED: no deadlock detected"
   with Benchgen.Wildcard.Potential_deadlock msg ->
     Printf.printf "Algorithm 2 reports: %s\n" msg);
  print_endline
    "  (the generator refuses to emit a benchmark that could hang, exactly\n\
    \   the Section 4.4 behaviour)"

(* ------------------------------------------------------------------ *)
(* Extension: ScalaExtrap-style rank-count extrapolation (paper Sec 6)  *)

let extrap () =
  let base_sizes = [ 4; 8; 16 ] in
  let targets = [ 32; 64; 128 ] in
  let codes =
    [ ("ep", (Option.get (Apps.Registry.find "ep")).program ~cls:Apps.Params.S ());
      ("ft", (Option.get (Apps.Registry.find "ft")).program ~cls:Apps.Params.S ());
      ("is", (Option.get (Apps.Registry.find "is")).program ~cls:Apps.Params.S ());
    ]
  in
  let rows =
    List.concat_map
      (fun (name, prog) ->
        let inputs =
          List.map (fun p -> fst (Scalatrace.Tracer.trace_run ~nranks:p prog)) base_sizes
        in
        List.filter_map
          (fun target ->
            match Benchgen.Extrap.extrapolate inputs ~target with
            | exception Benchgen.Extrap.Extrap_error msg ->
                Some [ name; string_of_int target; "-"; "-"; "not extrapolable: " ^ msg ]
            | ex ->
                let report = gen ~name ex in
                let predicted =
                  (Conceptual.Lower.run ~nranks:target report.program).outcome.elapsed
                in
                let _, actual = Scalatrace.Tracer.trace_run ~nranks:target prog in
                Some
                  [
                    name;
                    string_of_int target;
                    Table.fsec actual.elapsed;
                    Table.fsec predicted;
                    Table.fpct
                      (Stats.pct_error ~reference:actual.elapsed ~measured:predicted);
                  ])
          targets)
      codes
  in
  Table.print
    ~title:
      "Extension (paper Sec 6): benchmarks extrapolated from traces at \
       {4,8,16} ranks, vs actually running the application"
    ~header:[ "app"; "target ranks"; "T_app (actual)"; "T_extrapolated"; "error" ]
    rows;
  (* a structurally varying code is refused, not mis-extrapolated *)
  let cg = Option.get (Apps.Registry.find "cg") in
  let inputs =
    List.map
      (fun p -> fst (Scalatrace.Tracer.trace_run ~nranks:p (cg.program ~cls:Apps.Params.S ())))
      [ 4; 16 ]
  in
  (match Benchgen.Extrap.extrapolate inputs ~target:64 with
  | exception Benchgen.Extrap.Extrap_error msg ->
      Printf.printf "\n  cg correctly refused: %s\n" msg
  | _ -> print_endline "\n  UNEXPECTED: cg extrapolated despite varying structure")

(* ------------------------------------------------------------------ *)
(* Ablations of the generator's design choices                          *)

let ablation () =
  (* 1. wildcard resolution strategy: paper's untimed Algorithm 2, the
     timed (replay-based) variant, and the default certified traversal,
     on LU *)
  let lu = Option.get (Apps.Registry.find "lu") in
  let trace, orig = Scalatrace.Tracer.trace_run ~nranks:16 (lu.program ~cls ()) in
  let strategies =
    [
      ("traversal (Alg.2)", `Traversal);
      ("timed (replay)", `Timed);
      ("auto (certified)", `Auto);
    ]
  in
  let rows =
    List.map
      (fun (name, strategy) ->
        let t0 = Unix.gettimeofday () in
        match Benchgen.Wildcard.run ~strategy trace with
        | exception Benchgen.Wildcard.Potential_deadlock _ ->
            [ name; "-"; "-"; "reported potential deadlock" ]
        | resolved -> (
            let cost = Unix.gettimeofday () -. t0 in
            let report = gen ~name:"lu" resolved in
            match Conceptual.Lower.run ~nranks:16 report.program with
            | exception Mpisim.Engine.Deadlock _ ->
                [ name; Table.fsec cost; "-"; "generated benchmark hangs" ]
            | res ->
                [
                  name;
                  Table.fsec cost;
                  Table.fsec res.outcome.elapsed;
                  Table.fpct
                    (Stats.pct_error ~reference:orig.elapsed
                       ~measured:res.outcome.elapsed);
                ]))
      strategies
  in
  Table.print
    ~title:"Ablation: wildcard resolution strategy (LU, 16 ranks)"
    ~header:[ "strategy"; "resolution cost"; "generated time"; "vs original" ]
    rows;
  (* 2. compression window: trace size vs window for a long-bodied loop *)
  let body_len = 24 in
  let prog (ctx : Mpisim.Mpi.ctx) =
    let sites =
      Array.init body_len (fun i -> Util.Callsite.synthetic (Printf.sprintf "s%d" i))
    in
    for _ = 1 to 50 do
      Array.iter
        (fun site ->
          Mpisim.Mpi.allreduce ~site ctx ~bytes:8)
        sites
    done;
    Mpisim.Mpi.finalize ~site:(Util.Callsite.synthetic "fin") ctx
  in
  (* rank 0's recorded stream, compressed at each window: the inter-rank
     merge re-compresses with the default window and would mask it *)
  let stream = (Scalatrace.Tracer.streams ~nranks:4 prog).(0) in
  let rows =
    List.map
      (fun window ->
        let c = Scalatrace.Compress.create ~window ~nranks:4 () in
        List.iter (fun e -> Scalatrace.Compress.push c (Scalatrace.Event.copy e)) stream;
        let local = Scalatrace.Compress.contents c in
        [
          string_of_int window;
          string_of_int (Scalatrace.Tnode.rsd_count local);
          string_of_int (Scalatrace.Tnode.event_count local);
        ])
      [ 4; 8; 16; 23; 24; 64 ]
  in
  Table.print
    ~title:
      (Printf.sprintf
         "Ablation: compression window vs per-rank trace size (loop body of %d \
          distinct call sites; the window must reach the body length before \
          the loop folds)"
         body_len)
    ~header:[ "window"; "rank-0 RSDs"; "rank-0 events" ]
    rows;
  (* 3. compute floor: statement count vs the floor that drops tiny gaps *)
  let mg = Option.get (Apps.Registry.find "mg") in
  let trace_mg, _ = Scalatrace.Tracer.trace_run ~nranks:8 (mg.program ~cls ()) in
  let rows =
    List.map
      (fun floor ->
        let report = gen ~compute_floor_usecs:floor trace_mg in
        let res = Conceptual.Lower.run ~nranks:8 report.program in
        [
          Printf.sprintf "%g us" floor;
          string_of_int report.statements;
          Table.fsec res.outcome.elapsed;
        ])
      [ 0.0; 0.05; 1000.0; 20000.0; 1e6 ]
  in
  Table.print
    ~title:"Ablation: COMPUTE floor vs generated size and fidelity (MG, 8 ranks)"
    ~header:[ "floor"; "statements"; "generated time" ]
    rows
