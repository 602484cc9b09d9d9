(* Perf-regression harness for the engine hot paths.

   Two parts, both wall-clock timed:

   - an engine microbenchmark that floods one receiver's matching queues
     (unexpected queue drained out of arrival order, then a deep pre-posted
     receive queue), run once with the [`Reference] list matcher and once
     with the [`Indexed] hash matcher — the speedup column is the point of
     the exercise;
   - the end-to-end pipeline (trace -> align -> wildcard -> generate) over
     the NPB suite at several rank counts, with per-stage times and a
     traced-events-per-second figure.

   Results go to BENCH_engine.json in the working directory.  [--quick]
   shrinks every dimension and then re-parses the emitted JSON — that mode
   runs under [dune runtest] as a bitrot smoke test, so it must stay fast
   and must not assert anything about timings. *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Engine microbenchmark                                               *)

(* Generous buffers: the point is queue search cost, not flow control. *)
let micro_net =
  { Mpisim.Netmodel.bluegene_l with unexpected_buffer_bytes = max_int / 2 }

(* Phase 1: every sender floods rank 0 while it computes, so all messages
   land in the unexpected queue; rank 0 then drains newest-senders-first,
   the worst case for a list scan.  Phase 2: rank 0 pre-posts every
   receive, senders fire only after a delay, so each arrival searches a
   deep posted queue. *)
let matching_stress ~msgs_per_rank (ctx : Mpisim.Mpi.ctx) =
  let module Mpi = Mpisim.Mpi in
  let n = ctx.nranks and k = msgs_per_rank in
  if ctx.rank = 0 then begin
    Mpi.compute ctx 1.0;
    for r = n - 1 downto 1 do
      for i = k - 1 downto 0 do
        ignore
          (Mpi.recv ctx ~src:(Mpisim.Call.Rank r) ~tag:(Mpisim.Call.Tag (1000 + i))
             ~bytes:32)
      done
    done;
    let reqs = ref [] in
    for r = 1 to n - 1 do
      for i = 0 to k - 1 do
        reqs :=
          Mpi.irecv ctx ~src:(Mpisim.Call.Rank r) ~tag:(Mpisim.Call.Tag (2000 + i))
            ~bytes:32
          :: !reqs
      done
    done;
    ignore (Mpi.waitall ctx (List.rev !reqs));
    Mpi.finalize ctx
  end
  else begin
    for i = 0 to k - 1 do
      Mpi.send ctx ~dst:0 ~tag:(1000 + i) ~bytes:32
    done;
    (* later ranks go first, so arrivals match late posts *)
    Mpi.compute ctx (2.0 +. (float_of_int (n - ctx.rank) *. 1e-4));
    for i = 0 to k - 1 do
      Mpi.send ctx ~dst:0 ~tag:(2000 + i) ~bytes:32
    done;
    Mpi.finalize ctx
  end

type micro_run = { wall_s : float; events : int; events_per_s : float }

let run_micro ~matcher ~nranks ~msgs_per_rank =
  let outcome, dt =
    wall (fun () ->
        Mpisim.Mpi.run ~net:micro_net ~matcher ~nranks
          (matching_stress ~msgs_per_rank))
  in
  { wall_s = dt; events = outcome.Mpisim.Engine.events;
    events_per_s = float_of_int outcome.Mpisim.Engine.events /. Float.max dt 1e-9 }

(* ------------------------------------------------------------------ *)
(* Merge stress: reference vs indexed inter-rank merge                 *)

(* The high-RSD regime that made MG fall off a cliff, distilled: trace
   the [hirsd] stress app once, then run {!Scalatrace.Merge} over the
   same per-rank traces with both implementations.  The merged traces
   must be byte-identical — the index is a pure lookup structure. *)

type merge_run = {
  g_nranks : int;
  g_rsds : int;
  g_events : int;
  reference_s : float;
  indexed_s : float;
}

let run_merge_stress ~nranks ~cls =
  let app =
    match Apps.Registry.find "hirsd" with
    | Some a -> a
    | None -> failwith "hirsd app missing from registry"
  in
  let t = Scalatrace.Tracer.create ~nranks () in
  ignore
    (Mpisim.Mpi.run ~hooks:[ Scalatrace.Tracer.hook t ] ~nranks
       (app.program ~cls ()));
  let reference, reference_s =
    wall (fun () -> Scalatrace.Tracer.finish ~merge_impl:`Reference t)
  in
  let indexed, indexed_s =
    wall (fun () -> Scalatrace.Tracer.finish ~merge_impl:`Indexed t)
  in
  if Scalatrace.Trace.to_text reference <> Scalatrace.Trace.to_text indexed
  then failwith "merge implementations disagree on the merged trace";
  {
    g_nranks = nranks;
    g_rsds = Scalatrace.Trace.rsd_count indexed;
    g_events = Scalatrace.Trace.event_count indexed;
    reference_s;
    indexed_s;
  }

let merge_json m =
  Obs.Json.Obj
    [
      ("nranks", Obs.Json.Num (float_of_int m.g_nranks));
      ("rsds", Obs.Json.Num (float_of_int m.g_rsds));
      ("events", Obs.Json.Num (float_of_int m.g_events));
      ("reference_s", Obs.Json.Num m.reference_s);
      ("indexed_s", Obs.Json.Num m.indexed_s);
      ("speedup", Obs.Json.Num (m.reference_s /. Float.max m.indexed_s 1e-9));
    ]

(* ------------------------------------------------------------------ *)
(* Collective-algorithm microbenchmark                                  *)

(* One allreduce per iteration under each schedule strategy, at the
   suite's rank counts and a latency-bound/bandwidth-bound payload pair.
   The virtual column is the model's verdict (deterministic — the number
   selection tuning cares about); the wall column is the expansion
   overhead of the schedule path itself. *)

type collalg_run = {
  c_alg : string;
  c_nranks : int;
  c_bytes : int;
  c_virtual_s : float;  (** simulated seconds per allreduce *)
  c_wall_s : float;  (** host seconds for the whole run *)
}

let run_collalg ~coll_alg ~nranks ~bytes ~iters =
  let program (ctx : Mpisim.Mpi.ctx) =
    for _ = 1 to iters do
      Mpisim.Mpi.allreduce ctx ~bytes
    done;
    Mpisim.Mpi.finalize ctx
  in
  let outcome, dt =
    wall (fun () -> Mpisim.Mpi.run ~net:micro_net ~coll_alg ~nranks program)
  in
  {
    c_alg = Mpisim.Coll_alg.name coll_alg;
    c_nranks = nranks;
    c_bytes = bytes;
    c_virtual_s = outcome.Mpisim.Engine.elapsed /. float_of_int iters;
    c_wall_s = dt;
  }

let run_collalg_suite ~rank_counts ~iters =
  List.concat_map
    (fun nranks ->
      List.concat_map
        (fun bytes ->
          List.map
            (fun coll_alg ->
              let r = run_collalg ~coll_alg ~nranks ~bytes ~iters in
              Printf.printf
                "  %-19s p=%-5d %7dB  %.2f us/allreduce  (%.3fs wall)\n%!"
                r.c_alg r.c_nranks r.c_bytes (r.c_virtual_s *. 1e6) r.c_wall_s;
              r)
            Mpisim.Coll_alg.all)
        [ 64; 65536 ])
    rank_counts

let collalg_json c =
  Obs.Json.Obj
    [
      ("alg", Obs.Json.Str c.c_alg);
      ("nranks", Obs.Json.Num (float_of_int c.c_nranks));
      ("bytes", Obs.Json.Num (float_of_int c.c_bytes));
      ("virtual_s", Obs.Json.Num c.c_virtual_s);
      ("wall_s", Obs.Json.Num c.c_wall_s);
    ]

(* ------------------------------------------------------------------ *)
(* Neighborhood-collective microbenchmark                               *)

(* A sparse stencil exchange (power-of-two offsets) timed under both
   schedule expansions: the message-combining isomorphic form (one round
   per offset) and the naive single-round per-link expansion.  The two
   move identical bytes — checked here — so the virtual columns isolate
   what the round structure costs, and the wall columns what the
   expansion itself costs at scale. *)

type neighbor_run = {
  n_nranks : int;
  n_degree : int;
  n_bytes : int;
  n_combined_virtual_s : float;
  n_naive_virtual_s : float;
  n_combined_wall_s : float;
  n_naive_wall_s : float;
}

let run_neighbor ~nranks ~degree ~bytes =
  let offsets = List.init degree (fun i -> 1 lsl i) in
  let per_rank = Array.make nranks (Array.of_list offsets, bytes) in
  let net = Mpisim.Netmodel.bluegene_l in
  let start () = Array.make nranks 0. in
  let combined, combined_wall_s =
    wall (fun () ->
        Mpisim.Coll_alg.timings net
          (Mpisim.Coll_alg.neighbor_combined ~p:nranks ~offsets ~bytes)
          ~start:(start ()))
  in
  let naive, naive_wall_s =
    wall (fun () ->
        Mpisim.Coll_alg.timings net
          (Mpisim.Coll_alg.neighbor_naive ~per_rank)
          ~start:(start ()))
  in
  let sent sched = Mpisim.Coll_alg.bytes_sent_per_rank ~p:nranks sched in
  let total a = Array.fold_left ( + ) 0 a in
  let cb = total (sent (Mpisim.Coll_alg.neighbor_combined ~p:nranks ~offsets ~bytes)) in
  let nb = total (sent (Mpisim.Coll_alg.neighbor_naive ~per_rank)) in
  if cb <> nb then
    failwith
      (Printf.sprintf
         "neighbor schedules disagree on bytes moved: combined=%d naive=%d" cb
         nb);
  let vmax a = Array.fold_left Float.max 0. a in
  {
    n_nranks = nranks;
    n_degree = degree;
    n_bytes = bytes;
    n_combined_virtual_s = vmax combined;
    n_naive_virtual_s = vmax naive;
    n_combined_wall_s = combined_wall_s;
    n_naive_wall_s = naive_wall_s;
  }

let run_neighbor_suite ~rank_counts =
  List.concat_map
    (fun nranks ->
      List.map
        (fun (degree, bytes) ->
          let r = run_neighbor ~nranks ~degree ~bytes in
          Printf.printf
            "  p=%-5d deg=%d %7dB  combined %.2f us  naive %.2f us  (wall \
             %.4fs / %.4fs)\n%!"
            r.n_nranks r.n_degree r.n_bytes
            (r.n_combined_virtual_s *. 1e6)
            (r.n_naive_virtual_s *. 1e6)
            r.n_combined_wall_s r.n_naive_wall_s;
          r)
        [ (2, 512); (4, 65536) ])
    rank_counts

let neighbor_json r =
  Obs.Json.Obj
    [
      ("nranks", Obs.Json.Num (float_of_int r.n_nranks));
      ("degree", Obs.Json.Num (float_of_int r.n_degree));
      ("bytes", Obs.Json.Num (float_of_int r.n_bytes));
      ("combined_virtual_s", Obs.Json.Num r.n_combined_virtual_s);
      ("naive_virtual_s", Obs.Json.Num r.n_naive_virtual_s);
      ("combined_wall_s", Obs.Json.Num r.n_combined_wall_s);
      ("naive_wall_s", Obs.Json.Num r.n_naive_wall_s);
    ]

(* ------------------------------------------------------------------ *)
(* End-to-end pipeline over the application suite                      *)

type app_run = {
  a_name : string;
  a_nranks : int;
  trace_s : float;
  align_s : float;
  wildcard_s : float;
  generate_s : float;
  a_events : int;
  a_events_per_s : float;
  input_rsds : int;
  final_rsds : int;
}

let run_app (app : Apps.Registry.app) ~wanted =
  let nranks = Apps.Registry.fit_nranks app ~wanted in
  let (trace, outcome), trace_s =
    wall (fun () -> Scalatrace.Tracer.trace_run ~nranks (app.program ()))
  in
  let aligned, align_s = wall (fun () -> Benchgen.Align.run trace) in
  let resolved, wildcard_s = wall (fun () -> Benchgen.Wildcard.run aligned) in
  let report, generate_s =
    wall (fun () ->
        match
          Benchgen.Pipeline.run
            { Benchgen.Pipeline.default with name = Some app.name }
            (Benchgen.Pipeline.From_trace resolved)
        with
        | Ok (a, _) -> a.Benchgen.Pipeline.report
        | Error e -> failwith (Benchgen.Pipeline.error_to_string e))
  in
  {
    a_name = app.name;
    a_nranks = nranks;
    trace_s;
    align_s;
    wildcard_s;
    generate_s;
    a_events = outcome.Mpisim.Engine.events;
    a_events_per_s =
      float_of_int outcome.Mpisim.Engine.events /. Float.max trace_s 1e-9;
    input_rsds = report.Benchgen.input_rsds;
    final_rsds = report.Benchgen.final_rsds;
  }

(* ------------------------------------------------------------------ *)
(* JSON out, via the observability layer's shared value type            *)

let jint i = Obs.Json.Num (float_of_int i)

let micro_json m =
  Obs.Json.Obj
    [
      ("wall_s", Obs.Json.Num m.wall_s);
      ("events", jint m.events);
      ("events_per_s", Obs.Json.Num m.events_per_s);
    ]

let app_json a =
  Obs.Json.Obj
    [
      ("app", Obs.Json.Str a.a_name);
      ("nranks", jint a.a_nranks);
      ("trace_s", Obs.Json.Num a.trace_s);
      ("align_s", Obs.Json.Num a.align_s);
      ("wildcard_s", Obs.Json.Num a.wildcard_s);
      ("generate_s", Obs.Json.Num a.generate_s);
      ("events", jint a.a_events);
      ("events_per_s", Obs.Json.Num a.a_events_per_s);
      ("input_rsds", jint a.input_rsds);
      ("final_rsds", jint a.final_rsds);
    ]

let emit ~path ~mode ~micro_nranks ~msgs_per_rank ~reference ~indexed ~merge
    ~collalg ~neighbor ~apps =
  let doc =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.Str "bench-engine/1");
        ("mode", Obs.Json.Str mode);
        ( "micro",
          Obs.Json.Obj
            [
              ("nranks", jint micro_nranks);
              ("msgs_per_rank", jint msgs_per_rank);
              ("reference", micro_json reference);
              ("indexed", micro_json indexed);
              ( "speedup",
                Obs.Json.Num
                  (indexed.events_per_s /. Float.max reference.events_per_s 1e-9)
              );
            ] );
        ("merge", merge_json merge);
        ("collalg", Obs.Json.Arr (List.map collalg_json collalg));
        ("neighbor", Obs.Json.Arr (List.map neighbor_json neighbor));
        ("apps", Obs.Json.Arr (List.map app_json apps));
      ]
  in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* JSON self-check: re-parse our own output                             *)

exception Bad_json of string

let validate_json path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  match Obs.Json.parse (String.trim s) with
  | exception Obs.Json.Parse_error msg -> raise (Bad_json msg)
  | Obs.Json.Obj _ as j ->
      List.iter
        (fun k ->
          if Obs.Json.member k j = None then
            raise (Bad_json ("missing top-level key: " ^ k)))
        [ "schema"; "micro"; "collalg"; "neighbor"; "apps" ]
  | _ -> raise (Bad_json "top level is not an object")

(* ------------------------------------------------------------------ *)

let run ~quick () =
  let micro_nranks = if quick then 64 else 256 in
  let msgs_per_rank = if quick then 4 else 32 in
  Printf.printf
    "engine microbenchmark: %d ranks x %d msgs/rank, reference vs indexed \
     matcher\n%!"
    micro_nranks msgs_per_rank;
  let reference = run_micro ~matcher:`Reference ~nranks:micro_nranks ~msgs_per_rank in
  let indexed = run_micro ~matcher:`Indexed ~nranks:micro_nranks ~msgs_per_rank in
  if reference.events <> indexed.events then
    failwith
      (Printf.sprintf
         "matcher implementations disagree on event count: reference=%d \
          indexed=%d"
         reference.events indexed.events);
  let speedup = indexed.events_per_s /. Float.max reference.events_per_s 1e-9 in
  Printf.printf
    "  reference: %8.0f events/s (%.3fs)\n  indexed:   %8.0f events/s \
     (%.3fs)\n  speedup:   %.1fx\n%!"
    reference.events_per_s reference.wall_s indexed.events_per_s indexed.wall_s
    speedup;
  let merge_nranks = if quick then 8 else 64 in
  let merge_cls = if quick then Apps.Params.S else Apps.Params.C in
  Printf.printf
    "merge stress: hirsd at %d ranks, reference vs indexed inter-rank merge\n%!"
    merge_nranks;
  let merge = run_merge_stress ~nranks:merge_nranks ~cls:merge_cls in
  Printf.printf
    "  %d rsds / %d events; reference %.3fs, indexed %.3fs (%.1fx)\n%!"
    merge.g_rsds merge.g_events merge.reference_s merge.indexed_s
    (merge.reference_s /. Float.max merge.indexed_s 1e-9);
  let collalg_counts = if quick then [ 64 ] else [ 64; 256; 1024 ] in
  let collalg_iters = if quick then 1 else 4 in
  Printf.printf
    "collective algorithms: allreduce per strategy, p in {%s}\n%!"
    (String.concat ", " (List.map string_of_int collalg_counts));
  let collalg =
    run_collalg_suite ~rank_counts:collalg_counts ~iters:collalg_iters
  in
  let neighbor_counts = if quick then [ 64 ] else [ 64; 256; 1024 ] in
  Printf.printf
    "neighborhood collectives: sparse exchange, combined vs naive schedules, \
     p in {%s}\n%!"
    (String.concat ", " (List.map string_of_int neighbor_counts));
  let neighbor = run_neighbor_suite ~rank_counts:neighbor_counts in
  let apps, counts =
    if quick then
      ( List.filter
          (fun (a : Apps.Registry.app) ->
            List.mem a.name [ "cg"; "mg"; "ring" ])
          Apps.Registry.all,
        [ 16 ] )
    else (Apps.Registry.paper_suite, [ 64; 256; 1024 ])
  in
  let app_runs =
    List.concat_map
      (fun wanted ->
        List.map
          (fun app ->
            let r = run_app app ~wanted in
            Printf.printf
              "  %-8s p=%-4d trace %.3fs  align %.3fs  wildcard %.3fs  \
               generate %.3fs  (%.0f events/s)\n%!"
              r.a_name r.a_nranks r.trace_s r.align_s r.wildcard_s r.generate_s
              r.a_events_per_s;
            r)
          apps)
      counts
  in
  let path = "BENCH_engine.json" in
  emit ~path ~mode:(if quick then "quick" else "full") ~micro_nranks
    ~msgs_per_rank ~reference ~indexed ~merge ~collalg ~neighbor
    ~apps:app_runs;
  Printf.printf "wrote %s\n%!" path;
  if quick then begin
    validate_json path;
    Printf.printf "quick mode: JSON parses and has the expected shape\n%!"
  end

(* ------------------------------------------------------------------ *)
(* Perf smoke: guards on the indexed merge, on Lower and on loading     *)

let best_of_3 f = List.fold_left Float.min infinity (List.init 3 (fun _ -> snd (wall f)))

(* A generated benchmark must run in about the time of the application
   it came from.  CG class W at 256 ranks is generated once, then run as
   the application ([Mpi.run]) and as the lowered benchmark ([Lower.run]),
   best of 3 each, in this process: a ratio of two runs on one machine
   does not depend on how fast or loaded the machine is.  A Lower that
   interprets every statement on every rank ran this at 8-16x. *)
let lower_smoke () =
  let max_ratio = 4. and nranks = 256 in
  let app = Option.get (Apps.Registry.find "cg") in
  let program = app.program ~cls:Apps.Params.W () in
  let benchmark =
    match
      Benchgen.Pipeline.run
        { Benchgen.Pipeline.default with name = Some app.name }
        (Benchgen.Pipeline.From_app { nranks; app = program })
    with
    | Ok (a, _) -> a.Benchgen.Pipeline.report.program
    | Error e -> failwith (Benchgen.Pipeline.error_to_string e)
  in
  let original_s = best_of_3 (fun () -> ignore (Mpisim.Mpi.run ~nranks program)) in
  let lower_s =
    best_of_3 (fun () -> ignore (Conceptual.Lower.run ~nranks benchmark))
  in
  let ratio = lower_s /. original_s in
  Printf.printf
    "perf smoke: cg W %d ranks, original %.3fs, Lower %.3fs (%.2fx, limit \
     %.0fx)\n%!"
    nranks original_s lower_s ratio max_ratio;
  if ratio > max_ratio then
    failwith
      (Printf.sprintf
         "perf smoke: Lower ran the generated benchmark %.1fx slower than the \
          application, over the %.0fx limit"
         ratio max_ratio)

(* A v3 file holds the merged trace, so loading it parses the top-level
   nodes and skips v2's per-rank parsing and re-merge.  MG class C at 32
   ranks is saved in both formats and each file loaded best of 3 in this
   process; v3 must load in a quarter of v2's time (it reads about a
   twelfth). *)
let load_smoke () =
  let max_ratio = 0.25 and nranks = 32 in
  let app = Option.get (Apps.Registry.find "mg") in
  let trace, _ =
    Scalatrace.Tracer.trace_run ~nranks (app.program ~cls:Apps.Params.C ())
  in
  let v2 = Filename.temp_file "perf-smoke" ".v2.trace"
  and v3 = Filename.temp_file "perf-smoke" ".v3.trace" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove v2;
      Sys.remove v3)
    (fun () ->
      Out_channel.with_open_bin v2 (fun oc ->
          Out_channel.output_string oc (Scalatrace.Trace_io.to_framed trace));
      Scalatrace.Trace_io.save trace ~path:v3;
      let load path () = ignore (Scalatrace.Trace_io.load ~path) in
      let v2_s = best_of_3 (load v2) and v3_s = best_of_3 (load v3) in
      let ratio = v3_s /. v2_s in
      Printf.printf
        "perf smoke: mg C %d ranks, load v2 %.3fs (%d B), v3 %.3fs (%d B) \
         (%.2fx, limit %.2fx)\n%!"
        nranks v2_s (Unix.stat v2).Unix.st_size v3_s (Unix.stat v3).Unix.st_size
        ratio max_ratio;
      if ratio > max_ratio then
        failwith
          (Printf.sprintf
             "perf smoke: loading the v3 file took %.2fx the v2 load, over \
              the %.2fx limit"
             ratio max_ratio))

(* Runs under [dune runtest].  The merge budget is deliberately generous —
   ~100x the expected time on an unloaded machine — so it never flakes
   on a busy box, yet still catches the complexity class regressing:
   before the indexed merge, this workload took minutes, not seconds. *)
let smoke () =
  lower_smoke ();
  load_smoke ();
  let budget_s = 60. in
  let m, total_s =
    wall (fun () -> run_merge_stress ~nranks:32 ~cls:Apps.Params.A)
  in
  Printf.printf
    "perf smoke: hirsd 32 ranks, %d rsds; reference merge %.3fs, indexed \
     %.3fs, total %.3fs (budget %.0fs)\n%!"
    m.g_rsds m.reference_s m.indexed_s total_s budget_s;
  if m.indexed_s > budget_s then
    failwith
      (Printf.sprintf
         "perf smoke: indexed merge took %.1fs, over the %.0fs budget — the \
          merge complexity class has regressed"
         m.indexed_s budget_s)
