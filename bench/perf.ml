(* Perf-regression harness for the engine hot paths.

   Four sections, all wall-clock timed:

   - an engine microbenchmark that floods one receiver's matching queues
     (unexpected queue drained out of arrival order, then a deep pre-posted
     receive queue) — the worst case for the matcher's front-to-back scan,
     far deeper than any queue the registry applications build;
   - a merge stress: the high-RSD [hirsd] app traced once, then its
     inter-rank merge ([Tracer.finish]) timed against the traced run;
   - the collective-algorithm and neighborhood-collective schedule
     expansions.

   Results go to BENCH_engine.json in the working directory.  [--quick]
   shrinks every dimension and then re-parses the emitted JSON — that mode
   runs under [dune runtest] as a bitrot smoke test, so it must stay fast
   and must not assert anything about timings.  The end-to-end pipeline is
   measured by the repository benchmark ([benchmark/]), on the path
   [Pipeline.run] takes. *)

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
   so each receive scans most of the queue.  Phase 2: rank 0 pre-posts
   every receive, senders fire only after a delay, so each arrival
   searches a deep posted queue. *)
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

let run_micro ~nranks ~msgs_per_rank =
  let outcome, dt =
    wall (fun () ->
        Mpisim.Mpi.run ~net:micro_net ~nranks (matching_stress ~msgs_per_rank))
  in
  { wall_s = dt; events = outcome.Mpisim.Engine.events;
    events_per_s = float_of_int outcome.Mpisim.Engine.events /. Float.max dt 1e-9 }

(* ------------------------------------------------------------------ *)
(* Merge stress: the inter-rank merge against the run it comes from     *)

let best_of_3 f = List.fold_left Float.min infinity (List.init 3 (fun _ -> snd (wall f)))

(* The high-RSD regime that made MG fall off a cliff, distilled: the
   [hirsd] stress app is traced under {!Scalatrace.Tracer} ([Mpi.run]
   with the tracer's hook), then the recorded per-rank traces are merged
   ([Tracer.finish], which leaves them untouched and so can run again).
   Both are timed best of 3 in this process, so their ratio does not
   depend on how fast or loaded the machine is. *)

type merge_run = {
  g_nranks : int;
  g_rsds : int;
  g_events : int;
  traced_run_s : float;
  merge_s : float;
}

let run_merge_stress ~nranks ~cls =
  let app =
    match Apps.Registry.find "hirsd" with
    | Some a -> a
    | None -> failwith "hirsd app missing from registry"
  in
  let program = app.program ~cls () in
  (* Each repetition drops the previous result first, so at most one
     recording and one merged trace are live. *)
  let tracer = ref None in
  let traced_run_s =
    best_of_3 (fun () ->
        tracer := None;
        let t = Scalatrace.Tracer.create ~nranks () in
        ignore
          (Mpisim.Mpi.run ~hooks:[ Scalatrace.Tracer.hook t ] ~nranks program);
        tracer := Some t)
  in
  let t = Option.get !tracer in
  let merged = ref None in
  let merge_s =
    best_of_3 (fun () ->
        merged := None;
        merged := Some (Scalatrace.Tracer.finish t))
  in
  let merged = Option.get !merged in
  {
    g_nranks = nranks;
    g_rsds = Scalatrace.Trace.rsd_count merged;
    g_events = Scalatrace.Trace.event_count merged;
    traced_run_s;
    merge_s;
  }

let merge_json m =
  Obs.Json.Obj
    [
      ("nranks", Obs.Json.Num (float_of_int m.g_nranks));
      ("rsds", Obs.Json.Num (float_of_int m.g_rsds));
      ("events", Obs.Json.Num (float_of_int m.g_events));
      ("traced_run_s", Obs.Json.Num m.traced_run_s);
      ("merge_s", Obs.Json.Num m.merge_s);
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
(* JSON out, via the observability layer's shared value type            *)

let jint i = Obs.Json.Num (float_of_int i)

let emit ~path ~mode ~micro_nranks ~msgs_per_rank ~micro ~merge ~collalg
    ~neighbor =
  let doc =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.Str "bench-engine/2");
        ("mode", Obs.Json.Str mode);
        ( "micro",
          Obs.Json.Obj
            [
              ("nranks", jint micro_nranks);
              ("msgs_per_rank", jint msgs_per_rank);
              ("wall_s", Obs.Json.Num micro.wall_s);
              ("events", jint micro.events);
              ("events_per_s", Obs.Json.Num micro.events_per_s);
            ] );
        ("merge", merge_json merge);
        ("collalg", Obs.Json.Arr (List.map collalg_json collalg));
        ("neighbor", Obs.Json.Arr (List.map neighbor_json neighbor));
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
        [ "schema"; "micro"; "merge"; "collalg"; "neighbor" ]
  | _ -> raise (Bad_json "top level is not an object")

(* ------------------------------------------------------------------ *)

let run ~quick () =
  let micro_nranks = if quick then 64 else 256 in
  let msgs_per_rank = if quick then 4 else 32 in
  Printf.printf "engine microbenchmark: %d ranks x %d msgs/rank\n%!"
    micro_nranks msgs_per_rank;
  let micro = run_micro ~nranks:micro_nranks ~msgs_per_rank in
  Printf.printf "  %8.0f events/s (%d events, %.3fs)\n%!" micro.events_per_s
    micro.events micro.wall_s;
  let merge_nranks = if quick then 8 else 64 in
  let merge_cls = if quick then Apps.Params.S else Apps.Params.C in
  Printf.printf "merge stress: hirsd at %d ranks, traced run vs merge\n%!"
    merge_nranks;
  let merge = run_merge_stress ~nranks:merge_nranks ~cls:merge_cls in
  Printf.printf "  %d rsds / %d events; traced run %.3fs, merge %.3fs\n%!"
    merge.g_rsds merge.g_events merge.traced_run_s merge.merge_s;
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
  let path = "BENCH_engine.json" in
  emit ~path ~mode:(if quick then "quick" else "full") ~micro_nranks
    ~msgs_per_rank ~micro ~merge ~collalg ~neighbor;
  Printf.printf "wrote %s\n%!" path;
  if quick then begin
    validate_json path;
    Printf.printf "quick mode: JSON parses and has the expected shape\n%!"
  end

(* ------------------------------------------------------------------ *)
(* Perf smoke: guards on the merge, Lower, loading and rank scaling     *)

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
   ranks (80 RSDs) is saved in both formats and each file loaded best of
   3 in this process; v3 must load in a quarter of v2's time (it reads
   about a fourteenth). *)
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

(* The inter-rank merge must cost about what recording the trace did.
   hirsd class A at 32 ranks (about 2.7 MB of merged text) is traced and
   merged best of 3 each in this process; the merge must take at most 4x
   the traced run (it reads under 1x).  A merge that falls back into a
   superlinear scan would take many times the run. *)
let merge_smoke () =
  let max_ratio = 4. in
  let m = run_merge_stress ~nranks:32 ~cls:Apps.Params.A in
  let ratio = m.merge_s /. m.traced_run_s in
  Printf.printf
    "perf smoke: hirsd A %d ranks, %d rsds; traced run %.3fs, merge %.3fs \
     (%.2fx, limit %.0fx)\n%!"
    m.g_nranks m.g_rsds m.traced_run_s m.merge_s ratio max_ratio;
  if ratio > max_ratio then
    failwith
      (Printf.sprintf
         "perf smoke: the inter-rank merge took %.1fx the traced run, over \
          the %.0fx limit"
         ratio max_ratio)

(* The simulator's cost per event must not grow with the rank count.
   Untraced FT class C, whose events are mostly all-to-all arrivals, runs
   at 64 and at 1024 ranks, best of 5 each; the 1024-rank run may take at
   most 3x the seconds per event of the 64-rank one.  An engine that
   copied the communicator's members on every collective arrival and
   counted arrivals with [List.length] read about 12x.  A run too short
   to time is repeated until one timing spans at least 50 ms, and the two
   sides' timings alternate, so a slow stretch of the machine hits both. *)
let scale_smoke () =
  let max_ratio = 3. in
  let app = Option.get (Apps.Registry.find "ft") in
  (* one timing of [nranks] ranks, in seconds per event *)
  let timing nranks =
    let program = app.program ~cls:Apps.Params.C () in
    let events = (Mpisim.Mpi.run ~nranks program).Mpisim.Engine.events in
    let runs reps () =
      for _ = 1 to reps do
        ignore (Mpisim.Mpi.run ~nranks program)
      done
    in
    let rec calibrate reps =
      if snd (wall (runs reps)) >= 0.05 then reps else calibrate (2 * reps)
    in
    let reps = calibrate 1 in
    fun () -> snd (wall (runs reps)) /. float_of_int (reps * events)
  in
  let time_small = timing 64 and time_large = timing 1024 in
  let small = ref infinity and large = ref infinity in
  for _ = 1 to 5 do
    small := Float.min !small (time_small ());
    large := Float.min !large (time_large ())
  done;
  let ratio = !large /. !small in
  Printf.printf
    "perf smoke: ft C, %.2f us/event at 64 ranks, %.2f us/event at 1024 \
     (%.2fx, limit %.0fx)\n%!"
    (!small *. 1e6) (!large *. 1e6) ratio max_ratio;
  if ratio > max_ratio then
    failwith
      (Printf.sprintf
         "perf smoke: an event at 1024 ranks cost %.1fx one at 64 ranks, over \
          the %.0fx limit"
         ratio max_ratio)

(* Finding loop bodies must not cost O(window) per push.  hirsd class A
   at 32 ranks leaves per-rank tails of about 4300 nodes that never fold,
   the case where a push that tried every window w = 1..window would pay
   for all of them.  Its recorded per-rank streams are compressed at the
   default window (256) and at window 64, back to back, in each of 7
   rounds that alternate which window goes first; the median of the
   per-round ratios may be at most 2x (it reads 1.2-1.8x; single rounds
   0.8-2.2x).  Load that slows both timings of a round cancels in its
   ratio, where a best-of-5 of each side read 2.06x once in 16 runs.
   That scan reads 3.2-3.4x. *)
let compress_smoke () =
  let max_ratio = 2. and nranks = 32 in
  let app = Option.get (Apps.Registry.find "hirsd") in
  let streams =
    Scalatrace.Tracer.streams ~nranks (app.program ~cls:Apps.Params.A ())
  in
  let events = Array.fold_left (fun n s -> n + List.length s) 0 streams in
  (* absorbing mutates events, so each timing compresses fresh copies *)
  let timing window =
    let copies = Array.map (List.map Scalatrace.Event.copy) streams in
    Gc.full_major ();
    snd
      (wall (fun () ->
           Array.iter
             (fun stream ->
               let c = Scalatrace.Compress.create ~window ~nranks () in
               List.iter (Scalatrace.Compress.push c) stream)
             copies))
  in
  let default = Scalatrace.Compress.default_window in
  let rounds = 7 in
  let narrow = Array.make rounds 0. and wide = Array.make rounds 0. in
  for i = 0 to rounds - 1 do
    if i mod 2 = 0 then begin
      narrow.(i) <- timing 64;
      wide.(i) <- timing default
    end
    else begin
      wide.(i) <- timing default;
      narrow.(i) <- timing 64
    end
  done;
  let median a =
    let a = Array.copy a in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let ratios = Array.init rounds (fun i -> wide.(i) /. narrow.(i)) in
  let ratio = median ratios in
  let per_event s = s /. float_of_int events *. 1e9 in
  Printf.printf
    "perf smoke: hirsd A %d ranks, compress %.0f ns/event at window 64, \
     %.0f ns/event at window %d (median of %d round ratios %.2fx, range \
     %.2f-%.2fx, limit %.0fx)\n%!"
    nranks (per_event (median narrow)) (per_event (median wide)) default rounds
    ratio
    (Array.fold_left Float.min infinity ratios)
    (Array.fold_left Float.max 0. ratios)
    max_ratio;
  if ratio > max_ratio then
    failwith
      (Printf.sprintf
         "perf smoke: compressing at window %d took %.1fx window 64, over the \
          %.0fx limit"
         default ratio max_ratio)

(* Words allocated by one [Mpi.run] of [program] ([Gc.quick_stat]: minor
   plus major, less promoted), and the run's events.  The minor heap is
   emptied first, so the promoted words subtracted are the run's own and
   the count repeats exactly: a guard on it is a count, not a timing.
   Without that it moved by a word per event from run to run, and by
   three with the heap state an earlier guard left. *)
let allocated ?(hooks = []) ~nranks program =
  let words () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  Gc.full_major ();
  let before = words () in
  let outcome = Mpisim.Mpi.run ~hooks ~nranks program in
  (words () -. before, outcome.Mpisim.Engine.events)

(* Simulating an event must allocate only the simulation state.  MG
   class C at 64 ranks runs untraced; its allocated words per simulated
   event must be at most 60 (it reads 49.1).  An engine with boxed
   clocks, a heap of boxed entries, an option and a closure per call and
   generic hash lookups read 99.1. *)
let engine_smoke () =
  let max_words = 60. and nranks = 64 in
  let app = Option.get (Apps.Registry.find "mg") in
  let words, events = allocated ~nranks (app.program ~cls:Apps.Params.C ()) in
  let per_event = words /. float_of_int events in
  Printf.printf
    "perf smoke: mg C %d ranks, %d events, the untraced run allocates %.1f \
     words per event (limit %.0f)\n%!"
    nranks events per_event max_words;
  if per_event > max_words then
    failwith
      (Printf.sprintf
         "perf smoke: the engine allocated %.1f words per event, over the %.0f \
          limit"
         per_event max_words)

(* Recording a call must not copy it.  MG class C at 64 ranks runs
   untraced, then under the tracer (recording only, no merge); the words
   the tracer adds per simulated event, the difference of the two runs'
   allocated words divided by the run's events, must be at most 40 (it
   reads 21.9; 25.6 while each timing summary also kept a bucket array).
   An event built with closures, boxed floats and hash tuples, a fresh
   singleton rank set per call and a copy of every count vector read
   86. *)
let record_smoke () =
  let max_words = 40. and nranks = 64 in
  let app = Option.get (Apps.Registry.find "mg") in
  let program = app.program ~cls:Apps.Params.C () in
  let untraced, events = allocated ~nranks program in
  let tracer = Scalatrace.Tracer.create ~nranks () in
  let traced, _ =
    allocated ~hooks:[ Scalatrace.Tracer.hook tracer ] ~nranks program
  in
  let per_event = (traced -. untraced) /. float_of_int events in
  Printf.printf
    "perf smoke: mg C %d ranks, %d events, recording allocates %.1f words \
     per event (limit %.0f)\n%!"
    nranks events per_event max_words;
  if per_event > max_words then
    failwith
      (Printf.sprintf
         "perf smoke: recording allocated %.1f words per event, over the %.0f \
          limit"
         per_event max_words)

(* Runs under [dune runtest].  Every timing guard is a ratio of two
   timings taken in this process, so none depends on the machine's speed
   or load; the engine and recording guards count allocated words. *)
let smoke () =
  lower_smoke ();
  load_smoke ();
  merge_smoke ();
  scale_smoke ();
  compress_smoke ();
  engine_smoke ();
  record_smoke ()
