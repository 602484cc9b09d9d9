(* Perf smoke: the repository's in-tree perf gate, run under
   [dune runtest].  Seven guards: five compare two timings taken in this
   process, so none depends on how fast or loaded the machine is, and two
   count allocated words, which repeat exactly; a self-check first makes
   sure the word count sees everything a run allocates.  End-to-end
   numbers come from the repository benchmark ([benchmark/]), on the path
   [Pipeline.run] takes. *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let best_of_3 f = List.fold_left Float.min infinity (List.init 3 (fun _ -> snd (wall f)))

(* [fail_if cond fmt ...] fails the smoke run with the message when [cond]
   holds. *)
let fail_if cond fmt =
  Printf.ksprintf (fun msg -> if cond then failwith ("perf smoke: " ^ msg)) fmt

(* The high-RSD regime that made MG fall off a cliff, distilled: the
   [hirsd] stress app is traced under {!Scalatrace.Tracer} ([Mpi.run]
   with the tracer's hook), then the recorded per-rank traces are merged
   ([Tracer.finish], which leaves them untouched and so can run again).
   Both are timed best of 3 in this process, so their ratio does not
   depend on how fast or loaded the machine is. *)

type merge_run = {
  g_nranks : int;
  g_rsds : int;
  traced_run_s : float;
  merge_s : float;
}

let run_merge_stress ~nranks ~cls =
  let app = Option.get (Apps.Registry.find "hirsd") in
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
    traced_run_s;
    merge_s;
  }

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
  fail_if (ratio > max_ratio)
    "Lower ran the generated benchmark %.1fx slower than the application, \
     over the %.0fx limit"
    ratio max_ratio

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
      fail_if (ratio > max_ratio)
        "loading the v3 file took %.2fx the v2 load, over the %.2fx limit"
        ratio max_ratio)

(* The inter-rank merge must cost about what recording the trace did.
   hirsd class A at 32 ranks (about 2.7 MB of merged text) is traced and
   merged best of 3 each in this process; the merge must take at most 4x
   the traced run (it reads 0.8-1.2x).  A merge that falls back into a
   superlinear scan would take many times the run. *)
let merge_smoke () =
  let max_ratio = 4. in
  let m = run_merge_stress ~nranks:32 ~cls:Apps.Params.A in
  let ratio = m.merge_s /. m.traced_run_s in
  Printf.printf
    "perf smoke: hirsd A %d ranks, %d rsds; traced run %.3fs, merge %.3fs \
     (%.2fx, limit %.0fx)\n%!"
    m.g_nranks m.g_rsds m.traced_run_s m.merge_s ratio max_ratio;
  fail_if (ratio > max_ratio)
    "the inter-rank merge took %.1fx the traced run, over the %.0fx limit"
    ratio max_ratio

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
  fail_if (ratio > max_ratio)
    "an event at 1024 ranks cost %.1fx one at 64 ranks, over the %.0fx limit"
    ratio max_ratio

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
  fail_if (ratio > max_ratio)
    "compressing at window %d took %.1fx window 64, over the %.0fx limit"
    default ratio max_ratio

(* Words [f ()] allocates (minor plus major, less promoted), and its
   result.  Minor words come from [Gc.minor_words], which counts the
   current minor heap; [Gc.quick_stat]'s [minor_words] leaves that heap
   out under OCaml 5.1, so each run lost its last partial minor heap.  The
   heap is collected first, so the promoted words subtracted are [f]'s own
   and the count repeats exactly: a guard on it is a count, not a timing.
   Without that it moved by a word per event from run to run, and by
   three with the heap state an earlier guard left. *)
let allocated f =
  let words () =
    let s = Gc.quick_stat () in
    Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words
  in
  Gc.full_major ();
  let before = words () in
  let r = f () in
  (words () -. before, r)

(* Words and events of one [Mpi.run] of [program]. *)
let run_words ?(hooks = []) ~nranks program =
  let words, outcome =
    allocated (fun () -> Mpisim.Mpi.run ~hooks ~nranks program)
  in
  (words, outcome.Mpisim.Engine.events)

(* The word count must see everything a run allocates, the last partial
   minor heap included.  Consing 1000 list cells of 3 words each, far
   less than one minor heap, must read at least 3000 words; through
   [Gc.quick_stat]'s minor count alone it read 0. *)
let alloc_probe_smoke () =
  let cells = 1000 in
  let least = float_of_int (3 * cells) in
  let words, _ =
    allocated (fun () ->
        let l = ref [] in
        for i = 1 to cells do
          l := i :: !l
        done;
        Sys.opaque_identity !l)
  in
  Printf.printf
    "perf smoke: consing %d list cells reads %.0f allocated words (at least \
     %.0f)\n%!"
    cells words least;
  fail_if (words < least)
    "consing %d list cells read %.0f allocated words, under the %.0f they \
     take"
    cells words least

(* Simulating an event must allocate only the simulation state.  MG
   class C at 64 ranks runs untraced; its allocated words per simulated
   event must be at most 60 (it reads 49.6).  An engine with boxed
   clocks, a heap of boxed entries, an option and a closure per call and
   generic hash lookups read 99.1. *)
let engine_smoke () =
  let max_words = 60. and nranks = 64 in
  let app = Option.get (Apps.Registry.find "mg") in
  let words, events = run_words ~nranks (app.program ~cls:Apps.Params.C ()) in
  let per_event = words /. float_of_int events in
  Printf.printf
    "perf smoke: mg C %d ranks, %d events, the untraced run allocates %.1f \
     words per event (limit %.0f)\n%!"
    nranks events per_event max_words;
  fail_if (per_event > max_words)
    "the engine allocated %.1f words per event, over the %.0f limit"
    per_event max_words

(* Recording a call must not copy it.  MG class C at 64 ranks runs
   untraced, then under the tracer (recording only, no merge); the words
   the tracer adds per simulated event, the difference of the two runs'
   allocated words divided by the run's events, must be at most 40 (it
   reads 21.8; 25.6 while each timing summary also kept a bucket
   array).  An event built with closures, boxed floats and hash tuples, a
   fresh singleton rank set per call and a copy of every count vector
   read 86. *)
let record_smoke () =
  let max_words = 40. and nranks = 64 in
  let app = Option.get (Apps.Registry.find "mg") in
  let program = app.program ~cls:Apps.Params.C () in
  let untraced, events = run_words ~nranks program in
  let tracer = Scalatrace.Tracer.create ~nranks () in
  let traced, _ =
    run_words ~hooks:[ Scalatrace.Tracer.hook tracer ] ~nranks program
  in
  let per_event = (traced -. untraced) /. float_of_int events in
  Printf.printf
    "perf smoke: mg C %d ranks, %d events, recording allocates %.1f words \
     per event (limit %.0f)\n%!"
    nranks events per_event max_words;
  fail_if (per_event > max_words)
    "recording allocated %.1f words per event, over the %.0f limit"
    per_event max_words

let smoke () =
  alloc_probe_smoke ();
  lower_smoke ();
  load_smoke ();
  merge_smoke ();
  scale_smoke ();
  compress_smoke ();
  engine_smoke ();
  record_smoke ()
