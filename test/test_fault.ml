(* Fault injection, watchdog, and graceful-degradation tests. *)

open Mpisim
module Pipeline = Benchgen.Pipeline

let t name f = Alcotest.test_case name `Quick f

let fin ctx = Mpi.finalize ctx

(* an 8-rank ring with some compute: enough traffic for the fault
   machinery to bite, small enough to run many times *)
let ring (ctx : Mpi.ctx) =
  let n = ctx.nranks in
  for _ = 1 to 10 do
    let r = Mpi.irecv ctx ~src:(Call.Rank ((ctx.rank + n - 1) mod n)) ~bytes:2048 in
    let s = Mpi.isend ctx ~dst:((ctx.rank + 1) mod n) ~bytes:2048 in
    ignore (Mpi.waitall ctx [ r; s ]);
    Mpi.compute ctx 1e-5
  done;
  fin ctx

let plan_tests =
  [
    t "make validates its knobs" (fun () ->
        let rejects f = try ignore (f ()); false with Invalid_argument _ -> true in
        Alcotest.(check bool) "drop_prob > 1" true
          (rejects (fun () -> Fault.make ~seed:1 ~drop_prob:1.5 ()));
        Alcotest.(check bool) "drop_prob = 1" true
          (rejects (fun () -> Fault.make ~seed:1 ~drop_prob:1.0 ()));
        Alcotest.(check bool) "negative jitter" true
          (rejects (fun () -> Fault.make ~seed:1 ~jitter_mean:(-1.) ()));
        Alcotest.(check bool) "backoff < 1" true
          (rejects (fun () -> Fault.make ~seed:1 ~backoff:0.5 ()));
        Alcotest.(check bool) "negative retries" true
          (rejects (fun () -> Fault.make ~seed:1 ~max_retries:(-1) ()));
        Alcotest.(check bool) "bad window" true
          (rejects (fun () ->
               Fault.make ~seed:1
                 ~windows:
                   [ { Fault.w_from = 2.; w_until = 1.;
                       w_latency_factor = 1.; w_bandwidth_factor = 1. } ]
                 ())));
    t "none is a noop, a perturbing plan is not" (fun () ->
        Alcotest.(check bool) "none" true (Fault.is_noop Fault.none);
        Alcotest.(check bool) "seeded but inert" true
          (Fault.is_noop (Fault.make ~seed:7 ()));
        Alcotest.(check bool) "jitter" false
          (Fault.is_noop (Fault.make ~seed:7 ~jitter_mean:1e-6 ())));
    t "degradation windows compound" (fun () ->
        let w a b lf bf =
          { Fault.w_from = a; w_until = b; w_latency_factor = lf;
            w_bandwidth_factor = bf }
        in
        let plan =
          Fault.make ~seed:1 ~windows:[ w 1. 3. 2. 0.5; w 2. 4. 3. 1. ] ()
        in
        let check now want_l want_b =
          let l, b = Fault.degradation plan ~now in
          Alcotest.(check (float 1e-9)) "latency factor" want_l l;
          Alcotest.(check (float 1e-9)) "bandwidth factor" want_b b
        in
        check 0.5 1. 1.;
        check 1.5 2. 0.5;
        check 2.5 6. 0.5;
        (* overlap: 2 * 3 *)
        check 3.5 3. 1.;
        check 4.5 1. 1.);
    t "retransmission timeout backs off exponentially" (fun () ->
        let plan =
          Fault.make ~seed:1 ~retrans_timeout:1e-3 ~backoff:2. ~drop_prob:0.1 ()
        in
        Alcotest.(check (float 1e-12)) "attempt 0" 1e-3
          (Fault.timeout_after plan ~attempt:0);
        Alcotest.(check (float 1e-12)) "attempt 3" 8e-3
          (Fault.timeout_after plan ~attempt:3));
  ]

let determinism_tests =
  [
    t "same seed, same plan: bit-identical outcome" (fun () ->
        let fault =
          Fault.make ~seed:42 ~jitter_mean:2e-6 ~drop_prob:0.2 ~os_noise:0.05 ()
        in
        let a = Mpi.run ~fault ~nranks:8 ring in
        let b = Mpi.run ~fault ~nranks:8 ring in
        Alcotest.(check (float 0.)) "elapsed" a.elapsed b.elapsed;
        Alcotest.(check int) "events" a.events b.events;
        Alcotest.(check int) "dropped" a.dropped b.dropped;
        Alcotest.(check int) "retries" a.retries b.retries;
        Alcotest.(check int) "timeouts" a.timeouts b.timeouts);
    t "different seeds: different jitter, same logical traffic" (fun () ->
        let plan seed = Fault.make ~seed ~jitter_mean:5e-6 () in
        let a = Mpi.run ~fault:(plan 1) ~nranks:8 ring in
        let b = Mpi.run ~fault:(plan 2) ~nranks:8 ring in
        Alcotest.(check bool) "elapsed differs" true (a.elapsed <> b.elapsed);
        Alcotest.(check int) "messages" a.messages b.messages;
        Alcotest.(check int) "bytes" a.p2p_bytes b.p2p_bytes);
    t "drops do not change logical message/byte counts" (fun () ->
        let clean = Mpi.run ~nranks:8 ring in
        let fault = Fault.make ~seed:9 ~drop_prob:0.3 () in
        let faulty = Mpi.run ~fault ~nranks:8 ring in
        Alcotest.(check int) "messages" clean.messages faulty.messages;
        Alcotest.(check int) "bytes" clean.p2p_bytes faulty.p2p_bytes;
        Alcotest.(check bool) "drops happened" true (faulty.dropped > 0);
        Alcotest.(check bool) "recovered by retransmission" true
          (faulty.retries > 0));
    t "clean run reports zero fault counters" (fun () ->
        let o = Mpi.run ~nranks:8 ring in
        Alcotest.(check int) "dropped" 0 o.dropped;
        Alcotest.(check int) "retries" 0 o.retries;
        Alcotest.(check int) "timeouts" 0 o.timeouts);
    t "jitter slows the run down" (fun () ->
        let clean = Mpi.run ~nranks:8 ring in
        let fault = Fault.make ~seed:3 ~jitter_mean:1e-4 () in
        let jittered = Mpi.run ~fault ~nranks:8 ring in
        Alcotest.(check bool) "slower" true (jittered.elapsed > clean.elapsed));
    t "degradation window slows transfers inside it" (fun () ->
        let fault =
          Fault.make ~seed:1
            ~windows:
              [ { Fault.w_from = 0.; w_until = 1e9; w_latency_factor = 10.;
                  w_bandwidth_factor = 0.1 } ]
            ()
        in
        let clean = Mpi.run ~nranks:8 ring in
        let slow = Mpi.run ~fault ~nranks:8 ring in
        Alcotest.(check bool) "slower" true (slow.elapsed > clean.elapsed));
    t "per-rank slowdown stretches compute" (fun () ->
        let app (ctx : Mpi.ctx) =
          Mpi.compute ctx 1.0;
          fin ctx
        in
        let clean = Mpi.run ~nranks:2 app in
        let fault = Fault.make ~seed:1 ~slowdown:[ (0, 3.) ] () in
        let slow = Mpi.run ~fault ~nranks:2 app in
        Alcotest.(check bool) "3x compute" true (slow.elapsed >= 3.0);
        Alcotest.(check bool) "clean is 1x" true (clean.elapsed < 2.0));
  ]

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let resilience_tests =
  [
    t "every paper app completes and generates under drops" (fun () ->
        List.iter
          (fun (app : Apps.Registry.app) ->
            let nranks = Apps.Registry.fit_nranks app ~wanted:8 in
            let fault = Fault.make ~seed:11 ~drop_prob:0.05 ~jitter_mean:1e-6 () in
            let a =
              Generate.artifact
                ~cfg:
                  { Pipeline.default with name = Some app.name; fault = Some fault }
                (Pipeline.From_app
                   { nranks; app = app.program ~cls:Apps.Params.S () })
            in
            Alcotest.(check bool)
              (app.name ^ " generates") true
              (a.Pipeline.report.statements > 0);
            Alcotest.(check bool)
              (app.name ^ " finished") true
              ((Option.get a.Pipeline.trace_outcome).Engine.elapsed > 0.))
          Apps.Registry.paper_suite);
    t "retry exhaustion raises Stalled naming the budget" (fun () ->
        let fault = Fault.make ~seed:1 ~drop_prob:0.99 ~max_retries:2 () in
        match
          Mpi.run ~fault ~nranks:2 (fun ctx ->
              (if ctx.rank = 0 then Mpi.send ctx ~dst:1 ~bytes:64
               else ignore (Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:64));
              fin ctx)
        with
        | _ -> Alcotest.fail "expected Stalled"
        | exception Engine.Stalled msg ->
            Alcotest.(check bool) "mentions the budget" true
              (contains ~sub:"retransmission budget exhausted" msg);
            Alcotest.(check bool) "names the endpoints" true
              (contains ~sub:"0->1" msg));
  ]

let watchdog_tests =
  [
    t "event budget turns a long run into Stalled" (fun () ->
        match Mpi.run ~max_events:50 ~nranks:8 ring with
        | _ -> Alcotest.fail "expected Stalled"
        | exception Engine.Stalled msg ->
            Alcotest.(check bool) "names the budget" true
              (contains ~sub:"event budget exhausted" msg);
            Alcotest.(check bool) "lists a rank" true (contains ~sub:"rank 0" msg));
    t "virtual-time budget turns a long run into Stalled" (fun () ->
        match
          Mpi.run ~max_virtual_time:0.5 ~nranks:1 (fun ctx ->
              for _ = 1 to 100 do
                Mpi.compute ctx 0.1
              done;
              fin ctx)
        with
        | _ -> Alcotest.fail "expected Stalled"
        | exception Engine.Stalled msg ->
            Alcotest.(check bool) "names the budget" true
              (contains ~sub:"virtual-time budget exhausted" msg));
    t "budgets are validated" (fun () ->
        let rejects f = try ignore (f ()); false with Engine.Mpi_error _ -> true in
        Alcotest.(check bool) "max_events 0" true
          (rejects (fun () -> Mpi.run ~max_events:0 ~nranks:1 fin));
        Alcotest.(check bool) "negative max_virtual_time" true
          (rejects (fun () -> Mpi.run ~max_virtual_time:(-1.) ~nranks:1 fin)));
    t "generous budgets leave the run untouched" (fun () ->
        let a = Mpi.run ~nranks:8 ring in
        let b = Mpi.run ~max_events:1_000_000 ~max_virtual_time:1e6 ~nranks:8 ring in
        Alcotest.(check (float 0.)) "elapsed" a.elapsed b.elapsed;
        Alcotest.(check int) "events" a.events b.events);
    t "deadlock diagnostic names each stuck rank and its call" (fun () ->
        match
          Mpi.run ~nranks:2 (fun ctx ->
              let peer = 1 - ctx.rank in
              ignore (Mpi.recv ctx ~src:(Call.Rank peer) ~bytes:8);
              fin ctx)
        with
        | _ -> Alcotest.fail "expected Deadlock"
        | exception Engine.Deadlock msg ->
            Alcotest.(check bool) "rank 0" true (contains ~sub:"rank 0" msg);
            Alcotest.(check bool) "rank 1" true (contains ~sub:"rank 1" msg);
            Alcotest.(check bool) "call" true (contains ~sub:"MPI_Recv" msg));
    t "missing finalize is a typed error" (fun () ->
        match Mpi.run ~nranks:1 (fun _ -> ()) with
        | _ -> Alcotest.fail "expected Mpi_error"
        | exception Engine.Mpi_error msg ->
            Alcotest.(check bool) "mentions finalize" true
              (contains ~sub:"MPI_Finalize" msg));
  ]

(* ---------------------------------------------------------------- *)
(* Trace_io robustness: truncated or corrupted input must surface as
   Format_error, never as an unhandled exception or a crash.          *)

let reference_trace_text () =
  let trace, _ = Scalatrace.Tracer.trace_run ~nranks:4 ring in
  Scalatrace.Trace_io.to_text trace

let parses_or_format_error text =
  match Scalatrace.Trace_io.of_text text with
  | _ -> true
  | exception Scalatrace.Trace_io.Format_error _ -> true
  | exception _ -> false

let trace_io_tests =
  [
    t "round trip of the reference trace" (fun () ->
        let text = reference_trace_text () in
        let trace = Scalatrace.Trace_io.of_text text in
        Alcotest.(check int) "nranks" 4 (Scalatrace.Trace.nranks trace));
    t "every truncation is Ok or Format_error" (fun () ->
        let text = reference_trace_text () in
        let n = String.length text in
        for cut = 0 to 60 do
          let len = cut * n / 60 in
          Alcotest.(check bool)
            (Printf.sprintf "prefix %d" len)
            true
            (parses_or_format_error (String.sub text 0 len))
        done);
    t "corrupted bytes are Ok or Format_error" (fun () ->
        let text = reference_trace_text () in
        let n = String.length text in
        let rng = Util.Rng.create ~seed:1234 in
        for _ = 1 to 200 do
          let pos = Util.Rng.int rng n in
          let b = Bytes.of_string text in
          Bytes.set b pos (Char.chr (Util.Rng.int rng 256));
          Alcotest.(check bool)
            (Printf.sprintf "corrupt @%d" pos)
            true
            (parses_or_format_error (Bytes.to_string b))
        done);
    t "corrupted lines are Ok or Format_error" (fun () ->
        let text = reference_trace_text () in
        let lines = String.split_on_char '\n' text in
        List.iteri
          (fun i _ ->
            let mutated =
              List.filteri (fun j _ -> j <> i) lines |> String.concat "\n"
            in
            Alcotest.(check bool)
              (Printf.sprintf "drop line %d" i)
              true
              (parses_or_format_error mutated))
          lines);
  ]

(* ---------------------------------------------------------------- *)
(* Checked generation and the noise-validation harness.               *)

let s1 = Mpi.site __POS__
let s2 = Mpi.site __POS__
let s3 = Mpi.site __POS__
let s4 = Mpi.site __POS__

(* the paper's Figure 5: rank 1's wildcard receive can consume rank 0's
   message, after which the second receive from rank 0 hangs *)
let figure5 (ctx : Mpi.ctx) =
  if ctx.rank = 0 then Mpi.compute ctx 1e-3;
  (if ctx.rank = 1 then begin
     ignore (Mpi.recv ~site:s1 ctx ~src:Call.Any_source ~bytes:8);
     ignore (Mpi.recv ~site:s2 ctx ~src:(Call.Rank 0) ~bytes:8)
   end
   else if ctx.rank = 0 || ctx.rank = 2 then Mpi.send ~site:s3 ctx ~dst:1 ~bytes:8);
  Mpi.finalize ~site:s4 ctx

let checked_tests =
  [
    t "generate_checked: clean trace yields Ok with no warnings" (fun () ->
        let trace, _ = Scalatrace.Tracer.trace_run ~nranks:4 ring in
        match Pipeline.run Pipeline.default (Pipeline.From_trace trace) with
        | Error e -> Alcotest.fail (Pipeline.error_to_string e)
        | Ok (a, warnings) ->
            Alcotest.(check bool) "has statements" true
              (a.Pipeline.report.statements > 0);
            Alcotest.(check int) "no warnings" 0 (List.length warnings));
    t "generate_checked: wildcard resolution is reported as a warning"
      (fun () ->
        let prog (ctx : Mpi.ctx) =
          (if ctx.rank = 0 then begin
             ignore (Mpi.recv ~site:s1 ctx ~src:Call.Any_source ~bytes:8);
             ignore (Mpi.recv ~site:s2 ctx ~src:Call.Any_source ~bytes:8)
           end
           else begin
             Mpi.compute ctx (float_of_int ctx.rank *. 1e-3);
             Mpi.send ~site:s3 ctx ~dst:0 ~bytes:8
           end);
          Mpi.finalize ~site:s4 ctx
        in
        let trace, _ = Scalatrace.Tracer.trace_run ~nranks:3 prog in
        match Pipeline.run Pipeline.default (Pipeline.From_trace trace) with
        | Error e -> Alcotest.fail (Pipeline.error_to_string e)
        | Ok (a, warnings) ->
            Alcotest.(check bool) "resolved" true a.Pipeline.report.resolved;
            Alcotest.(check bool) "warned" true
              (List.mem Pipeline.W_wildcard_resolved warnings));
    t "generate_checked: Figure 5 comes back as a typed error" (fun () ->
        let trace, _ = Scalatrace.Tracer.trace_run ~nranks:3 figure5 in
        (* the default [`Auto] resolution re-raises the traversal's
           potential deadlock *)
        match Pipeline.run Pipeline.default (Pipeline.From_trace trace) with
        | Ok _ -> Alcotest.fail "expected E_potential_deadlock"
        | Error (Pipeline.E_potential_deadlock _) -> ()
        | Error e -> Alcotest.fail (Pipeline.error_to_string e));
    t "generate_checked_file: garbage file is E_trace_format" (fun () ->
        let path = Filename.temp_file "benchgen" ".trace" in
        let oc = open_out path in
        output_string oc "this is not a trace\n";
        close_out oc;
        let r = Pipeline.run Pipeline.default (Pipeline.From_file path) in
        Sys.remove path;
        match r with
        | Error (Pipeline.E_trace_format _) -> ()
        | Error e -> Alcotest.fail (Pipeline.error_to_string e)
        | Ok _ -> Alcotest.fail "expected E_trace_format");
    t "generate_checked_file: missing file is E_io" (fun () ->
        match
          Pipeline.run Pipeline.default
            (Pipeline.From_file "/nonexistent/benchgen.trace")
        with
        | Error (Pipeline.E_io _) -> ()
        | Error e -> Alcotest.fail (Pipeline.error_to_string e)
        | Ok _ -> Alcotest.fail "expected E_io");
    t "validate_under_noise: reproducible sampled distribution" (fun () ->
        let report = Generate.report (Pipeline.From_app { nranks = 4; app = ring }) in
        let run () =
          Benchgen.validate_under_noise ~trials:3 ~base_seed:5 ~nranks:4 ring
            report
        in
        let a = run () and b = run () in
        Alcotest.(check int) "trials" 3 (List.length a.Benchgen.nr_samples);
        Alcotest.(check (float 0.)) "reproducible mean"
          a.Benchgen.nr_mean_abs_error_pct b.Benchgen.nr_mean_abs_error_pct;
        Alcotest.(check bool) "max >= mean" true
          (a.Benchgen.nr_max_abs_error_pct
           >= a.Benchgen.nr_mean_abs_error_pct -. 1e-9);
        List.iter
          (fun (s : Benchgen.noise_sample) ->
            Alcotest.(check bool) "latency factor in [1,2)" true
              (s.Benchgen.ns_latency_factor >= 1.
              && s.Benchgen.ns_latency_factor < 2.);
            Alcotest.(check bool) "bandwidth factor in [0.5,1)" true
              (s.Benchgen.ns_bandwidth_factor >= 0.5
              && s.Benchgen.ns_bandwidth_factor < 1.))
          a.Benchgen.nr_samples);
    t "validate_under_noise rejects trials < 1" (fun () ->
        let report = Generate.report (Pipeline.From_app { nranks = 4; app = ring }) in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Benchgen.validate_under_noise ~trials:0 ~nranks:4 ring report);
             false
           with Invalid_argument _ -> true));
  ]

let suite =
  plan_tests @ determinism_tests @ resilience_tests @ watchdog_tests
  @ trace_io_tests @ checked_tests
