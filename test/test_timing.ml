(* Golden tests for the engine's timing semantics: the analytic LogGP-like
   costs must come out exactly, so that simulated times are explainable
   from the network model's parameters. *)

open Mpisim

let t name f = Alcotest.test_case name `Quick f

let feq = Alcotest.(check (float 1e-12))

(* a quiet model with clean numbers: L=10us, o=1us, G=1ns/B, rx=0 *)
let net =
  {
    Netmodel.latency = 10e-6;
    overhead = 1e-6;
    byte_time = 1e-9;
    rx_copy_per_byte = 0.;
    eager_threshold = 4096;
    unexpected_copy_per_byte = 0.;
    unexpected_buffer_bytes = 1 lsl 30;
    resume_latency = 0.;
    collective_dispatch = 2e-6;
  }

let fin ctx = Mpi.finalize ctx

let elapsed_of prog = (Mpi.run ~net ~nranks:2 prog).elapsed

let golden_tests =
  [
    t "eager pre-posted latency: o + L + bytes*G + rx(o)" (fun () ->
        (* receiver posts first; sender fires at t=0 *)
        let e =
          elapsed_of (fun ctx ->
              (if ctx.rank = 1 then
                 ignore (Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:1000)
               else Mpi.send ctx ~dst:1 ~bytes:1000);
              fin ctx)
        in
        (* finalize adds a barrier: ceil(log2 2)=1 stage of (L + 2o) +
           dispatch, starting when the recv completes *)
        let recv_done = 1e-6 +. 10e-6 +. 1000e-9 +. 1e-6 in
        let barrier = 2e-6 +. (10e-6 +. 2e-6) in
        feq "elapsed" (recv_done +. barrier) e);
    t "rendezvous waits for the receiver" (fun () ->
        let delay = 1e-3 in
        let e =
          elapsed_of (fun ctx ->
              (if ctx.rank = 1 then begin
                 Mpi.compute ctx delay;
                 ignore (Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:100_000)
               end
               else Mpi.send ctx ~dst:1 ~bytes:100_000);
              fin ctx)
        in
        (* handshake at post time (RTS arrived long before), then
           L + bytes*G transfer, + o receive cost, + finalize barrier *)
        let post = delay +. 1e-6 in
        let recv_done = post +. 10e-6 +. 100_000e-9 +. 1e-6 in
        let barrier = 2e-6 +. (10e-6 +. 2e-6) in
        feq "elapsed" (recv_done +. barrier) e);
    t "unexpected eager message pays the copy cost" (fun () ->
        let net = { net with unexpected_copy_per_byte = 5e-9 } in
        let o =
          Mpi.run ~net ~nranks:2 (fun ctx ->
              (if ctx.rank = 0 then Mpi.send ctx ~dst:1 ~bytes:1000
               else begin
                 Mpi.compute ctx 1e-3;
                 ignore (Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:1000)
               end);
              fin ctx)
        in
        (* recv completes at post + o + bytes*(rx+unexpected copy) *)
        let recv_done = 1e-3 +. 1e-6 +. 1e-6 +. (1000. *. 5e-9) in
        let barrier = 2e-6 +. (10e-6 +. 2e-6) in
        feq "elapsed" (recv_done +. barrier) o.elapsed);
    t "barrier cost is log2(p) stages" (fun () ->
        List.iter
          (fun (p, stages) ->
            let e =
              (Mpi.run ~net ~nranks:p (fun ctx ->
                   Mpi.barrier ctx;
                   fin ctx))
                .elapsed
            in
            (* one barrier + the finalize barrier *)
            let one = 2e-6 +. (float_of_int stages *. (10e-6 +. 2e-6)) in
            feq (Printf.sprintf "p=%d" p) (2. *. one) e)
          [ (2, 1); (4, 2); (8, 3); (16, 4); (5, 3) ]);
    t "bcast scales with payload" (fun () ->
        let e bytes =
          (Mpi.run ~net ~nranks:4 (fun ctx ->
               Mpi.bcast ctx ~root:0 ~bytes;
               fin ctx))
            .elapsed
        in
        (* 2 stages, each + bytes*G *)
        feq "delta" (2. *. 10_000. *. 1e-9) (e 10_000 -. e 0));
    t "nic serialization queues a burst" (fun () ->
        (* two senders to one receiver: second transfer starts after the
           first finishes on the receiver's inbound link *)
        let o =
          Mpi.run ~net ~nranks:3 (fun ctx ->
              (if ctx.rank > 0 then Mpi.send ctx ~dst:0 ~bytes:4000
               else begin
                 ignore (Mpi.recv ctx ~src:(Call.Rank 1) ~bytes:4000);
                 ignore (Mpi.recv ctx ~src:(Call.Rank 2) ~bytes:4000)
               end);
              fin ctx)
        in
        (* arrival1 = o+L+4000G; arrival2 = arrival1 + 4000G (queued);
           second recv completes at arrival2 + o; finalize barrier on top
           (p=3 -> 2 stages) *)
        let arrival2 = 1e-6 +. 10e-6 +. (2. *. 4000e-9) in
        let done2 = arrival2 +. 1e-6 in
        let barrier = 2e-6 +. (2. *. (10e-6 +. 2e-6)) in
        feq "elapsed" (done2 +. barrier) o.elapsed);
    t "compute times add exactly" (fun () ->
        let e =
          (Mpi.run ~net ~nranks:1 (fun ctx ->
               Mpi.compute ctx 0.5;
               Mpi.compute ctx 0.25;
               fin ctx))
            .elapsed
        in
        feq "sum" (0.75 +. 2e-6) e (* finalize on 1 rank: 0 stages *));
  ]

(* A replay's compute gaps are the RSD means, so a replay is a pure
   function of the trace: it repeats exactly, and a trace saved and
   loaded back (every summary restored exactly) replays as the trace it
   was saved from. *)
let replay_mode_tests =
  [
    t "draw-based replay is deterministic per seed" (fun () ->
        let app = Option.get (Apps.Registry.find "mg") in
        let trace, _ =
          Scalatrace.Tracer.trace_run ~nranks:8 (app.program ~cls:Apps.Params.S ())
        in
        let a = (Replay.run trace).outcome.elapsed in
        let b = (Replay.run trace).outcome.elapsed in
        Alcotest.(check (float 0.)) "same elapsed" a b);
    t "draw-based replay stays close to mean-based" (fun () ->
        let app = Option.get (Apps.Registry.find "ep") in
        let trace, _ =
          Scalatrace.Tracer.trace_run ~nranks:4 (app.program ~cls:Apps.Params.S ())
        in
        let path = Filename.temp_file "replay" ".trace" in
        let loaded =
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              Scalatrace.Trace_io.save trace ~path;
              Scalatrace.Trace_io.load ~path)
        in
        Alcotest.(check (float 0.))
          "loaded v3 replays as traced"
          (Replay.run trace).outcome.elapsed
          (Replay.run loaded).outcome.elapsed);
  ]

let suite = golden_tests @ replay_mode_tests
