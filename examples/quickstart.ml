(* Quickstart: the complete pipeline on a 5-line application.
 *
 *   dune exec examples/quickstart.exe
 *
 * 1. write an MPI-style program against the simulator,
 * 2. trace it with ScalaTrace (compressed RSD/PRSD trace),
 * 3. generate a coNCePTuaL benchmark from the trace,
 * 4. run the generated benchmark and compare total times. *)

open Mpisim

(* Call-site markers play the role of ScalaTrace's stack signatures:
   declare one per MPI call site. *)
let s_recv = Mpi.site ~label:"halo_recv" __POS__
let s_send = Mpi.site ~label:"halo_send" __POS__
let s_wait = Mpi.site ~label:"halo_wait" __POS__
let s_norm = Mpi.site ~label:"norm" __POS__
let s_fin = Mpi.site ~label:"finalize" __POS__

(* A small iterative stencil: 1-D ring halo exchange + residual norm. *)
let app (ctx : Mpi.ctx) =
  let n = ctx.nranks in
  for _ = 1 to 100 do
    let left = (ctx.rank + n - 1) mod n and right = (ctx.rank + 1) mod n in
    let r = Mpi.irecv ~site:s_recv ctx ~src:(Call.Rank left) ~bytes:8192 in
    let s = Mpi.isend ~site:s_send ctx ~dst:right ~bytes:8192 in
    ignore (Mpi.waitall ~site:s_wait ctx [ r; s ]);
    Mpi.compute ctx 250e-6;
    Mpi.allreduce ~site:s_norm ctx ~bytes:8
  done;
  Mpi.finalize ~site:s_fin ctx

let () =
  let nranks = 16 in

  (* trace the application *)
  let trace, original = Scalatrace.Tracer.trace_run ~nranks app in
  Printf.printf "traced %d MPI events into %d RSDs (a %s trace file)\n\n"
    (Scalatrace.Trace.event_count trace)
    (Scalatrace.Trace.rsd_count trace)
    (Util.Table.fbytes (String.length (Scalatrace.Trace_io.to_string trace)));

  (* generate the benchmark via the unified pipeline *)
  let module P = Benchgen.Pipeline in
  let report =
    match
      P.run
        { P.default with name = Some "quickstart stencil" }
        (P.From_trace trace)
    with
    | Ok (artifact, _warnings) -> artifact.P.report
    | Error e -> failwith (P.error_to_string e)
  in
  print_endline "generated coNCePTuaL benchmark:";
  print_endline "--------------------------------";
  print_string report.text;
  print_endline "--------------------------------";

  (* the generated text is a real program: parse it back and run it *)
  let program = Conceptual.Parse.program report.text in
  let result = Conceptual.Lower.run ~nranks program in
  Printf.printf "\noriginal application: %.4f s\ngenerated benchmark:  %.4f s (%+.2f%%)\n"
    original.elapsed result.outcome.elapsed
    (100. *. (result.outcome.elapsed -. original.elapsed) /. original.elapsed)
