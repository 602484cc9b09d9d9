(* The traced run's mirror of what users pay for: the public calls
   [Pipeline.run] and [Pipeline.validate] make, in the same order and
   behind the same O(r) pre-checks, each wrapped in a span.  The mirror
   must generate the same program text as the untimed [Pipeline.run];
   callers check that.

   Calls users never pay for sit under a separate [diag] root: the
   untraced simulation (tracing overhead = record - sim), the paper's
   untimed wildcard traversal on its own (validation = auto - traversal)
   and a replay of the resolved trace. *)

open Benchgen

type generated = {
  text : string;
  program : Conceptual.Ast.program;
  input_rsds : int;
  statements : int;
  aligned_input : Scalatrace.Trace.t;  (** what wildcard resolution saw *)
  resolved : Scalatrace.Trace.t option;  (** [Some] when resolution ran *)
}

type counts = {
  mutable events : int;
  mutable rsds : int;
  mutable align_runs : int;
  mutable fallbacks : int;
  mutable statements : int;
  mutable lower_events : int;
}

let new_counts () =
  {
    events = 0;
    rsds = 0;
    align_runs = 0;
    fallbacks = 0;
    statements = 0;
    lower_events = 0;
  }

let span = Prof.span

(* Pipeline.run after the trace is acquired, with the default (strict)
   configuration. *)
let generate prof counts ~name trace =
  let open Scalatrace in
  let input_rsds = Trace.rsd_count trace in
  counts.rsds <- counts.rsds + input_rsds;
  let needs_align =
    span prof "core.align_check" (fun () -> Trace.has_unaligned_collectives trace)
  in
  let trace =
    if not needs_align then trace
    else begin
      counts.align_runs <- counts.align_runs + 1;
      span prof "core.align" (fun () ->
          (Align.run_policy ~policy:`Strict trace).Align.out)
    end
  in
  let needs_wildcard =
    span prof "core.wildcard_check" (fun () -> Trace.has_wildcards trace)
  in
  let resolved =
    if not needs_wildcard then None
    else
      Some
        (span prof "core.wildcard" (fun () ->
             Wildcard.run
               ~on_fallback:(fun _ -> counts.fallbacks <- counts.fallbacks + 1)
               trace))
  in
  let final = Option.value ~default:trace resolved in
  let program = span prof "core.codegen" (fun () -> Codegen.program ~name final) in
  let text = span prof "conceptual.pretty" (fun () -> Conceptual.Pretty.program program) in
  let statements = Conceptual.Ast.size program in
  counts.statements <- counts.statements + statements;
  { text; program; input_rsds; statements; aligned_input = trace; resolved }

(* Pipeline.run (From_app): trace the application under the tracer and
   the mpiP hook, merge, then generate. *)
let from_app prof counts ~id ~nranks app =
  let tracer = Scalatrace.Tracer.create ~nranks () in
  let profile = Mpip.create () in
  let outcome =
    span prof "scalatrace.record" (fun () ->
        Mpisim.Mpi.run
          ~hooks:[ Scalatrace.Tracer.hook tracer; Mpip.hook profile ]
          ~coll_alg:`Monolithic ~nranks app)
  in
  counts.events <- counts.events + outcome.Mpisim.Engine.events;
  let trace = span prof "scalatrace.merge" (fun () -> Scalatrace.Tracer.finish tracer) in
  generate prof counts ~name:id trace

(* Pipeline.run (From_file) under strict recovery. *)
let from_file prof counts ~id path =
  let trace = span prof "scalatrace.load" (fun () -> Scalatrace.Trace_io.load ~path) in
  generate prof counts ~name:id trace

(* The per-job root that the mirrored calls of one job hang under. *)
let job prof ~id f = span prof ~args:[ ("id", Obs.Sink.A_str id) ] "job" f

type validation = {
  generated : Mpisim.Engine.outcome;
  original : Mpisim.Engine.outcome;
  generated_profile : Mpip.t;
  original_profile : Mpip.t;
}

(* Pipeline.validate: the generated benchmark lowered and run, then the
   original application, both under mpiP. *)
let validate prof counts ~nranks app program =
  let generated_profile = Mpip.create () and original_profile = Mpip.create () in
  let lowered =
    span prof "conceptual.lower" (fun () ->
        Conceptual.Lower.run ~coll_alg:`Monolithic
          ~hooks:[ Mpip.hook generated_profile ]
          ~nranks program)
  in
  counts.lower_events <- counts.lower_events + lowered.outcome.Mpisim.Engine.events;
  let original =
    span prof "mpip.original" (fun () ->
        Mpisim.Mpi.run ~coll_alg:`Monolithic ~hooks:[ Mpip.hook original_profile ] ~nranks app)
  in
  { generated = lowered.outcome; original; generated_profile; original_profile }

let diag prof ~id ?app (g : generated) =
  span prof ~tid:1 ~args:[ ("id", Obs.Sink.A_str id) ] "diag" (fun () ->
      (match app with
      | Some (nranks, app) ->
          span prof ~tid:1 "mpisim.sim" (fun () ->
              ignore
                (Mpisim.Mpi.run ~hooks:[ Mpip.hook (Mpip.create ()) ]
                   ~coll_alg:`Monolithic ~nranks app))
      | None -> ());
      match g.resolved with
      | None -> ()
      | Some resolved ->
          span prof ~tid:1 "core.wildcard_traversal" (fun () ->
              try ignore (Wildcard.run ~strategy:`Traversal g.aligned_input)
              with Wildcard.Potential_deadlock _ -> ());
          span prof ~tid:1 "replay.replay" (fun () -> ignore (Replay.run resolved)))

(* Section 5.2 of the paper, as bench/experiments.ml applies it: send- and
   receive-family call counts and point-to-point bytes must match exactly.
   Collectives and communicator calls are not compared, because lowering
   adds MPI_Comm_split and Table 1 maps e.g. Gather to Reduce. *)
let p2p_mismatches v =
  let count profile names field =
    List.fold_left
      (fun acc (e : Mpip.entry) ->
        if List.mem e.op_name names then acc + field e else acc)
      0 (Mpip.entries profile)
  in
  let sends = [ "MPI_Send"; "MPI_Isend" ] and recvs = [ "MPI_Recv"; "MPI_Irecv" ] in
  let calls (e : Mpip.entry) = e.calls and bytes (e : Mpip.entry) = e.bytes in
  List.filter_map
    (fun (what, names, field) ->
      let o = count v.original_profile names field
      and g = count v.generated_profile names field in
      if o = g then None else Some (Printf.sprintf "%s: original %d, generated %d" what o g))
    [ ("send calls", sends, calls); ("recv calls", recvs, calls); ("p2p bytes", sends @ recvs, bytes) ]
