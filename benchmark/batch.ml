(* The three generation workloads: a fixed list of jobs, each one timed
   call (or two) into the public pipeline API, repeated pass after pass.

   - npb-generate: [Pipeline.run (From_app ...)] over the paper's suite.
   - lu-wildcard: the same over LU, the one app that needs [`Auto]
     wildcard resolution.
   - regen-validate: [Pipeline.run (From_file ...)] then
     [Pipeline.validate] over traces saved during set-up. *)

open Harness
module Pipeline = Benchgen.Pipeline

type kind = Generate | Regenerate

type job = {
  id : string;
  nranks : int;
  program : Mpisim.Mpi.ctx -> unit;
  file : string;  (** where set-up saves the raw trace (regen-validate) *)
}

type workload = {
  kind : kind;
  jobs : (string * int) list;  (** app, wanted ranks; smoke runs use 16 *)
  wildcards : bool;  (** whether the pipeline must resolve wildcards *)
}

let workloads =
  [
    ( "npb-generate",
      {
        kind = Generate;
        jobs =
          [
            ("bt", 64); ("cg", 64); ("mg", 64); ("sp", 64); ("sweep3d", 64);
            ("ep", 1024); ("ft", 1024); ("is", 1024);
          ];
        wildcards = false;
      } );
    ("lu-wildcard", { kind = Generate; jobs = [ ("lu", 64); ("lu", 256) ]; wildcards = true });
    ( "regen-validate",
      {
        kind = Regenerate;
        jobs = [ ("mg", 32); ("cg", 64); ("kripke", 36); ("amg", 64); ("laghos", 64) ];
        wildcards = false;
      } );
  ]

(* Application inputs are the registry's own; the seed orders the jobs. *)
let make_jobs ctx w =
  let specs =
    Array.of_list
      (if ctx.smoke then List.sort_uniq compare (List.map (fun (a, _) -> (a, 16)) w.jobs)
       else w.jobs)
  in
  Util.Rng.shuffle (Util.Rng.create ~seed:ctx.seed) specs;
  List.map
    (fun (name, wanted) ->
      let app = find_app name in
      let nranks = Apps.Registry.fit_nranks app ~wanted in
      let id = Printf.sprintf "%s-%d" name nranks in
      {
        id;
        nranks;
        program = app.program ~cls:Apps.Params.C ();
        file = Filename.concat ctx.out (Printf.sprintf "regen-%s.trace" id);
      })
    (Array.to_list specs)

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)

(* regen-validate: the raw, unaligned traces its jobs read.  The other
   workloads warm up instead: one generation per application at 16
   ranks, so heap growth and lazy initialisation are not timed. *)
let setup ctx w jobs =
  match w.kind with
  | Regenerate ->
      mkdir_p ctx.out;
      List.iter
        (fun j ->
          let trace, _ = Scalatrace.Tracer.trace_run ~nranks:j.nranks j.program in
          Prof.span ctx.prof "scalatrace.save" (fun () ->
              Scalatrace.Trace_io.save trace ~path:j.file))
        jobs
  | Generate ->
      List.iter
        (fun name ->
          let app = find_app name in
          let nranks = Apps.Registry.fit_nranks app ~wanted:16 in
          ignore
            (Pipeline.run Pipeline.default
               (Pipeline.From_app { nranks; app = app.program () })))
        (List.sort_uniq compare (List.map fst w.jobs))

(* ------------------------------------------------------------------ *)
(* One job                                                             *)

type result = {
  time : float;  (** seconds in the timed public calls *)
  text : string;
  program : Conceptual.Ast.program;
  statements : int;
  final_rsds : int;
  events : int;
  trace_bytes : int;
  error_pct : float;  (** regen-validate only *)
}

let config j = { Pipeline.default with name = Some j.id }

let run_job tally w j =
  match w.kind with
  | Generate -> (
      let r, time =
        timed (fun () ->
            Pipeline.run (config j) (Pipeline.From_app { nranks = j.nranks; app = j.program }))
      in
      match r with
      | Error e ->
          violation tally "%s: %s" j.id (Pipeline.error_to_string e);
          None
      | Ok (a, _) ->
          let report = a.Pipeline.report in
          if report.resolved <> w.wildcards then
            violation tally "%s: wildcard resolution %s, expected %s" j.id
              (if report.resolved then "ran" else "skipped")
              (if w.wildcards then "to run" else "to be skipped");
          Some
            {
              time;
              text = report.text;
              program = report.program;
              statements = report.statements;
              final_rsds = report.final_rsds;
              events =
                (match a.trace_outcome with Some o -> o.Mpisim.Engine.events | None -> 0);
              trace_bytes = String.length (Scalatrace.Trace_io.to_framed a.resolved_trace);
              error_pct = 0.;
            })
  | Regenerate -> (
      let r, time =
        timed (fun () ->
            match Pipeline.run (config j) (Pipeline.From_file j.file) with
            | Error e -> Error e
            | Ok (a, _) -> Ok (a, Pipeline.validate (config j) ~nranks:j.nranks j.program a))
      in
      match r with
      | Error e ->
          violation tally "%s: %s" j.id (Pipeline.error_to_string e);
          None
      | Ok (a, f) ->
          let report = a.Pipeline.report in
          let o = f.f_original and g = f.f_generated in
          if o.messages <> g.messages || o.p2p_bytes <> g.p2p_bytes then
            violation tally "%s: generated benchmark sends %d messages / %d bytes, original %d / %d"
              j.id g.messages g.p2p_bytes o.messages o.p2p_bytes;
          if not (Float.is_finite f.f_error_pct) then
            violation tally "%s: timing error is not finite" j.id;
          Some
            {
              time;
              text = report.text;
              program = report.program;
              statements = report.statements;
              final_rsds = report.final_rsds;
              events = g.events;
              trace_bytes = file_size j.file;
              error_pct = f.f_error_pct;
            })

(* Checks that need the job's output only once per run: the program
   re-parses to itself, and (regen-validate) the paper's Section 5.2
   point-to-point counts and volumes match.  Later passes must repeat the
   output exactly, so checking it again would prove nothing new. *)
let check_once tally w j r ~validation =
  (match Conceptual.Parse.program r.text with
  | p when Conceptual.Pretty.program p = r.text -> ()
  | _ -> violation tally "%s: generated program does not re-print to itself" j.id
  | exception Conceptual.Parse.Parse_error msg ->
      violation tally "%s: generated program does not parse: %s" j.id msg);
  if w.kind = Regenerate then begin
    let v =
      match validation with
      | Some v -> v
      | None -> Mirror.validate None (Mirror.new_counts ()) ~nranks:j.nranks j.program r.program
    in
    List.iter (violation tally "%s: Section 5.2: %s" j.id) (Mirror.p2p_mismatches v)
  end

(* The traced run's mirror of the job, plus its diagnostics. *)
let mirror ctx counts w j r =
  let prof = ctx.prof in
  let g, validation =
    Mirror.job prof ~id:j.id (fun () ->
        match w.kind with
        | Generate -> (Mirror.from_app prof counts ~id:j.id ~nranks:j.nranks j.program, None)
        | Regenerate ->
            let g = Mirror.from_file prof counts ~id:j.id j.file in
            (g, Some (Mirror.validate prof counts ~nranks:j.nranks j.program g.program)))
  in
  Mirror.diag prof ~id:j.id
    ?app:(if w.kind = Generate then Some (j.nranks, j.program) else None)
    g;
  (g.text = r.text, validation)

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)

(* What one job reports, from a child process in the untraced run. *)
type summary = {
  time : float;  (** seconds in the timed public calls *)
  statements : int;
  trace_bytes : int;
  error_pct : float;
  fingerprint : string;  (** must repeat exactly in every pass *)
  errors : string list;
  peak_rss : float;  (** VmHWM of the child, MiB; 0 in the traced run *)
}

(* The job, its checks and, traced, its mirror. *)
let job ctx counts w j ~first =
  let t = tally () in
  match run_job t w j with
  | None -> Error (String.concat "; " (List.rev t.errors))
  | Some r ->
      let validation =
        match ctx.prof with
        | None -> None
        | Some _ ->
            let same, v = mirror ctx counts w j r in
            if not same then violation t "%s: the traced mirror generated a different program" j.id;
            v
      in
      if first then check_once t w j r ~validation;
      Ok
        {
          time = r.time;
          statements = r.statements;
          trace_bytes = r.trace_bytes;
          error_pct = r.error_pct;
          fingerprint =
            Printf.sprintf "events=%d rsds=%d statements=%d trace_bytes=%d text=%s" r.events
              r.final_rsds r.statements r.trace_bytes
              (Digest.to_hex (Digest.string r.text));
          errors = List.rev t.errors;
          peak_rss = 0.;
        }

type pass = {
  results : (string * summary) list;
  layers : (string * float) list;  (** traced run only *)
}

let run ctx name tally =
  let w = List.assoc name workloads in
  let jobs = make_jobs ctx w in
  let (), setup_s =
    setup_median
      ~setup:(fun () -> Prof.span ctx.prof "setup" (fun () -> setup ctx w jobs))
      ~teardown:ignore
  in
  let setup_layers = setup_layers ctx in
  Gc.compact ();
  let memo = Hashtbl.create 16 in
  let pass i =
    let counts = Mirror.new_counts () in
    let results =
      List.filter_map
        (fun j ->
          let result = ref None in
          operation tally (fun () ->
              (* untraced, every job starts from the same set-up state in a
                 child of its own, as a fresh benchgen process would: its
                 time and peak memory do not depend on the jobs before it *)
              let outcome =
                match ctx.prof with
                | Some _ -> job ctx counts w j ~first:(i = 0)
                | None -> (
                    match isolated (fun () -> job ctx counts w j ~first:(i = 0)) with
                    | Ok (r, rss) -> Result.map (fun s -> { s with peak_rss = rss }) r
                    | Error msg -> Error (j.id ^ ": " ^ msg))
              in
              match outcome with
              | Error msg -> violation tally "%s" msg
              | Ok s ->
                  List.iter (violation tally "%s") s.errors;
                  same_every_pass tally memo j.id s.fingerprint;
                  result := Some (j.id, s));
          !result)
        jobs
    in
    let layers =
      match ctx.prof with
      | None -> []
      | Some p ->
          let totals = Prof.take p in
          let untraced = Stats.sum (List.map (fun (_, s) -> s.time) results) in
          layer_values totals @ count_values counts @ serve_layers_bypassed
          @ [
              ("trace_overhead_pct", 100. *. (root_total totals -. untraced) /. untraced);
              ( "fidelity.timing_error_pct",
                List.fold_left (fun m (_, s) -> Float.max m (Float.abs s.error_pct)) 0. results );
            ]
    in
    { results; layers }
  in
  let passes = passes ctx pass in
  let per_job f id =
    Stats.median (List.filter_map (fun p -> Option.map f (List.assoc_opt id p.results)) passes)
  in
  (* each job's median over passes; a pass is their sum *)
  let job_s = List.map (fun j -> per_job (fun s -> s.time) j.id) jobs in
  let job_ms = List.map (fun s -> 1000. *. s) job_s in
  let first = (List.hd passes).results in
  let total f = float_of_int (List.fold_left (fun acc (_, s) -> acc + f s) 0 first) in
  let end_to_end =
    [
      ("setup_s", setup_s);
      ("pass_s", Stats.sum job_s);
      ("latency_p50_ms", Stats.median job_ms);
      ("latency_tail_ms", List.fold_left Float.max 0. job_ms);
      ("peak_rss_mb", List.fold_left (fun m j -> Float.max m (per_job (fun s -> s.peak_rss) j.id)) 0. jobs);
      ("trace_bytes", total (fun s -> s.trace_bytes));
      ("ncptl_statements", total (fun s -> s.statements));
    ]
  in
  let per_layer = per_layer_values ~setup:setup_layers (List.map (fun p -> p.layers) passes) in
  (List.length passes, end_to_end, per_layer)
