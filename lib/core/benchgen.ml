module Traversal = Traversal
module Align = Align
module Wildcard = Wildcard
module Collective_map = Collective_map
module Codegen = Codegen
module Cgen = Cgen
module Extrap = Extrap
module Pipeline = Pipeline

type report = Pipeline.report = {
  program : Conceptual.Ast.program;
  text : string;
  aligned : bool;
  resolved : bool;
  input_rsds : int;
  final_rsds : int;
  statements : int;
}

type warning = Pipeline.warning =
  | W_aligned of { input_rsds : int; output_rsds : int }
  | W_wildcard_resolved
  | W_wildcard_fallback of string
  | W_salvaged of Scalatrace.Salvage.report
  | W_truncated_frontier of { anchors : int; dropped_events : int }
  | W_missing_participants of { missing : int list; detail : string }

type gen_error = Pipeline.gen_error =
  | E_potential_deadlock of string
  | E_align of string
  | E_wildcard of string
  | E_trace_format of string
  | E_io of string
  | E_codegen of string
  | E_unrecoverable_trace of string

let warning_to_string = Pipeline.warning_to_string
let error_to_string = Pipeline.error_to_string

(* ------------------------------------------------------------------ *)
(* Fidelity under noise: does the generated benchmark still track the
   original application when the machine misbehaves?  Every trial draws
   a perturbed network (scaled latency/bandwidth) plus a seeded fault
   plan, runs both programs under identical conditions, and records the
   signed timing error — the paper's Fig. 6/7 comparison, now with a
   distribution instead of a single clean run.                          *)

type noise_sample = {
  ns_seed : int;
  ns_latency_factor : float;
  ns_bandwidth_factor : float;
  ns_original : float;
  ns_generated : float;
  ns_error_pct : float;
}

type noise_report = {
  nr_baseline_error_pct : float;
  nr_samples : noise_sample list;
  nr_mean_abs_error_pct : float;
  nr_max_abs_error_pct : float;
  nr_stddev_error_pct : float;
}

let validate_under_noise ?(net = Mpisim.Netmodel.bluegene_l) ?(trials = 5)
    ?(base_seed = 1) ?fault ~nranks app (report : report) =
  if trials < 1 then invalid_arg "validate_under_noise: trials must be >= 1";
  let template =
    match fault with
    | Some f -> f
    | None ->
        Mpisim.Fault.make ~seed:base_seed
          ~jitter_mean:(2. *. net.Mpisim.Netmodel.latency) ~os_noise:0.05 ()
  in
  let err ~reference ~measured = Util.Stats.pct_error ~reference ~measured in
  let baseline_orig = Mpisim.Mpi.run ~net ~nranks app in
  let baseline_gen = Conceptual.Lower.run ~net ~nranks report.program in
  let rng = Util.Rng.create ~seed:base_seed in
  let samples =
    List.init trials (fun i ->
        let lat_f = Util.Rng.uniform rng 1.0 2.0 in
        let bw_f = Util.Rng.uniform rng 0.5 1.0 in
        let tnet = Mpisim.Netmodel.scale ~latency:lat_f ~bandwidth:bw_f net in
        let f = { template with Mpisim.Fault.seed = base_seed + i } in
        let o = Mpisim.Mpi.run ~net:tnet ~fault:f ~nranks app in
        let g = Conceptual.Lower.run ~net:tnet ~fault:f ~nranks report.program in
        {
          ns_seed = f.Mpisim.Fault.seed;
          ns_latency_factor = lat_f;
          ns_bandwidth_factor = bw_f;
          ns_original = o.Mpisim.Engine.elapsed;
          ns_generated = g.Conceptual.Lower.outcome.Mpisim.Engine.elapsed;
          ns_error_pct =
            err ~reference:o.Mpisim.Engine.elapsed
              ~measured:g.Conceptual.Lower.outcome.Mpisim.Engine.elapsed;
        })
  in
  let errs = List.map (fun s -> s.ns_error_pct) samples in
  let mean_signed = Util.Stats.mean errs in
  let stddev =
    sqrt
      (Util.Stats.mean
         (List.map (fun e -> (e -. mean_signed) *. (e -. mean_signed)) errs))
  in
  {
    nr_baseline_error_pct =
      err ~reference:baseline_orig.Mpisim.Engine.elapsed
        ~measured:baseline_gen.Conceptual.Lower.outcome.Mpisim.Engine.elapsed;
    nr_samples = samples;
    nr_mean_abs_error_pct = Util.Stats.mean (List.map Float.abs errs);
    nr_max_abs_error_pct = Util.Stats.max_abs errs;
    nr_stddev_error_pct = stddev;
  }
