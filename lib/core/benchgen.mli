(** End-to-end benchmark generation (paper Figure 1, right half).

    trace → \[collective alignment if needed\] → \[wildcard resolution if
    needed\] → coNCePTuaL code generation.  Both trace-rewriting passes are
    gated by their O(r) pre-checks.

    The pipeline lives in {!Pipeline}: one {!Pipeline.config} record, one
    {!Pipeline.run} entry point, observability built in.  This module
    re-exports the stages, the pipeline, and its result types, and adds
    {!validate_under_noise}. *)

(** Re-exported pipeline stages. *)

module Traversal = Traversal
module Align = Align
module Wildcard = Wildcard
module Collective_map = Collective_map
module Codegen = Codegen
module Cgen = Cgen
module Extrap = Extrap

(** The unified entry point. *)
module Pipeline = Pipeline

(** The result/diagnostic types are {!Pipeline}'s, re-exported with
    equality so existing constructors keep working. *)

type report = Pipeline.report = {
  program : Conceptual.Ast.program;
  text : string;  (** pretty-printed .ncptl source *)
  aligned : bool;  (** Algorithm 1 ran *)
  resolved : bool;  (** Algorithm 2 ran *)
  input_rsds : int;
  final_rsds : int;  (** RSDs after the rewriting passes *)
  statements : int;  (** statements in the generated program *)
}

type warning = Pipeline.warning =
  | W_aligned of { input_rsds : int; output_rsds : int }
      (** Algorithm 1 merged partial-participant collectives *)
  | W_wildcard_resolved  (** Algorithm 2 pinned wildcard receives *)
  | W_wildcard_fallback of string
      (** the [`Auto] strategy abandoned the untimed traversal *)
  | W_salvaged of Scalatrace.Salvage.report
      (** the trace file was damaged; generation continued from what the
          salvage loader recovered *)
  | W_truncated_frontier of { anchors : int; dropped_events : int }
      (** best-effort recovery cut the benchmark at the last globally
          consistent collective frontier *)
  | W_missing_participants of { missing : int list; detail : string }
      (** a collective could never complete ([detail] is the wait-for
          graph) *)

type gen_error = Pipeline.gen_error =
  | E_potential_deadlock of string  (** paper Figure 5: input can hang *)
  | E_align of string  (** collective misuse in the trace *)
  | E_wildcard of string  (** malformed point-to-point structure *)
  | E_trace_format of string  (** unparseable trace file *)
  | E_io of string  (** file-system failure *)
  | E_codegen of string  (** code generation rejected the trace *)
  | E_unrecoverable_trace of string
      (** the damaged trace kept nothing usable, or recovery policy
          forbids generating from what remains *)

val warning_to_string : warning -> string
val error_to_string : gen_error -> string

(** {1 Fidelity under noise}

    The paper validates a generated benchmark with one clean run per
    platform (Fig. 6/7).  [validate_under_noise] instead samples a
    distribution: each trial perturbs the network (latency scaled by a
    factor in [1, 2), bandwidth by a factor in [0.5, 1)) and applies a
    seeded fault plan, then runs the original application and the
    generated benchmark under identical perturbed conditions and records
    the signed timing error between them.  (For a single clean
    timing/semantics check with span instrumentation, see
    {!Pipeline.validate}.) *)

type noise_sample = {
  ns_seed : int;  (** fault seed used for this trial *)
  ns_latency_factor : float;
  ns_bandwidth_factor : float;
  ns_original : float;  (** original application elapsed, seconds *)
  ns_generated : float;  (** generated benchmark elapsed, seconds *)
  ns_error_pct : float;  (** signed percentage error, generated vs original *)
}

type noise_report = {
  nr_baseline_error_pct : float;  (** error of the clean, unperturbed run *)
  nr_samples : noise_sample list;
  nr_mean_abs_error_pct : float;
  nr_max_abs_error_pct : float;
  nr_stddev_error_pct : float;  (** stddev of the signed errors *)
}

(** [validate_under_noise ~nranks app report] — [report] must have been
    generated from [app] at the same rank count.  All randomness derives
    from [base_seed]; the result is bit-reproducible.
    @param trials number of perturbed runs (default 5).
    @param fault template plan applied to every trial (its [seed] is
      overridden per trial); default: mild latency jitter plus 5% OS
      noise.
    @raise Invalid_argument when [trials < 1]. *)
val validate_under_noise :
  ?net:Mpisim.Netmodel.t ->
  ?trials:int ->
  ?base_seed:int ->
  ?fault:Mpisim.Fault.t ->
  nranks:int ->
  (Mpisim.Mpi.ctx -> unit) ->
  report ->
  noise_report
