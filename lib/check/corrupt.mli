(** Corruption-robustness campaigns over the framed trace formats.

    Where {!Campaign} fuzzes the pipeline's semantics with random
    programs, this module fuzzes its ingestion with damaged trace files.
    Every case runs twice, once on a v2 and once on a v3 baseline of the
    same registry application ({!Scalatrace.Trace_io}): a seeded mutation
    (bit flip, truncation at a random offset or at a frame boundary,
    whole-frame ablation — a rank frame in v2, a node frame in v3 —
    garbled frame header) is applied, and the robustness contract is
    checked:

    - no mutation may crash or hang the loader or the pipeline — every
      outcome must be typed (clean strict load, a {!Scalatrace.Salvage}
      report, or a typed {!Benchgen.Pipeline.gen_error});
    - strict loading and salvage agree: a case strict loading accepts
      must salvage to the same v3 bytes with a report that is not
      degraded, and a case it refuses must salvage degraded or as
      unrecoverable;
    - under [`Best_effort] recovery, every salvaged trace with at least
      two surviving ranks must still yield a benchmark that parses and
      replays (bounded by a watchdog).

    All mutations are deterministic functions of the seed; a reported
    violation replays exactly. *)

type outcome_kind =
  | O_strict_ok  (** damage missed everything the strict loader checks *)
  | O_salvaged_generated  (** salvage + best-effort pipeline succeeded *)
  | O_salvaged_error of string  (** salvaged, but the pipeline refused *)
  | O_unrecoverable  (** the salvage loader itself gave up (typed) *)

type violation = {
  v_seed : int;  (** 0 for boundary-sweep cases *)
  v_app : string;
  v_mutation : string;  (** e.g. ["v3 bit-flip@1234"], replayable *)
  v_what : string;  (** which contract clause broke, and how *)
}

type config = {
  seed_start : int;
  seeds : int;  (** number of random-mutation cases per format *)
  apps : string list;  (** registry apps to draw baselines from *)
  nranks : int;  (** requested rank count (fitted per app) *)
  sweep_boundaries : bool;
      (** additionally truncate each baseline (both formats) at every
          frame boundary *)
  replay_max_events : int;  (** watchdog for the replay check *)
  log : string -> unit;  (** violation log line sink *)
}

(** 100 seeds over ring/stencil2d/butterfly/cg at 8 ranks, with the
    boundary sweep on. *)
val default : config

type tally = {
  cases : int;
  strict_ok : int;
  salvaged : int;  (** salvage loader recovered something *)
  unrecoverable : int;
  generated : int;  (** best-effort pipeline produced a benchmark *)
  replayed : int;  (** the benchmark also parsed and replayed *)
}

type summary = {
  total : tally;
  by_format : (int * tally) list;  (** [(2, _); (3, _)] *)
  violations : violation list;  (** empty = contract held everywhere *)
  metrics : Obs.Metrics.t;
      (** [corrupt.cases{format,outcome}] and [corrupt.violations]
          counters *)
}

val run : config -> summary
