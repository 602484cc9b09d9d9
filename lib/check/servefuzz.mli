(** Seeded service fuzzer for the serve-mode worker pool
    ([benchgen fuzz --mode serve [--workers N]]).

    Each seed builds a deterministic timeline of external inputs —
    submissions in bursts, health probes, and a final drain or
    shutdown — and plays it against a {!Serve.Pool} of [workers] slots
    through {!Serve.Pool.Sim} on virtual time, with a small random
    admission bound and retry policy.  Scripted workers (the serve
    analogue of the pipeline [defect] seam) play each job's kind.

    With [workers = 1] the kinds are clean, flaky (fails until recovery
    escalates to best-effort), fatal (always fails), hanging (killed at
    its deadline), raising in-process (the worker survives), and
    oversized or garbage request lines (rejected before admission).
    With [workers > 1] raising jobs and bad lines give way to process
    deaths — [K_crash_once] kills its first worker and then succeeds on
    the retry, [K_poison] kills every worker it touches and must be
    quarantined — and the timeline adds out-of-band worker kills.  The
    transcript is timestamped, so determinism also pins the virtual
    schedule (dispatch order, restart backoff, breaker trips).

    The contract asserted on the full transcript:
    - {b typed responses only}: every emitted line re-parses as a
      {!Serve.Protocol.response} and round-trips byte-identically;
    - {b no lost jobs}: every accepted submission gets exactly one
      terminal response (result or cancelled); every rejected one gets
      none;
    - {b bounded queue}: the queue never exceeds its configured limit
      (high-water checked via the [serve.queue_depth_max] gauge);
    - {b clean drain}: after drain/shutdown no live jobs remain and
      the summary's counts agree with the responses seen;
    - {b determinism}: the same seed produces a byte-identical
      transcript (each scenario is run twice and compared). *)

type config = {
  seed_start : int;
  seeds : int;
  workers : int;
      (** pool slots (>= 1); 1 draws the single-worker job kinds, more
          draw worker deaths and kill injections *)
  log : string -> unit;
}

val default : config

type violation = { v_seed : int; v_what : string }

type summary = {
  cases : int;  (** scenarios run *)
  jobs : int;  (** total submissions across all scenarios *)
  violations : violation list;
  metrics : Obs.Metrics.t;  (** merged [serve.*] + [servefuzz.*] instruments *)
}

val run : config -> summary

(** The response transcript of one seed's scenario (one timestamped,
    ["\n"]-terminated line per response) — exposed so tests can assert
    same-seed byte-equality directly. *)
val transcript : ?workers:int -> seed:int -> unit -> string
