module P = Serve.Protocol
module Policy = Serve.Policy
module Pool = Serve.Pool

type config = {
  seed_start : int;
  seeds : int;
  workers : int;
  log : string -> unit;
}

let default = { seed_start = 1; seeds = 50; workers = 1; log = ignore }

type violation = { v_seed : int; v_what : string }

type summary = {
  cases : int;
  jobs : int;
  violations : violation list;
  metrics : Obs.Metrics.t;
}

(* The job kinds a scripted worker can play — the serve analogue of the
   pipeline defect seam.  [K_oversized] and [K_garbage] never reach a
   worker: they exercise the protocol's admission path. *)
type kind =
  | K_clean
  | K_flaky  (** fails below [`Best_effort], succeeds there *)
  | K_fatal  (** fails at every recovery level *)
  | K_hang  (** never answers; freed only by the deadline kill *)
  | K_raise  (** the attempt raises in-process; the worker survives *)
  | K_crash_once  (** kills its first worker, then succeeds *)
  | K_poison  (** kills every worker it touches *)
  | K_oversized
  | K_garbage

(* A one-slot pool draws in-process raises and bad request lines; a
   wider pool draws worker deaths in their place. *)
let draw_kind ~workers rng =
  match Util.Rng.int rng 10 with
  | 0 | 1 | 2 | 3 -> K_clean
  | 4 | 5 -> K_flaky
  | 6 -> K_fatal
  | 7 -> K_hang
  | 8 when workers > 1 -> K_crash_once
  | 8 -> ( match Util.Rng.int rng 2 with 0 -> K_raise | _ -> K_oversized)
  | _ when workers > 1 -> K_poison
  | _ -> K_garbage

let max_request_bytes = 512

(* One scenario: returns (transcript, violations, submissions, metrics). *)
let scenario ~seed ~workers =
  let rng = Util.Rng.create ~seed in
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let queue_limit = 4 + Util.Rng.int rng 8 in
  let policy =
    {
      Policy.default with
      deadline_s = Some 1.0;
      max_retries = 1 + Util.Rng.int rng 2;
      backoff_base_s = 0.01;
      backoff_max_s = 0.5;
      jitter = 0.3;
    }
  in
  let wpolicy =
    {
      Pool.default_wpolicy with
      workers;
      restart_backoff_base_s = 0.02;
      restart_backoff_max_s = 0.2;
      breaker_deaths = 2 + Util.Rng.int rng 2;
      breaker_window_s = 10.0;
      breaker_cooldown_s = 0.5 +. Util.Rng.float rng;
      poison_crashes = 2;
    }
  in
  let pool = Pool.create ~queue_limit ~seed ~wpolicy () in
  let jobs : (string, kind * float) Hashtbl.t = Hashtbl.create 32 in
  let n_jobs = 10 + Util.Rng.int rng 15 in
  let submitted = ref 0 in
  (* deterministic timeline of external inputs, built up front *)
  let timeline = ref [] and tcur = ref 0. in
  let add input = timeline := (!tcur, input) :: !timeline in
  let reject_line what line =
    match P.parse_request ~default_policy:policy ~max_bytes:max_request_bytes line with
    | Error (id, reason) -> add (Pool.Sim.I_reject (id, reason))
    | Ok _ -> violate "%s was not rejected" what
  in
  let submit_one () =
    match draw_kind ~workers rng with
    | K_oversized ->
        (* longer than the configured cap; the body never gets parsed *)
        reject_line "oversized line"
          (Printf.sprintf "{\"op\":\"submit\",\"id\":\"big\",\"pad\":\"%s\"}"
             (String.make (max_request_bytes + 64) 'x'))
    | K_garbage -> reject_line "garbage line" "this is not json"
    | kind ->
        incr submitted;
        let id = Printf.sprintf "s%d-j%d" seed !submitted in
        let dur = 0.01 +. (Util.Rng.float rng *. 0.2) in
        Hashtbl.replace jobs id (kind, dur);
        add
          (Pool.Sim.I_submit
             {
               P.sub_id = id;
               sub_source = P.J_file (id ^ ".trace");
               sub_policy = policy;
               sub_out = None;
               sub_emit_text = false;
             })
  in
  while !submitted < n_jobs do
    tcur := !tcur +. (Util.Rng.float rng *. 0.15);
    match Util.Rng.int rng 10 with
    | 0 | 1 | 2 | 3 | 4 ->
        let burst = 1 + Util.Rng.int rng 2 in
        for _ = 1 to burst do
          if !submitted < n_jobs then submit_one ()
        done
    | 5 when workers > 1 -> add (Pool.Sim.I_kill (Util.Rng.int rng workers))
    | 6 -> add Pool.Sim.I_health
    | _ -> submit_one ()
  done;
  tcur := !tcur +. 0.2;
  let shutdown = Util.Rng.int rng 4 = 0 in
  add (if shutdown then Pool.Sim.I_shutdown else Pool.Sim.I_drain);
  let timeline = List.rev !timeline in
  let script (sub : P.submit) ~attempt ~recovery =
    let kind, dur =
      try Hashtbl.find jobs sub.P.sub_id with Not_found -> (K_clean, 0.01)
    in
    match kind with
    | K_clean ->
        Pool.Sim.B_ok { dur; statements = 4 + int_of_float (dur *. 100.) }
    | K_flaky ->
        if recovery = `Best_effort then Pool.Sim.B_ok { dur; statements = 3 }
        else
          Pool.Sim.B_error
            {
              dur;
              error =
                {
                  P.e_tag = "unrecoverable_trace";
                  e_path = Some (sub.P.sub_id ^ ".trace");
                  e_retryable = true;
                  e_detail =
                    "synthetic: damaged trace, needs best-effort recovery";
                };
            }
    | K_fatal ->
        Pool.Sim.B_error
          {
            dur;
            error =
              {
                P.e_tag = "trace_format";
                e_path = Some (sub.P.sub_id ^ ".trace");
                e_retryable = true;
                e_detail = "synthetic: unparseable at every recovery level";
              };
          }
    | K_hang -> Pool.Sim.B_hang
    | K_raise ->
        Pool.Sim.B_raise { dur; detail = "synthetic in-process exception" }
    | K_crash_once ->
        if attempt = 0 then
          Pool.Sim.B_crash { dur; detail = "synthetic segfault (first attempt)" }
        else Pool.Sim.B_ok { dur; statements = 2 }
    | K_poison -> Pool.Sim.B_crash { dur; detail = "synthetic poison pill" }
    | K_oversized | K_garbage -> assert false
  in
  let outcomes =
    try Pool.Sim.run ~spawn_delay_s:0.005 ~pool ~script ~timeline ()
    with exn ->
      violate "pool raised during scenario: %s" (Printexc.to_string exn);
      []
  in
  let transcript = Buffer.create 4096 in
  List.iter
    (fun (at, r) ->
      Buffer.add_string transcript
        (Printf.sprintf "%.6f %s\n" at (P.response_to_line r));
      (* typed-responses-only: every line must round-trip *)
      match P.response_of_line (P.response_to_line r) with
      | r' ->
          if r' <> r then
            violate "response does not round-trip: %s" (P.response_to_line r)
      | exception Obs.Json.Parse_error msg ->
          violate "unparseable response (%s): %s" msg (P.response_to_line r))
    outcomes;
  (* --- transcript-level contract ------------------------------------ *)
  let responses = List.map snd outcomes in
  let accepted = Hashtbl.create 32 and terminal = Hashtbl.create 32 in
  let rejected_ids = Hashtbl.create 8 in
  let results = ref 0 and cancelled = ref 0 and drained = ref None in
  List.iter
    (fun (r : P.response) ->
      match r with
      | P.Accepted { id; _ } -> Hashtbl.replace accepted id ()
      | P.Rejected { id = Some id; _ } -> Hashtbl.replace rejected_ids id ()
      | P.Rejected { id = None; _ } -> ()
      | P.Result_ok { id; _ } ->
          incr results;
          Hashtbl.replace terminal id
            (1 + Option.value ~default:0 (Hashtbl.find_opt terminal id))
      | P.Result_error { id; attempts; error } ->
          incr results;
          Hashtbl.replace terminal id
            (1 + Option.value ~default:0 (Hashtbl.find_opt terminal id));
          if error.P.e_tag = "poisoned" && attempts < 2 then
            violate "job %s poisoned after only %d attempt(s)" id attempts
      | P.Cancelled { id } ->
          incr cancelled;
          Hashtbl.replace terminal id
            (1 + Option.value ~default:0 (Hashtbl.find_opt terminal id))
      | P.Health_report h ->
          if h.queue_depth > queue_limit then
            violate "health reports queue depth %d > limit %d" h.queue_depth
              queue_limit
      | P.Drained { jobs_run; cancelled } -> drained := Some (jobs_run, cancelled))
    responses;
  Hashtbl.iter
    (fun id () ->
      match Hashtbl.find_opt terminal id with
      | Some 1 -> ()
      | Some n -> violate "job %s got %d terminal responses" id n
      | None -> violate "job %s was accepted but never resolved (lost)" id)
    accepted;
  Hashtbl.iter
    (fun id () ->
      if (not (Hashtbl.mem accepted id)) && Hashtbl.mem terminal id then
        violate "job %s was rejected yet got a terminal response" id)
    rejected_ids;
  (match !drained with
  | None -> violate "no drained summary emitted"
  | Some (jobs_run, d_cancelled) ->
      if jobs_run <> !results then
        violate "drained.jobs_run=%d but %d results seen" jobs_run !results;
      if d_cancelled <> !cancelled then
        violate "drained.cancelled=%d but %d cancellations seen" d_cancelled
          !cancelled);
  if not (Pool.idle pool) then
    violate "pool not idle after drain: %d live jobs" (Pool.queue_length pool);
  let depth_max =
    match Obs.Metrics.gauge_value (Pool.metrics pool) "serve.queue_depth_max" with
    | Some d -> int_of_float d
    | None -> 0
  in
  if depth_max > queue_limit then
    violate "queue depth high-water %d exceeds limit %d" depth_max queue_limit;
  ( Buffer.contents transcript,
    List.rev !violations,
    !submitted,
    Pool.metrics pool )

let transcript ?(workers = 1) ~seed () =
  let t, _, _, _ = scenario ~seed ~workers in
  t

let run cfg =
  let metrics = Obs.Metrics.create () in
  let violations = ref [] in
  let jobs = ref 0 in
  for i = 0 to cfg.seeds - 1 do
    let seed = cfg.seed_start + i in
    let t1, vs, submitted, m = scenario ~seed ~workers:cfg.workers in
    jobs := !jobs + submitted;
    Obs.Metrics.merge_into metrics m;
    List.iter
      (fun v ->
        cfg.log (Printf.sprintf "seed %d: VIOLATION: %s" seed v);
        violations := { v_seed = seed; v_what = v } :: !violations)
      vs;
    (* same seed => byte-identical transcript *)
    let t2, _, _, _ = scenario ~seed ~workers:cfg.workers in
    if t1 <> t2 then begin
      cfg.log (Printf.sprintf "seed %d: VIOLATION: transcript not deterministic" seed);
      violations :=
        { v_seed = seed; v_what = "same-seed transcripts differ" }
        :: !violations
    end
  done;
  Obs.Metrics.inc metrics ~by:cfg.seeds "servefuzz.cases";
  Obs.Metrics.inc metrics ~by:!jobs "servefuzz.jobs";
  {
    cases = cfg.seeds;
    jobs = !jobs;
    violations = List.rev !violations;
    metrics;
  }
