(* Corruption-robustness campaigns.

   Where {!Campaign} fuzzes the pipeline's *semantics* with random
   programs, this module fuzzes its *ingestion* with damaged trace
   files: take a known-good trace in each framed format (v2, one frame
   per rank; v3, one frame per top-level node), mutilate it (bit flips,
   truncations — including one at every frame boundary — whole-frame
   ablation, garbled headers), and assert the robustness contract:

   - no mutation may crash or hang the loader or the pipeline — every
     outcome is typed (strict load, salvage report, typed [gen_error]);
   - strict loading and salvage agree: a case strict loading accepts
     salvages to the same trace with no damage noted, and a case it
     refuses salvages damaged or not at all;
   - under best-effort recovery, every salvaged trace with at least two
     surviving ranks must still yield a parseable, replayable benchmark.

   All mutations are deterministic functions of the seed. *)

type outcome_kind =
  | O_strict_ok  (** damage missed everything the strict loader checks *)
  | O_salvaged_generated  (** salvage + best-effort pipeline succeeded *)
  | O_salvaged_error of string  (** salvaged, but the pipeline said no *)
  | O_unrecoverable  (** the salvage loader itself gave up (typed) *)

type violation = {
  v_seed : int;
  v_app : string;
  v_mutation : string;
  v_what : string;  (** what broke the contract *)
}

type config = {
  seed_start : int;
  seeds : int;
  apps : string list;  (** registry apps to draw baselines from *)
  nranks : int;
  sweep_boundaries : bool;
      (** additionally truncate each baseline at every frame boundary *)
  replay_max_events : int;  (** watchdog for the replay check *)
  log : string -> unit;
}

let default =
  {
    seed_start = 1;
    seeds = 100;
    apps = [ "ring"; "stencil2d"; "butterfly"; "cg" ];
    nranks = 8;
    sweep_boundaries = true;
    replay_max_events = 500_000;
    log = ignore;
  }

type tally = {
  cases : int;
  strict_ok : int;
  salvaged : int;
  unrecoverable : int;
  generated : int;
  replayed : int;
}

type summary = {
  total : tally;
  by_format : (int * tally) list;
  violations : violation list;
  metrics : Obs.Metrics.t;
}

let formats = [ 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Baselines                                                            *)

let baseline_cache : (string * int, Scalatrace.Trace.t) Hashtbl.t = Hashtbl.create 8

let baseline ~format ~nranks name =
  let trace =
    match Hashtbl.find_opt baseline_cache (name, nranks) with
    | Some trace -> trace
    | None ->
        let app =
          match Apps.Registry.find name with
          | Some a -> a
          | None -> invalid_arg (Printf.sprintf "Corrupt: unknown app %S" name)
        in
        let trace, _ =
          Scalatrace.Tracer.trace_run
            ~nranks:(Apps.Registry.fit_nranks app ~wanted:nranks)
            (app.program ())
        in
        Hashtbl.replace baseline_cache (name, nranks) trace;
        trace
  in
  if format = 2 then Scalatrace.Trace_io.to_framed trace
  else Scalatrace.Trace_io.to_string trace

(* Byte offsets of every frame-header line — the interesting truncation
   points. *)
let frame_boundaries bytes =
  let n = String.length bytes in
  let rec go pos acc =
    if pos >= n then List.rev acc
    else
      let acc =
        if
          n - pos >= 6
          && String.sub bytes pos 6 = "frame "
          && (pos = 0 || bytes.[pos - 1] = '\n')
        then pos :: acc
        else acc
      in
      match String.index_from_opt bytes pos '\n' with
      | Some nl -> go (nl + 1) acc
      | None -> List.rev acc
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Mutations                                                            *)

(* [ablate] is the header prefix of the frames a whole-frame ablation
   may remove: one rank's stream in v2, one top-level node in v3. *)
let mutate ~ablate rng bytes =
  let n = String.length bytes in
  match Random.State.int rng 5 with
  | 0 ->
      let i = Random.State.int rng n in
      let b = Bytes.of_string bytes in
      let bit = 1 lsl Random.State.int rng 8 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bit));
      (Printf.sprintf "bit-flip@%d" i, Bytes.to_string b)
  | 1 ->
      let i = Random.State.int rng n in
      (Printf.sprintf "truncate@%d" i, String.sub bytes 0 i)
  | 2 -> (
      match frame_boundaries bytes with
      | [] -> ("truncate@0", "")
      | bs ->
          let i = List.nth bs (Random.State.int rng (List.length bs)) in
          (Printf.sprintf "truncate-boundary@%d" i, String.sub bytes 0 i))
  | 3 -> (
      (* ablate one whole frame: header line + payload + separator *)
      let bs = frame_boundaries bytes in
      let k = String.length ablate in
      let ablatable =
        List.filter
          (fun pos -> String.length bytes - pos > k && String.sub bytes pos k = ablate)
          bs
      in
      match ablatable with
      | [] -> ("noop", bytes)
      | rf ->
          let start = List.nth rf (Random.State.int rng (List.length rf)) in
          let stop =
            match List.find_opt (fun b -> b > start) bs with
            | Some b -> b
            | None -> String.length bytes
          in
          ( Printf.sprintf "ablate-frame@%d" start,
            String.sub bytes 0 start
            ^ String.sub bytes stop (String.length bytes - stop) ))
  | _ -> (
      (* garble a frame-header line *)
      match frame_boundaries bytes with
      | [] -> ("noop", bytes)
      | bs ->
          let pos = List.nth bs (Random.State.int rng (List.length bs)) in
          let b = Bytes.of_string bytes in
          Bytes.set b (pos + 2) '?';
          (Printf.sprintf "garble-header@%d" pos, Bytes.to_string b))

(* ------------------------------------------------------------------ *)
(* One case                                                             *)

let surviving_ranks (report : Scalatrace.Salvage.report) =
  List.length
    (List.filter
       (fun (rr : Scalatrace.Salvage.rank_recovery) -> rr.rr_events > 0)
       report.per_rank)

(* Run one mutated byte string through load → salvage → best-effort
   pipeline → parse → replay, classifying the outcome and returning the
   contract violation, if any.  Strict loading and salvage share one
   reader, so a case strict loading accepts must salvage to the same
   trace with no damage noted, and a case it refuses must salvage damaged
   or not at all. *)
let check_case cfg ~seed ~app ~mutation bytes =
  let violation what = Some { v_seed = seed; v_app = app; v_mutation = mutation; v_what = what } in
  match Scalatrace.Trace_io.of_string bytes with
  | strict -> (
      let v3 = Scalatrace.Trace_io.to_string in
      match Scalatrace.Salvage.of_string bytes with
      | Ok (trace, report)
        when (not (Scalatrace.Salvage.is_degraded report)) && v3 trace = v3 strict ->
          (O_strict_ok, None, false)
      | Ok _ | Error _ ->
          (O_strict_ok, violation "salvage read a file strict loading accepts differently", false)
      | exception e ->
          (O_strict_ok, violation ("salvage loader raised " ^ Printexc.to_string e), false))
  | exception Scalatrace.Trace_io.Format_error _ -> (
      match Scalatrace.Salvage.of_string bytes with
      | Error _ -> (O_unrecoverable, None, false)
      | exception e ->
          ( O_unrecoverable,
            violation
              ("salvage loader raised " ^ Printexc.to_string e),
            false )
      | Ok (_, report) when not (Scalatrace.Salvage.is_degraded report) ->
          ( O_salvaged_error "no damage noted",
            violation "salvage found no damage in a file strict loading refuses",
            false )
      | Ok (trace, report) -> (
          let survivors = surviving_ranks report in
          let cfg' =
            {
              Benchgen.Pipeline.default with
              recovery = `Best_effort;
              max_events = Some cfg.replay_max_events;
            }
          in
          match
            Benchgen.Pipeline.run cfg' (Benchgen.Pipeline.From_trace trace)
          with
          | exception e ->
              ( O_salvaged_error (Printexc.to_string e),
                violation ("pipeline raised " ^ Printexc.to_string e),
                false )
          | Error e ->
              let msg = Benchgen.Pipeline.error_to_string e in
              ( O_salvaged_error msg,
                (if survivors >= 2 then
                   violation
                     (Printf.sprintf
                        "best-effort generation refused a trace with %d \
                         surviving ranks: %s"
                        survivors msg)
                 else None),
                false )
          | Ok (artifact, _warnings) -> (
              let text = artifact.Benchgen.Pipeline.report.text in
              match Conceptual.Parse.program text with
              | exception e ->
                  ( O_salvaged_generated,
                    violation
                      ("generated benchmark does not parse: "
                     ^ Printexc.to_string e),
                    false )
              | program -> (
                  match
                    Conceptual.Lower.run
                      ~max_events:cfg.replay_max_events
                      ~nranks:(Scalatrace.Trace.nranks trace)
                      program
                  with
                  | _res -> (O_salvaged_generated, None, true)
                  | exception e ->
                      ( O_salvaged_generated,
                        violation
                          ("generated benchmark does not replay: "
                         ^ Printexc.to_string e),
                        false )))))

(* ------------------------------------------------------------------ *)
(* Campaign                                                             *)

let zero =
  { cases = 0; strict_ok = 0; salvaged = 0; unrecoverable = 0; generated = 0; replayed = 0 }

let count t kind did_replay =
  let t = { t with cases = t.cases + 1; replayed = t.replayed + Bool.to_int did_replay } in
  match kind with
  | O_strict_ok -> { t with strict_ok = t.strict_ok + 1 }
  | O_salvaged_generated -> { t with salvaged = t.salvaged + 1; generated = t.generated + 1 }
  | O_salvaged_error _ -> { t with salvaged = t.salvaged + 1 }
  | O_unrecoverable -> { t with unrecoverable = t.unrecoverable + 1 }

let outcome_tag = function
  | O_strict_ok -> "strict_ok"
  | O_salvaged_generated -> "salvaged_generated"
  | O_salvaged_error _ -> "salvaged_error"
  | O_unrecoverable -> "unrecoverable"

(* Every case runs against both formats: the boundary sweep over each
   baseline, then each seed's mutation drawn afresh from the same seed
   for the v2 and the v3 bytes. *)
let run cfg =
  let metrics = Obs.Metrics.create () in
  let tallies = Hashtbl.create 2 in
  let violations = ref [] in
  let record ~format (kind, viol, did_replay) =
    let t = Option.value ~default:zero (Hashtbl.find_opt tallies format) in
    Hashtbl.replace tallies format (count t kind did_replay);
    Obs.Metrics.inc metrics
      ~labels:[ ("format", Printf.sprintf "v%d" format); ("outcome", outcome_tag kind) ]
      "corrupt.cases";
    match viol with
    | None -> ()
    | Some v ->
        violations := v :: !violations;
        Obs.Metrics.inc metrics "corrupt.violations";
        cfg.log
          (Printf.sprintf "VIOLATION seed=%d app=%s %s: %s" v.v_seed v.v_app
             v.v_mutation v.v_what)
  in
  let case ~format ~seed ~app ~mutation bytes =
    let mutation = Printf.sprintf "v%d %s" format mutation in
    record ~format (check_case cfg ~seed ~app ~mutation bytes)
  in
  (* exhaustive frame-boundary truncation sweep *)
  if cfg.sweep_boundaries then
    List.iter
      (fun format ->
        List.iter
          (fun app ->
            let bytes = baseline ~format ~nranks:cfg.nranks app in
            List.iter
              (fun pos ->
                case ~format ~seed:0 ~app
                  ~mutation:(Printf.sprintf "sweep-truncate@%d" pos)
                  (String.sub bytes 0 pos))
              (frame_boundaries bytes))
          cfg.apps)
      formats;
  (* seeded random mutations *)
  for seed = cfg.seed_start to cfg.seed_start + cfg.seeds - 1 do
    let app = List.nth cfg.apps (seed mod List.length cfg.apps) in
    List.iter
      (fun format ->
        let bytes = baseline ~format ~nranks:cfg.nranks app in
        let rng = Random.State.make [| seed; 0x5eed |] in
        let ablate = if format = 2 then "frame rank:" else "frame nodes:" in
        let mutation, mutated = mutate ~ablate rng bytes in
        case ~format ~seed ~app ~mutation mutated)
      formats
  done;
  let by_format =
    List.map
      (fun f -> (f, Option.value ~default:zero (Hashtbl.find_opt tallies f)))
      formats
  in
  let total =
    List.fold_left
      (fun a (_, t) ->
        {
          cases = a.cases + t.cases;
          strict_ok = a.strict_ok + t.strict_ok;
          salvaged = a.salvaged + t.salvaged;
          unrecoverable = a.unrecoverable + t.unrecoverable;
          generated = a.generated + t.generated;
          replayed = a.replayed + t.replayed;
        })
      zero by_format
  in
  { total; by_format; violations = List.rev !violations; metrics }
