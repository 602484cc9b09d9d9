(* Differential tests for the per-rank compiler.

   {!Lower_ref} is the statement-walking interpreter [Conceptual.Lower]
   replaced.  Both run the same program on the simulator and must agree
   on everything observable: each rank's calls (operation with its
   arguments, communicator, site, enter and return times), the engine
   outcome, the logs, the mpiP profile and, for a failing program, the
   error.  The interpreter lets an evaluation error escape as
   [Ast.Eval_error msg]; the compiler reports it as [Lower_error] with
   the failing statement's site label in front of [msg]. *)

open Conceptual
module Pipeline = Benchgen.Pipeline

let t name f = Alcotest.test_case name `Quick f

type event =
  | Enter of Mpisim.Call.op * int * Util.Callsite.t * float
  | Return of float

type failure =
  | Lowering of string  (** [Lower_error], from either implementation *)
  | Evaluation of string  (** [Eval_error] escaping the interpreter *)
  | Other of string

type observed = {
  result : (Mpisim.Engine.outcome * (string * (int * float) list) list, failure) result;
  calls : event list array; (* per rank, newest first *)
  profile : Mpip.t;
}

let observe run ~nranks p =
  let calls = Array.make nranks [] in
  let push r e = calls.(r) <- e :: calls.(r) in
  let hook =
    {
      Mpisim.Hooks.nil with
      on_enter =
        (fun ~world_rank ~time (c : Mpisim.Call.t) ->
          push world_rank (Enter (c.op, Mpisim.Comm.id c.comm, c.site, time)));
      on_return = (fun ~world_rank ~time _ _ -> push world_rank (Return time));
    }
  in
  let profile = Mpip.create () in
  let result =
    match run ~hooks:[ hook; Mpip.hook profile ] ~nranks p with
    | r -> Ok r
    | exception (Lower.Lower_error m | Lower_ref.Lower_error m) -> Error (Lowering m)
    | exception Ast.Eval_error m -> Error (Evaluation m)
    | exception e -> Error (Other (Printexc.to_string e))
  in
  { result; calls; profile }

let compiled ~hooks ~nranks p =
  let r = Lower.run ~hooks ~nranks p in
  (r.outcome, r.logs)

let reference ~hooks ~nranks p =
  let r = Lower_ref.run ~hooks ~nranks p in
  (r.outcome, r.logs)

let failure_to_string = function
  | Lowering m -> "Lower_error: " ^ m
  | Evaluation m -> "Eval_error: " ^ m
  | Other m -> m

(* [label]: the site the compiler must name for an evaluation error;
   without it any statement site is accepted. *)
let same_failure ?label ~got ~want () =
  match (got, want) with
  | Lowering g, Evaluation w -> (
      match label with
      | Some l -> g = l ^ ": " ^ w
      | None ->
          String.starts_with ~prefix:"ncptl:" g
          && String.ends_with ~suffix:(": " ^ w) g)
  | _ -> got = want

(* What a program must do: run to completion, fail, or fail with an
   evaluation error the compiler attributes to the statement at [label]. *)
type expect = Runs | Fails | Fails_at of string

(* Returns the compiled run's observation, for tests that assert more. *)
let check ?(expect = Runs) ~what ~nranks p =
  let got = observe compiled ~nranks p and want = observe reference ~nranks p in
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) what in
  let result_to_string = function
    | Ok _ -> "ran"
    | Error f -> failure_to_string f
  in
  Array.iteri
    (fun r want_calls ->
      let got_calls = List.rev got.calls.(r) and want_calls = List.rev want_calls in
      let rec first i = function
        | g :: gs, w :: ws -> if g = w then first (i + 1) (gs, ws) else i
        | _ -> i
      in
      if got_calls <> want_calls then
        fail "rank %d: %d calls/returns, reference %d, first difference at %d \
              (%s; reference %s)"
          r (List.length got_calls) (List.length want_calls)
          (first 0 (got_calls, want_calls))
          (result_to_string got.result) (result_to_string want.result))
    want.calls;
  (match Mpip.diff got.profile want.profile with
  | [] -> ()
  | d -> fail "mpiP profiles differ: %s" (String.concat "; " d));
  (match (got.result, want.result) with
  | Ok (go, gl), Ok (wo, wl) ->
      if go <> wo then fail "engine outcomes differ";
      if gl <> wl then fail "logs differ"
  | Error g, Error w ->
      let label = match expect with Fails_at l -> Some l | Runs | Fails -> None in
      if not (same_failure ?label ~got:g ~want:w ()) then
        fail "error %S, reference %S" (failure_to_string g) (failure_to_string w)
  | Ok _, Error w -> fail "ran, reference failed with %S" (failure_to_string w)
  | Error g, Ok _ -> fail "failed with %S, reference ran" (failure_to_string g));
  (match (expect, got.result) with
  | Runs, Error f -> fail "expected a complete run, got %S" (failure_to_string f)
  | (Fails | Fails_at _), Ok _ -> fail "expected an error"
  | _ -> ());
  got

let check_text ?expect ~what ~nranks text =
  ignore (check ?expect ~what ~nranks (Parse.program text))

(* ------------------------------------------------------------------ *)
(* Generated benchmarks                                                *)

let generated ~nranks ~name app =
  let a =
    Generate.artifact
      ~cfg:{ Pipeline.default with name = Some name }
      (Pipeline.From_app { nranks; app })
  in
  a.Pipeline.report.program

let check_app ~cls ~wanted name =
  let app = Option.get (Apps.Registry.find name) in
  let nranks = Apps.Registry.fit_nranks app ~wanted in
  let p = generated ~nranks ~name (app.program ~cls ()) in
  ignore (check ~what:(Printf.sprintf "%s-%d" name nranks) ~nranks p)

let generated_tests =
  [
    t "registry apps at 16 ranks, class S" (fun () ->
        List.iter
          (fun (app : Apps.Registry.app) ->
            check_app ~cls:Apps.Params.S ~wanted:16 app.name)
          Apps.Registry.all);
    t "cg, mg, kripke, amg and laghos at 64 ranks, class W" (fun () ->
        List.iter
          (check_app ~cls:Apps.Params.W ~wanted:64)
          [ "cg"; "mg"; "kripke"; "amg"; "laghos" ]);
    t "200 generator seeds per mode through Pipeline.run" (fun () ->
        List.iter
          (fun mode ->
            for seed = 1 to 200 do
              let prog = Check.Gen.generate_with ~mode ~seed in
              let nranks = prog.Check.Gen.nranks in
              let p =
                generated ~nranks ~name:"gen" (Check.Gen.to_app prog)
              in
              ignore (check ~what:(Printf.sprintf "gen seed %d" seed) ~nranks p)
            done)
          [ `Mixed; `Neighbor ]);
  ]

(* ------------------------------------------------------------------ *)
(* Hand-written programs: the generator never emits FOR EACH, IF or
   implicit receives.                                                   *)

let every_kind =
  "ALL TASKS RESET THEIR COUNTERS THEN\n\
   TASK 0 SENDS A 64 BYTE MESSAGE TO TASK 1 THEN\n\
   ALL TASKS t ASYNCHRONOUSLY SEND A 32 BYTE MESSAGE TO TASK (t + 1) MOD 8 THEN\n\
   ALL TASKS AWAIT COMPLETION THEN\n\
   TASKS t SUCH THAT t < 4 SEND A 16 BYTE MESSAGE TO TASK t + 4 USING TAG 3 \
   WITH NO IMPLICIT RECEIVE THEN\n\
   TASKS t SUCH THAT t >= 4 RECEIVE A 16 BYTE MESSAGE FROM TASK t - 4 USING TAG 3 THEN\n\
   TASK 2 ASYNCHRONOUSLY RECEIVES A 8 BYTE MESSAGE FROM TASK 3 USING ANY TAG THEN\n\
   TASK 3 SENDS A 8 BYTE MESSAGE TO TASK 2 USING TAG 5 WITH NO IMPLICIT RECEIVE THEN\n\
   TASK 2 AWAITS COMPLETION THEN\n\
   ALL TASKS SYNCHRONIZE THEN\n\
   TASKS t SUCH THAT t < 4 SYNCHRONIZE THEN\n\
   TASK 5 SYNCHRONIZES THEN\n\
   TASK 0 MULTICASTS A 128 BYTE MESSAGE TO ALL TASKS THEN\n\
   TASK 6 MULTICASTS A 128 BYTE MESSAGE TO TASKS t SUCH THAT t < 3 THEN\n\
   ALL TASKS REDUCE A 64 BYTE MESSAGE TO ALL TASKS THEN\n\
   TASKS t SUCH THAT t < 4 REDUCE A 64 BYTE MESSAGE TO TASK 6 THEN\n\
   ALL TASKS REDUCE A 64 BYTE MESSAGE TO TASKS t SUCH THAT t >= 5 THEN\n\
   TASKS t SUCH THAT t < 3 REDUCE A 64 BYTE MESSAGE TO TASKS t SUCH THAT t < 3 THEN\n\
   TASKS t SUCH THAT t < 3 REDUCE A 8 BYTE MESSAGE TO TASKS t SUCH THAT t >= 4 THEN\n\
   ALL TASKS SEND A 32 BYTE MESSAGE TO ALL OTHER TASKS THEN\n\
   TASKS t SUCH THAT 2 DIVIDES t SEND A 32 BYTE MESSAGE TO ALL OTHER TASKS THEN\n\
   ALL TASKS EXCHANGE A 16 BYTE MESSAGE WITH NEIGHBORS AT OFFSETS 1, 7 THEN\n\
   TASKS t SUCH THAT t < 6 GATHER A 16 BYTE MESSAGE FROM NEIGHBORS AT OFFSETS 2 THEN\n\
   TASKS t SUCH THAT t < 6 EXCHANGE A 16 BYTE MESSAGE WITH NEIGHBORS AT OFFSETS 6 THEN\n\
   ALL TASKS t COMPUTE FOR t * 10 MICROSECONDS THEN\n\
   FOR 3 REPETITIONS {\n\
   TASKS t SUCH THAT t > 5 COMPUTE FOR 20 MICROSECONDS THEN\n\
   TASK 7 SENDS A 8 BYTE MESSAGE TO TASK 0\n\
   } THEN\n\
   FOR 2 REPETITIONS {\nTASK 9 COMPUTES FOR 10 MICROSECONDS\n} THEN\n\
   TASK 0 LOGS elapsed_usecs AS \"elapsed\""

let for_each_dynamic =
  "FOR EACH i IN {1, ..., 3} {\n\
   TASK i SENDS A 16 BYTE MESSAGE TO TASK i + 4 THEN\n\
   TASKS t SUCH THAT t < i ASYNCHRONOUSLY SEND A 8 BYTE MESSAGE TO TASK t + i \
   WITH NO IMPLICIT RECEIVE THEN\n\
   TASKS t SUCH THAT t >= i AND t < 2 * i ASYNCHRONOUSLY RECEIVE A 8 BYTE \
   MESSAGE FROM TASK t - i THEN\n\
   ALL TASKS AWAIT COMPLETION THEN\n\
   ALL TASKS t COMPUTE FOR (t + i) * 5 MICROSECONDS THEN\n\
   TASK 0 SENDS A i * 8 BYTE MESSAGE TO TASK 7 THEN\n\
   FOR i REPETITIONS {\nTASK 2 COMPUTES FOR 3 MICROSECONDS\n} THEN\n\
   FOR EACH j IN {i, ..., 3} {\n\
   TASKS t SUCH THAT t = j + 2 COMPUTE FOR j MICROSECONDS THEN\n\
   ALL TASKS t ASYNCHRONOUSLY SEND A j BYTE MESSAGE TO TASK (t + j) MOD 8 THEN\n\
   ALL TASKS AWAIT COMPLETION\n\
   }\n\
   }"

let if_else =
  "IF 2 > 1 THEN {\nTASK 0 SENDS A 8 BYTE MESSAGE TO TASK 1\n} ELSE {\n\
   ALL TASKS SYNCHRONIZE\n} THEN\n\
   IF 1 = 2 THEN {\nTASK 3 COMPUTES FOR 5 MICROSECONDS\n} THEN\n\
   FOR EACH i IN {0, ..., 3} {\n\
   IF 2 DIVIDES i THEN {\nTASKS t SUCH THAT t < 2 SYNCHRONIZE\n} ELSE {\n\
   TASK i COMPUTES FOR 100 MICROSECONDS THEN\n\
   IF i > 2 THEN {\nTASK 3 SENDS A 8 BYTE MESSAGE TO TASK i - 3\n}\n}\n\
   } THEN\n\
   FOR EACH i IN {0, ..., 1} {\nIF i = 5 THEN {\nTASK 1 COMPUTES FOR 1 MICROSECONDS\n}\n} THEN\n\
   ALL TASKS SYNCHRONIZE"

let implicit_receives =
  "ALL TASKS t SEND A 16 BYTE MESSAGE TO TASK (t + 1) MOD 4 THEN\n\
   TASKS t SUCH THAT t < 2 ASYNCHRONOUSLY SEND A 16 BYTE MESSAGE TO TASK t + 2 THEN\n\
   ALL TASKS AWAIT COMPLETION THEN\n\
   TASKS t SUCH THAT t > 0 SEND A t * 4 BYTE MESSAGE TO TASK 0 THEN\n\
   ALL TASKS t ASYNCHRONOUSLY SEND A 8 BYTE MESSAGE TO TASK 3 - t USING TAG 2 THEN\n\
   ALL TASKS AWAIT COMPLETION THEN\n\
   FOR EACH i IN {1, ..., 3} {\n\
   TASK 0 SENDS A 8 BYTE MESSAGE TO TASK i THEN\n\
   TASKS t SUCH THAT t = i ASYNCHRONOUSLY SEND A i BYTE MESSAGE TO TASK 0 THEN\n\
   TASK 0 AWAITS COMPLETION THEN\n\
   TASKS t SUCH THAT t < 3 SEND A 8 BYTE MESSAGE TO TASK (t + i) MOD 4\n\
   }"

let logs =
  "FOR 4 REPETITIONS {\n\
   ALL TASKS RESET THEIR COUNTERS THEN\n\
   ALL TASKS t COMPUTE FOR (t + 1) * 50 MICROSECONDS THEN\n\
   ALL TASKS t SEND A 64 BYTE MESSAGE TO TASK (t + 1) MOD 4 THEN\n\
   ALL TASKS LOG THE MEAN OF elapsed_usecs AS \"mean\" THEN\n\
   TASKS t SUCH THAT t < 2 LOG THE MEDIAN OF elapsed_usecs AS \"median\" THEN\n\
   TASK 1 LOGS THE MINIMUM OF elapsed_usecs AS \"min\" THEN\n\
   ALL TASKS LOG THE MAXIMUM OF elapsed_usecs AS \"max\" THEN\n\
   TASK 0 RESETS THEIR COUNTERS THEN\n\
   TASK 0 LOGS elapsed_usecs AS \"raw\"\n\
   }"

let program_tests =
  [
    t "every statement kind" (fun () ->
        check_text ~what:"every kind" ~nranks:8 every_kind);
    t "FOR EACH with loop-dependent task sets and peers" (fun () ->
        check_text ~what:"for each" ~nranks:8 for_each_dynamic);
    t "IF/ELSE with closed and loop-dependent conditions" (fun () ->
        check_text ~what:"if" ~nranks:4 if_else);
    t "static and dynamic implicit receives" (fun () ->
        check_text ~what:"implicit" ~nranks:4 implicit_receives);
    t "LOG with each aggregate, and RESET" (fun () ->
        let got = check ~what:"logs" ~nranks:4 (Parse.program logs) in
        match got.result with
        | Ok (_, l) ->
            Alcotest.(check (list string))
              "series" [ "max"; "mean"; "median"; "min"; "raw" ] (List.map fst l)
        | Error _ -> Alcotest.fail "logs program failed");
  ]

(* ------------------------------------------------------------------ *)
(* Failing programs: the same error, at the same point of the run       *)

let error_tests =
  [
    t "unbound variable" (fun () ->
        check_text ~expect:(Fails_at "ncptl:.0.0") ~what:"unbound" ~nranks:4
          "FOR 2 REPETITIONS {\nTASK 0 SENDS A 8 BYTE MESSAGE TO TASK i\n}");
    t "division by zero" (fun () ->
        check_text ~expect:(Fails_at "ncptl:.0") ~what:"div0" ~nranks:4
          "TASK 0 COMPUTES FOR 10/0 MICROSECONDS");
    t "division by zero after communication" (fun () ->
        check_text ~expect:(Fails_at "ncptl:.2") ~what:"div0 late" ~nranks:4
          "ALL TASKS SYNCHRONIZE THEN\n\
           TASK 1 SENDS A 8 BYTE MESSAGE TO TASK 0 THEN\n\
           TASK 0 COMPUTES FOR 1/0 MICROSECONDS");
    t "unbound variable in a dynamic task set" (fun () ->
        check_text ~expect:(Fails_at "ncptl:.1") ~what:"unbound set" ~nranks:4
          "ALL TASKS SYNCHRONIZE THEN\nTASKS t SUCH THAT t = k AWAIT COMPLETION");
    t "negative message size" (fun () ->
        check_text ~expect:Fails ~what:"negative" ~nranks:4
          "TASK 0 SENDS A -8 BYTE MESSAGE TO TASK 1");
    t "negative REDUCE size is evaluated on every rank" (fun () ->
        check_text ~expect:Fails ~what:"negative reduce" ~nranks:4
          "FOR EACH i IN {0, ..., 1} {\n\
           TASKS t SUCH THAT t < 2 REDUCE A 8 - 16 * i BYTE MESSAGE TO TASK 0\n\
           }");
    t "send outside the task range" (fun () ->
        check_text ~expect:Fails ~what:"range implicit" ~nranks:4
          "TASK 0 SENDS A 8 BYTE MESSAGE TO TASK 99";
        check_text ~expect:Fails ~what:"range explicit" ~nranks:4
          "ALL TASKS t SEND A 8 BYTE MESSAGE TO TASK t + 1 WITH NO IMPLICIT RECEIVE");
    t "a loop whose body names only a nonexistent task" (fun () ->
        check_text ~what:"no task" ~nranks:4
          "FOR 3 REPETITIONS {\nTASK 99 COMPUTES FOR 10 MICROSECONDS\n}";
        check_text ~expect:(Fails_at "ncptl:.0") ~what:"no task, bad count" ~nranks:4
          "FOR 3/0 REPETITIONS {\nTASK 99 COMPUTES FOR 10 MICROSECONDS\n}";
        check_text ~expect:(Fails_at "ncptl:.1") ~what:"no task, unbound bound" ~nranks:4
          "ALL TASKS SYNCHRONIZE THEN\n\
           FOR EACH i IN {1, ..., n} {\nTASK 99 SENDS A 8 BYTE MESSAGE TO TASK 0\n}";
        check_text ~expect:(Fails_at "ncptl:.0") ~what:"no task, bad condition" ~nranks:4
          "IF 1/0 = 1 THEN {\nTASK 99 COMPUTES FOR 10 MICROSECONDS\n}");
    t "a COMPUTE for no time still checks a dynamic task set" (fun () ->
        check_text ~expect:(Fails_at "ncptl:.0.0") ~what:"zero compute" ~nranks:4
          "FOR EACH i IN {0, ..., 1} {\n\
           TASKS t SUCH THAT t = 5 / i COMPUTE FOR 0 MICROSECONDS\n\
           }");
    t "collective errors are raised before the run" (fun () ->
        check_text ~expect:Fails ~what:"loop group" ~nranks:4
          "FOR EACH i IN {0, ..., 1} {\nTASK i SYNCHRONIZES\n}";
        check_text ~expect:Fails ~what:"multicast sources" ~nranks:4
          "ALL TASKS MULTICAST A 8 BYTE MESSAGE TO ALL TASKS";
        check_text ~expect:Fails ~what:"empty group" ~nranks:4
          "TASKS t SUCH THAT t > 9 SYNCHRONIZE");
    t "deadlock" (fun () ->
        check_text ~expect:Fails ~what:"deadlock" ~nranks:4
          "TASK 0 RECEIVES A 8 BYTE MESSAGE FROM TASK 1");
  ]

let suite = program_tests @ error_tests @ generated_tests
