(* Serve mode: supervision policy (backoff schedule, recovery
   escalation), wire protocol round-trips, per-job retry/escalation/
   admission behavior on a one-slot pool, the worker pool's concurrent
   supervision on virtual time, the seeded service fuzzer, and
   domain-safety of the metrics registry the server aggregates into. *)

module Policy = Serve.Policy
module P = Serve.Protocol
module Pipeline = Benchgen.Pipeline

let t name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Policy: backoff schedule and recovery escalation                    *)

let policy_tests =
  [
    t "backoff schedule is deterministic per seed" (fun () ->
        let schedule seed =
          let rng = Util.Rng.create ~seed in
          List.init 6 (fun i ->
              Policy.backoff_s Policy.default ~rng ~attempt:(i + 1))
        in
        Alcotest.(check (list (float 0.)))
          "same seed, same delays" (schedule 42) (schedule 42);
        Alcotest.(check bool)
          "different seed, different delays" true
          (schedule 42 <> schedule 43));
    t "backoff grows exponentially and respects the cap" (fun () ->
        let p =
          {
            Policy.default with
            backoff_base_s = 0.1;
            backoff_factor = 2.0;
            backoff_max_s = 0.5;
            jitter = 0.;
          }
        in
        let rng = Util.Rng.create ~seed:1 in
        let d attempt = Policy.backoff_s p ~rng ~attempt in
        Alcotest.(check (float 1e-9)) "attempt 1" 0.1 (d 1);
        Alcotest.(check (float 1e-9)) "attempt 2" 0.2 (d 2);
        Alcotest.(check (float 1e-9)) "attempt 3" 0.4 (d 3);
        Alcotest.(check (float 1e-9)) "attempt 4 capped" 0.5 (d 4);
        Alcotest.(check (float 1e-9)) "attempt 10 capped" 0.5 (d 10));
    t "jitter stays within [delay, delay*(1+jitter))" (fun () ->
        let p =
          {
            Policy.default with
            backoff_base_s = 1.0;
            backoff_factor = 1.0;
            backoff_max_s = 10.;
            jitter = 0.25;
          }
        in
        let rng = Util.Rng.create ~seed:7 in
        for _ = 1 to 200 do
          let d = Policy.backoff_s p ~rng ~attempt:1 in
          if d < 1.0 || d >= 1.25 then
            Alcotest.failf "jittered delay %f outside [1, 1.25)" d
        done);
    t "backoff_s rejects attempt < 1" (fun () ->
        let rng = Util.Rng.create ~seed:1 in
        match Policy.backoff_s Policy.default ~rng ~attempt:0 with
        | exception Invalid_argument _ -> ()
        | d -> Alcotest.failf "expected Invalid_argument, got %f" d);
    t "recovery escalates per retry and saturates" (fun () ->
        let p = { Policy.default with recovery = `Strict; escalate = true } in
        let r a = Policy.recovery_for_attempt p ~attempt:a in
        Alcotest.(check bool) "attempt 0 strict" true (r 0 = `Strict);
        Alcotest.(check bool) "attempt 1 salvage" true (r 1 = `Salvage);
        Alcotest.(check bool) "attempt 2 best-effort" true (r 2 = `Best_effort);
        Alcotest.(check bool) "attempt 9 saturates" true (r 9 = `Best_effort));
    t "escalation starts from the configured level" (fun () ->
        let p = { Policy.default with recovery = `Salvage } in
        Alcotest.(check bool) "attempt 0" true
          (Policy.recovery_for_attempt p ~attempt:0 = `Salvage);
        Alcotest.(check bool) "attempt 1" true
          (Policy.recovery_for_attempt p ~attempt:1 = `Best_effort));
    t "escalate=false pins every attempt" (fun () ->
        let p = { Policy.default with recovery = `Strict; escalate = false } in
        for a = 0 to 5 do
          Alcotest.(check bool)
            (Printf.sprintf "attempt %d" a)
            true
            (Policy.recovery_for_attempt p ~attempt:a = `Strict)
        done);
    t "override_from_json applies and validates fields" (fun () ->
        let j =
          Obs.Json.parse
            {|{"deadline_s":2.5,"max_retries":5,"recovery":"salvage",
               "escalate":false,"jitter":0.5}|}
        in
        (match Policy.override_from_json Policy.default j with
        | Error m -> Alcotest.failf "override failed: %s" m
        | Ok p ->
            Alcotest.(check (option (float 0.))) "deadline" (Some 2.5)
              p.Policy.deadline_s;
            Alcotest.(check int) "retries" 5 p.Policy.max_retries;
            Alcotest.(check bool) "recovery" true (p.Policy.recovery = `Salvage);
            Alcotest.(check bool) "escalate" false p.Policy.escalate);
        (match
           Policy.override_from_json Policy.default
             (Obs.Json.parse {|{"backoff_max_s":0.5}|})
         with
        | Ok p ->
            Alcotest.(check (float 0.)) "cap lowered" 0.5 p.Policy.backoff_max_s
        | Error m -> Alcotest.failf "lowering the cap rejected: %s" m);
        (* a retry delay beyond the server's cap would stall its drain *)
        List.iter
          (fun fields ->
            match
              Policy.override_from_json Policy.default (Obs.Json.parse fields)
            with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted %s" fields)
          [
            {|{"max_retries":-1}|};
            {|{"recovery":"yolo"}|};
            {|{"jitter":-0.1}|};
            {|{"jitter":1e9}|};
            {|{"backoff_max_s":-1}|};
            {|{"backoff_base_s":1e9,"backoff_max_s":1e9,"max_retries":1}|};
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* Protocol: parsing and rendering                                     *)

let sample_responses =
  [
    P.Accepted { id = "j1"; queue_depth = 3 };
    P.Rejected { id = Some "j2"; reason = P.Queue_full };
    P.Rejected { id = None; reason = P.Bad_request "not json" };
    P.Rejected { id = Some "big"; reason = P.Oversized { bytes = 999; limit = 100 } };
    P.Rejected { id = None; reason = P.Conn_limit { limit = 64 } };
    P.Rejected { id = Some "j9"; reason = P.Inflight_limit { limit = 16 } };
    P.Result_error
      {
        id = "jp";
        attempts = 2;
        error =
          {
            P.e_tag = "poisoned";
            e_path = None;
            e_retryable = false;
            e_detail = "job crashed 2 distinct workers; quarantined";
          };
      };
    P.Result_ok
      {
        id = "j3";
        attempts = 2;
        info =
          {
            P.ok_statements = 12;
            ok_final_rsds = 4;
            ok_recovery = "salvage";
            ok_warnings = [ ("salvaged", "6/8 frames intact") ];
            ok_text = Some "program text";
            ok_out = Some "/tmp/out.ncptl";
          };
      };
    P.Result_error
      {
        id = "j4";
        attempts = 3;
        error =
          {
            P.e_tag = "unrecoverable_trace";
            e_path = Some "/bad.trace";
            e_retryable = true;
            e_detail = "nothing survived";
          };
      };
    P.Cancelled { id = "j5" };
    P.Health_report
      {
        queue_depth = 1;
        queue_limit = 8;
        draining = false;
        submitted = 5;
        completed = 3;
        failed = 1;
        rejected = 0;
        cancelled = 0;
      };
    P.Drained { jobs_run = 4; cancelled = 1 };
  ]

let protocol_tests =
  [
    t "every response round-trips byte-identically" (fun () ->
        List.iter
          (fun r ->
            let line = P.response_to_line r in
            let r' = P.response_of_line line in
            Alcotest.(check bool)
              ("value round-trip: " ^ line)
              true (r = r');
            Alcotest.(check string) "byte round-trip" line
              (P.response_to_line r'))
          sample_responses);
    t "parse_request: submit with overrides" (fun () ->
        match
          P.parse_request ~default_policy:Policy.default ~max_bytes:4096
            {|{"op":"submit","id":"a","trace":"/t.trace","max_retries":0,"deadline_s":0.5}|}
        with
        | Ok (P.Submit s) ->
            Alcotest.(check string) "id" "a" s.P.sub_id;
            Alcotest.(check bool) "source" true (s.P.sub_source = P.J_file "/t.trace");
            Alcotest.(check int) "retries" 0 s.P.sub_policy.Policy.max_retries;
            Alcotest.(check (option (float 0.)))
              "deadline" (Some 0.5) s.P.sub_policy.Policy.deadline_s
        | Ok _ -> Alcotest.fail "wrong request kind"
        | Error (_, r) -> Alcotest.failf "rejected: %s" (P.reject_tag r));
    t "parse_request: app submit" (fun () ->
        match
          P.parse_request ~default_policy:Policy.default ~max_bytes:4096
            {|{"op":"submit","id":"b","app":"lu","nranks":8,"cls":"W"}|}
        with
        | Ok (P.Submit s) ->
            Alcotest.(check bool) "source" true
              (s.P.sub_source = P.J_app { app = "lu"; nranks = 8; cls = "W" })
        | _ -> Alcotest.fail "app submit did not parse");
    t "parse_request: control ops" (fun () ->
        let parse l =
          P.parse_request ~default_policy:Policy.default ~max_bytes:4096 l
        in
        Alcotest.(check bool) "health" true (parse {|{"op":"health"}|} = Ok P.Health);
        Alcotest.(check bool) "drain" true (parse {|{"op":"drain"}|} = Ok P.Drain);
        Alcotest.(check bool) "shutdown" true
          (parse {|{"op":"shutdown"}|} = Ok P.Shutdown));
    t "parse_request: oversized line is rejected unparsed" (fun () ->
        let line =
          {|{"op":"submit","id":"big","trace":"|} ^ String.make 200 'x' ^ {|"}|}
        in
        match P.parse_request ~default_policy:Policy.default ~max_bytes:100 line with
        | Error (_, P.Oversized { bytes; limit }) ->
            Alcotest.(check int) "limit echoed" 100 limit;
            Alcotest.(check int) "bytes echoed" (String.length line) bytes
        | _ -> Alcotest.fail "oversized line was not rejected");
    t "parse_request: garbage and bad requests are typed" (fun () ->
        let bad l =
          match
            P.parse_request ~default_policy:Policy.default ~max_bytes:4096 l
          with
          | Error (id, P.Bad_request _) -> id
          | Error (_, r) -> Alcotest.failf "wrong reject: %s" (P.reject_tag r)
          | Ok _ -> Alcotest.failf "accepted: %s" l
        in
        Alcotest.(check (option string)) "garbage" None (bad "not json at all");
        Alcotest.(check (option string)) "unknown op" None (bad {|{"op":"frobnicate"}|});
        (* a bad submit still echoes its id so the client can correlate *)
        Alcotest.(check (option string))
          "id recovered" (Some "x")
          (bad {|{"op":"submit","id":"x"}|});
        Alcotest.(check (option string))
          "ill-typed field" (Some "y")
          (bad {|{"op":"submit","id":"y","trace":"/t","max_retries":"three"}|}));
    t "reject tags are stable" (fun () ->
        Alcotest.(check string) "queue_full" "queue_full" (P.reject_tag P.Queue_full);
        Alcotest.(check string) "draining" "draining" (P.reject_tag P.Draining);
        Alcotest.(check string) "oversized" "oversized"
          (P.reject_tag (P.Oversized { bytes = 1; limit = 0 }));
        Alcotest.(check string) "bad_request" "bad_request"
          (P.reject_tag (P.Bad_request "m")));
    t "error_of_gen_error: stable tags, path, retryability" (fun () ->
        let e ?path g = P.error_of_gen_error ?path g in
        let io = e ~path:"/gone.trace" (Pipeline.E_io "no such file") in
        Alcotest.(check string) "io tag" "io" io.P.e_tag;
        Alcotest.(check (option string)) "io path" (Some "/gone.trace") io.P.e_path;
        Alcotest.(check bool) "io not retryable" false io.P.e_retryable;
        let cases =
          [
            (Pipeline.E_potential_deadlock "d", "potential_deadlock");
            (Pipeline.E_align "a", "align");
            (Pipeline.E_wildcard "w", "wildcard");
            (Pipeline.E_trace_format "t", "trace_format");
            (Pipeline.E_codegen "c", "codegen");
            (Pipeline.E_unrecoverable_trace "u", "unrecoverable_trace");
          ]
        in
        List.iter
          (fun (g, tag) ->
            let i = e g in
            Alcotest.(check string) ("tag " ^ tag) tag i.P.e_tag;
            Alcotest.(check bool) (tag ^ " retryable") true i.P.e_retryable)
          cases);
  ]

(* ------------------------------------------------------------------ *)
(* Per-job policy on a one-slot pool, on virtual time                  *)

module Pool = Serve.Pool

let ok_info =
  {
    P.ok_statements = 4;
    ok_final_rsds = 2;
    ok_recovery = "strict";
    ok_warnings = [];
    ok_text = None;
    ok_out = None;
  }

let submit_of ?(policy = Policy.default) id =
  {
    P.sub_id = id;
    sub_source = P.J_file (id ^ ".trace");
    sub_policy = policy;
    sub_out = None;
    sub_emit_text = false;
  }

let ok_behavior ?(dur = 0.01) () =
  Pool.Sim.B_ok { dur; statements = 4 }

let always_ok _ ~attempt:_ ~recovery:_ = ok_behavior ()

let sim_pool ?queue_limit ?metrics ~workers () =
  Pool.create ?queue_limit ?metrics
    ~wpolicy:{ Pool.default_wpolicy with workers }
    ()

(* Play [timeline] on a fresh one-slot pool. *)
let play ?queue_limit ?metrics ~script timeline =
  Pool.Sim.run ~pool:(sim_pool ?queue_limit ?metrics ~workers:1 ()) ~script
    ~timeline ()

let results rs =
  List.filter
    (fun r -> match r with P.Result_ok _ | P.Result_error _ -> true | _ -> false)
    (List.map snd rs)

let lines rs = String.concat " | " (List.map P.response_to_line rs)

let failing ?(retryable = true) ?path tag =
  Pool.Sim.B_error
    {
      dur = 0.01;
      error =
        { P.e_tag = tag; e_path = path; e_retryable = retryable; e_detail = tag };
    }

let policy_on_pool_tests =
  [
    t "clean job: accepted then one ok result" (fun () ->
        match
          play ~script:always_ok
            [ (0.0, Pool.Sim.I_submit (submit_of "a")); (0.0, Pool.Sim.I_drain) ]
        with
        | [
         (_, P.Accepted { id = "a"; queue_depth = 1 });
         (_, P.Result_ok { id = "a"; attempts = 1; info });
         (_, P.Drained { jobs_run = 1; cancelled = 0 });
        ] ->
            Alcotest.(check string) "recovery" "strict" info.P.ok_recovery
        | rs -> Alcotest.failf "unexpected transcript: %s" (lines (List.map snd rs)));
    t "retry escalates recovery until success" (fun () ->
        (* fails at strict and salvage, succeeds at best-effort: the
           escalation path the paper's damaged-trace story needs *)
        let seen = ref [] in
        let script _ ~attempt:_ ~recovery =
          seen := recovery :: !seen;
          if recovery = `Best_effort then ok_behavior ()
          else failing "unrecoverable_trace"
        in
        let policy = { Policy.default with max_retries = 2 } in
        (match
           results
             (play ~script [ (0.0, Pool.Sim.I_submit (submit_of ~policy "esc")) ])
         with
        | [ P.Result_ok { id = "esc"; attempts = 3; info } ] ->
            Alcotest.(check string)
              "reports the successful level" "best-effort" info.P.ok_recovery
        | rs ->
            Alcotest.failf "unexpected: %s" (lines rs));
        Alcotest.(check bool)
          "ran strict, salvage, best-effort in order" true
          (List.rev !seen = [ `Strict; `Salvage; `Best_effort ]));
    t "retries exhausted: last error surfaces with attempt count" (fun () ->
        let script _ ~attempt:_ ~recovery:_ =
          failing ~path:"x.trace" "trace_format"
        in
        let policy = { Policy.default with max_retries = 2 } in
        match
          results (play ~script [ (0.0, Pool.Sim.I_submit (submit_of ~policy "f")) ])
        with
        | [ P.Result_error { attempts = 3; error; _ } ] ->
            Alcotest.(check string) "tag" "trace_format" error.P.e_tag;
            Alcotest.(check (option string)) "path" (Some "x.trace") error.P.e_path
        | rs ->
            Alcotest.failf "unexpected: %s" (lines rs));
    t "non-retryable error stops immediately" (fun () ->
        let calls = ref 0 in
        let script _ ~attempt:_ ~recovery:_ =
          incr calls;
          failing ~retryable:false ~path:"/gone.trace" "io"
        in
        let policy = { Policy.default with max_retries = 5 } in
        (match
           results (play ~script [ (0.0, Pool.Sim.I_submit (submit_of ~policy "io")) ])
         with
        | [ P.Result_error { attempts = 1; _ } ] -> ()
        | rs ->
            Alcotest.failf "unexpected: %s" (lines rs));
        Alcotest.(check int) "ran once" 1 !calls);
    t "unwritable out path is a non-retryable io error" (fun () ->
        let out = "/nonexistent/dir/x.ncptl" in
        let sub =
          {
            (submit_of "a") with
            P.sub_source = P.J_app { app = "ring"; nranks = 4; cls = "S" };
            sub_out = Some out;
          }
        in
        match Serve.Worker.attempt sub ~recovery:`Strict with
        | Pool.A_error e ->
            Alcotest.(check string) "tag" "io" e.P.e_tag;
            Alcotest.(check (option string)) "path" (Some out) e.P.e_path;
            Alcotest.(check bool) "not retryable" false e.P.e_retryable
        | _ -> Alcotest.fail "an unwritable out path did not fail as io");
    t "in-process raise answers crashed; the worker survives" (fun () ->
        let script (s : P.submit) ~attempt:_ ~recovery:_ =
          if s.P.sub_id = "boom" then
            Pool.Sim.B_raise { dur = 0.01; detail = "worker heap corruption" }
          else ok_behavior ()
        in
        let policy = { Policy.default with max_retries = 0 } in
        let m = Obs.Metrics.create () in
        (match
           results
             (play ~metrics:m ~script
                [
                  (0.0, Pool.Sim.I_submit (submit_of ~policy "boom"));
                  (0.0, Pool.Sim.I_submit (submit_of ~policy "next"));
                ])
         with
        | [ P.Result_error { id = "boom"; attempts = 1; error };
            P.Result_ok { id = "next"; _ } ] ->
            Alcotest.(check string) "tag" "crashed" error.P.e_tag;
            Alcotest.(check (option string))
              "path" (Some "boom.trace") error.P.e_path
        | rs ->
            Alcotest.failf "unexpected: %s" (lines rs));
        Alcotest.(check (option int))
          "crash counted" (Some 1)
          (Obs.Metrics.counter_value m "serve.crashes");
        Alcotest.(check (option int))
          "no slot death" None
          (Obs.Metrics.counter_value m "serve.pool.deaths"));
    t "queue-full load shedding" (fun () ->
        let m = Obs.Metrics.create () in
        let rs =
          play ~queue_limit:2 ~metrics:m ~script:always_ok
            [
              (0.0, Pool.Sim.I_submit (submit_of "a"));
              (0.0, Pool.Sim.I_submit (submit_of "b"));
              (0.0, Pool.Sim.I_submit (submit_of "c"));
              (* a and b are done by now: admission has reopened *)
              (0.5, Pool.Sim.I_submit (submit_of "d"));
            ]
        in
        let seen r = List.exists (fun (_, r') -> r' = r) rs in
        Alcotest.(check bool) "c shed" true
          (seen (P.Rejected { id = Some "c"; reason = P.Queue_full }));
        Alcotest.(check (option int))
          "sheds counted" (Some 1)
          (Obs.Metrics.counter_value m "serve.sheds");
        Alcotest.(check bool) "d admitted" true
          (seen (P.Accepted { id = "d"; queue_depth = 1 })));
    t "drain finishes queued work and rejects new submits" (fun () ->
        let rs =
          play ~script:always_ok
            [
              (0.0, Pool.Sim.I_submit (submit_of "a"));
              (0.0, Pool.Sim.I_submit (submit_of "b"));
              (0.0, Pool.Sim.I_drain);
              (0.0, Pool.Sim.I_submit (submit_of "late"));
            ]
        in
        Alcotest.(check bool) "late rejected" true
          (List.exists
             (fun (_, r) ->
               r = P.Rejected { id = Some "late"; reason = P.Draining })
             rs);
        Alcotest.(check int) "two results" 2 (List.length (results rs));
        match List.rev rs with
        | (_, P.Drained { jobs_run = 2; cancelled = 0 }) :: _ -> ()
        | _ -> Alcotest.failf "bad drain tail: %s" (lines (List.map snd rs)));
    t "a refused request line is answered and counted" (fun () ->
        let m = Obs.Metrics.create () in
        match
          play ~metrics:m ~script:always_ok
            [
              (0.0, Pool.Sim.I_reject (None, P.Bad_request "not json"));
              (0.0, Pool.Sim.I_health);
            ]
        with
        | [
         (_, P.Rejected { id = None; reason = P.Bad_request "not json" });
         (_, P.Health_report { rejected = 1; _ });
        ] ->
            Alcotest.(check (option int))
              "counted by reason" (Some 1)
              (Obs.Metrics.counter_value m
                 ~labels:[ ("reason", "bad_request") ]
                 "serve.rejected")
        | rs -> Alcotest.failf "unexpected transcript: %s" (lines (List.map snd rs)));
    t "retry backoffs land on the pool's virtual clock" (fun () ->
        let script _ ~attempt ~recovery:_ =
          if attempt < 2 then failing "trace_format"
          else Pool.Sim.B_ok { dur = 0.; statements = 4 }
        in
        let policy =
          {
            Policy.default with
            max_retries = 2;
            backoff_base_s = 0.1;
            backoff_factor = 2.;
            jitter = 0.;
          }
        in
        match play ~script [ (0.0, Pool.Sim.I_submit (submit_of ~policy "r")) ] with
        | [ _; (at, P.Result_ok { attempts = 3; _ }) ] ->
            (* 0.01 s worker start-up, two 0.01 s failed attempts, then
               0.1 + 0.2 s of backoff *)
            Alcotest.(check (float 1e-6)) "virtual finish time" 0.33 at
        | rs -> Alcotest.failf "unexpected transcript: %s" (lines (List.map snd rs)));
  ]

(* ------------------------------------------------------------------ *)
(* Worker pool: concurrent dispatch, crash restart, breaker, poison    *)

let dispatch_wids acts =
  List.filter_map
    (function Pool.Dispatch { wid; _ } -> Some wid | _ -> None)
    acts

let last_result_at responses =
  List.fold_left
    (fun acc (at, r) ->
      match r with P.Result_ok _ | P.Result_error _ -> Float.max acc at | _ -> acc)
    0. responses
let pool_tests =
  [
    t "4 concurrent slow jobs finish in ~1x single-job wall-clock" (fun () ->
        let slow _ ~attempt:_ ~recovery:_ = ok_behavior ~dur:1.0 () in
        let timeline =
          List.init 4 (fun i ->
              (0.0, Pool.Sim.I_submit (submit_of (Printf.sprintf "j%d" i))))
          @ [ (0.0, Pool.Sim.I_drain) ]
        in
        let run workers =
          Pool.Sim.run ~pool:(sim_pool ~workers ()) ~script:slow ~timeline ()
        in
        let wide = run 4 and narrow = run 1 in
        let oks rs =
          List.length
            (List.filter (fun (_, r) ->
                 match r with P.Result_ok _ -> true | _ -> false)
               rs)
        in
        Alcotest.(check int) "4 workers: all ok" 4 (oks wide);
        Alcotest.(check int) "1 worker: all ok" 4 (oks narrow);
        let t4 = last_result_at wide and t1 = last_result_at narrow in
        Alcotest.(check bool)
          (Printf.sprintf "4 workers ~1x (%.3fs)" t4)
          true (t4 < 1.5);
        Alcotest.(check bool)
          (Printf.sprintf "1 worker ~4x (%.3fs)" t1)
          true (t1 >= 4.0));
    t "worker crash mid-job: restart + retry succeeds elsewhere" (fun () ->
        (* worker 0 crashes on the first attempt; its restart backoff
           (0.1s) is longer than the job's retry backoff (<= 0.0625s),
           so the retry can only have run on worker 1 *)
        let script _ ~attempt ~recovery:_ =
          if attempt = 0 then
            Pool.Sim.B_crash { dur = 0.01; detail = "synthetic segfault" }
          else ok_behavior ()
        in
        let m = Obs.Metrics.create () in
        let rs =
          Pool.Sim.run
            ~pool:(sim_pool ~metrics:m ~workers:2 ())
            ~script
            ~timeline:
              [ (0.0, Pool.Sim.I_submit (submit_of "j1")); (0.0, Pool.Sim.I_drain) ]
            ()
        in
        (match
           List.find_opt
             (fun (_, r) -> match r with P.Result_ok _ -> true | _ -> false)
             rs
         with
        | Some (at, P.Result_ok { attempts; _ }) ->
            Alcotest.(check int) "second attempt won" 2 attempts;
            Alcotest.(check bool)
              (Printf.sprintf "retry beat worker 0's restart (%.3fs)" at)
              true
              (at < 0.12)
        | _ -> Alcotest.fail "no ok result");
        Alcotest.(check (option int))
          "one abnormal death" (Some 1)
          (Obs.Metrics.counter_value m "serve.pool.deaths");
        Alcotest.(check bool) "slot restarted" true
          (Obs.Metrics.counter_value m "serve.pool.restarts" >= Some 1));
    t "poison job quarantined after crashing 2 distinct workers" (fun () ->
        let script (s : P.submit) ~attempt:_ ~recovery:_ =
          if s.P.sub_id = "poison" then
            Pool.Sim.B_crash { dur = 0.01; detail = "poison pill" }
          else ok_behavior ()
        in
        let m = Obs.Metrics.create () in
        let rs =
          Pool.Sim.run
            ~pool:(sim_pool ~metrics:m ~workers:3 ())
            ~script
            ~timeline:
              [
                (0.0, Pool.Sim.I_submit (submit_of "poison"));
                (0.5, Pool.Sim.I_submit (submit_of "after"));
                (0.5, Pool.Sim.I_drain);
              ]
            ()
        in
        (match
           List.find_opt
             (fun (_, r) ->
               match r with
               | P.Result_error { id = "poison"; _ } -> true
               | _ -> false)
             rs
         with
        | Some (_, P.Result_error { attempts; error; _ }) ->
            Alcotest.(check string) "typed poisoned" "poisoned"
              error.P.e_tag;
            Alcotest.(check bool) "not retryable" false error.P.e_retryable;
            Alcotest.(check int) "crashed exactly 2 workers" 2 attempts
        | _ -> Alcotest.fail "poison job got no terminal error");
        Alcotest.(check bool) "pool still serves" true
          (List.exists
             (fun (_, r) ->
               match r with P.Result_ok { id = "after"; _ } -> true | _ -> false)
             rs);
        Alcotest.(check (option int))
          "quarantine counted" (Some 1)
          (Obs.Metrics.counter_value m "serve.pool.quarantined"));
    t "breaker parks a crash-looping slot; probation is one-strike" (fun () ->
        let wp =
          {
            Pool.default_wpolicy with
            workers = 1;
            restart_backoff_base_s = 0.05;
            breaker_deaths = 2;
            breaker_window_s = 30.0;
            breaker_cooldown_s = 1.0;
          }
        in
        let m = Obs.Metrics.create () in
        let pool = Pool.create ~metrics:m ~wpolicy:wp () in
        ignore (Pool.boot pool);
        ignore (Pool.handle pool ~now:0.0 (Pool.E_spawned { wid = 0 }));
        ignore (Pool.handle pool ~now:0.1 (Pool.E_died { wid = 0; detail = "d1" }));
        Alcotest.(check string) "first death: backoff" "backoff"
          (Pool.worker_state_name pool 0);
        ignore (Pool.tick pool ~now:0.2);
        ignore (Pool.handle pool ~now:0.2 (Pool.E_spawned { wid = 0 }));
        ignore (Pool.handle pool ~now:0.3 (Pool.E_died { wid = 0; detail = "d2" }));
        Alcotest.(check string) "second death in window: parked" "parked"
          (Pool.worker_state_name pool 0);
        Alcotest.(check (option int))
          "breaker tripped" (Some 1)
          (Obs.Metrics.counter_value m "serve.pool.breaker_trips");
        (* cooldown elapses -> probation spawn *)
        ignore (Pool.tick pool ~now:1.4);
        Alcotest.(check string) "unparked" "starting"
          (Pool.worker_state_name pool 0);
        ignore (Pool.handle pool ~now:1.4 (Pool.E_spawned { wid = 0 }));
        ignore (Pool.handle pool ~now:1.5 (Pool.E_died { wid = 0; detail = "d3" }));
        Alcotest.(check string) "probation death re-parks immediately" "parked"
          (Pool.worker_state_name pool 0);
        Alcotest.(check (option int))
          "second trip" (Some 2)
          (Obs.Metrics.counter_value m "serve.pool.breaker_trips"));
    t "deadline kill respawns the slot and is not a breaker death" (fun () ->
        (* a timeout is retryable: the hang is killed on both attempts *)
        let policy =
          { Policy.default with deadline_s = Some 0.5; max_retries = 1 }
        in
        let script (s : P.submit) ~attempt:_ ~recovery:_ =
          if s.P.sub_id = "hang" then Pool.Sim.B_hang else ok_behavior ()
        in
        let m = Obs.Metrics.create () in
        let rs =
          Pool.Sim.run
            ~pool:(sim_pool ~metrics:m ~workers:1 ())
            ~script
            ~timeline:
              [
                (0.0, Pool.Sim.I_submit (submit_of ~policy "hang"));
                (1.0, Pool.Sim.I_submit (submit_of ~policy "next"));
                (1.0, Pool.Sim.I_drain);
              ]
            ()
        in
        (match
           List.find_opt
             (fun (_, r) ->
               match r with
               | P.Result_error { id = "hang"; _ } -> true
               | _ -> false)
             rs
         with
        | Some (_, P.Result_error { attempts; error; _ }) ->
            Alcotest.(check string) "typed timeout" "deadline_exceeded"
              error.P.e_tag;
            Alcotest.(check bool) "retryable" true error.P.e_retryable;
            Alcotest.(check int) "retried once" 2 attempts
        | _ -> Alcotest.fail "hanging job got no terminal error");
        Alcotest.(check bool) "slot recovered for the next job" true
          (List.exists
             (fun (_, r) ->
               match r with P.Result_ok { id = "next"; _ } -> true | _ -> false)
             rs);
        Alcotest.(check (option int))
          "deadline kills counted" (Some 2)
          (Obs.Metrics.counter_value m "serve.deadline_kills");
        Alcotest.(check (option int))
          "not a breaker death" None
          (Obs.Metrics.counter_value m "serve.pool.deaths"));
    t "admission bounds live jobs; duplicate live ids rejected" (fun () ->
        let pool = sim_pool ~queue_limit:2 ~workers:1 () in
        ignore (Pool.boot pool);
        (* worker never spawns, so submissions stay queued (= live) *)
        let accept id =
          match Pool.submit pool ~now:0.0 (submit_of id) with
          | P.Accepted _, _ -> true
          | _ -> false
        in
        Alcotest.(check bool) "j1 in" true (accept "j1");
        Alcotest.(check bool) "j2 in" true (accept "j2");
        (match Pool.submit pool ~now:0.0 (submit_of "j3") with
        | P.Rejected { reason = P.Queue_full; _ }, [] -> ()
        | _ -> Alcotest.fail "overflow not shed");
        let pool4 = sim_pool ~queue_limit:8 ~workers:1 () in
        ignore (Pool.boot pool4);
        ignore (Pool.submit pool4 ~now:0.0 (submit_of "dup"));
        match Pool.submit pool4 ~now:0.0 (submit_of "dup") with
        | P.Rejected { reason = P.Bad_request _; id = Some "dup" }, [] -> ()
        | _ -> Alcotest.fail "duplicate live id accepted");
    t "dispatch picks FIFO job, lowest-numbered idle worker" (fun () ->
        let pool = sim_pool ~workers:3 () in
        ignore (Pool.boot pool);
        for wid = 0 to 2 do
          ignore (Pool.handle pool ~now:0.0 (Pool.E_spawned { wid }))
        done;
        let _, a1 = Pool.submit pool ~now:0.1 (submit_of "a") in
        let _, a2 = Pool.submit pool ~now:0.1 (submit_of "b") in
        Alcotest.(check (list int)) "a -> worker 0" [ 0 ] (dispatch_wids a1);
        Alcotest.(check (list int)) "b -> worker 1" [ 1 ] (dispatch_wids a2);
        let done_acts =
          Pool.handle pool ~now:0.2
            (Pool.E_result { wid = 0; outcome = Pool.A_ok ok_info })
        in
        ignore done_acts;
        let _, a3 = Pool.submit pool ~now:0.3 (submit_of "c") in
        Alcotest.(check (list int)) "freed worker 0 reused" [ 0 ]
          (dispatch_wids a3));
    t "shutdown cancels queued and running jobs and kills workers" (fun () ->
        let pool = sim_pool ~workers:1 () in
        ignore (Pool.boot pool);
        ignore (Pool.handle pool ~now:0.0 (Pool.E_spawned { wid = 0 }));
        ignore (Pool.submit pool ~now:0.0 (submit_of "j1"));
        (* j1 is busy on worker 0 *)
        ignore (Pool.submit pool ~now:0.0 (submit_of "j2"));
        ignore (Pool.submit pool ~now:0.0 (submit_of "j3"));
        let responses, acts = Pool.shutdown pool ~now:0.1 in
        let ids =
          List.filter_map
            (function P.Cancelled { id } -> Some id | _ -> None)
            responses
        in
        Alcotest.(check (list string))
          "queued first, then running" [ "j2"; "j3"; "j1" ] ids;
        (match List.rev responses with
        | P.Drained { jobs_run = 0; cancelled = 3 } :: _ -> ()
        | _ -> Alcotest.fail "summary missing or wrong");
        Alcotest.(check bool) "running worker killed" true
          (List.exists (function Pool.Kill { wid = 0 } -> true | _ -> false) acts);
        Alcotest.(check bool) "pool drains afterwards" true
          (Pool.draining pool && Pool.idle pool));
  ]

(* ------------------------------------------------------------------ *)
(* Service fuzzer                                                      *)

let fuzz_tests =
  [
    t "50-seed campaign: no violations" (fun () ->
        let s =
          Check.Servefuzz.run
            {
              Check.Servefuzz.seed_start = 1;
              seeds = 50;
              workers = 1;
              log = ignore;
            }
        in
        Alcotest.(check int) "cases" 50 s.Check.Servefuzz.cases;
        Alcotest.(check bool) "jobs submitted" true (s.Check.Servefuzz.jobs > 100);
        (match s.Check.Servefuzz.violations with
        | [] -> ()
        | v :: _ ->
            Alcotest.failf "%d violations; first: seed %d: %s"
              (List.length s.Check.Servefuzz.violations)
              v.Check.Servefuzz.v_seed v.Check.Servefuzz.v_what);
        (* the merged registry carries the serve.* instruments *)
        Alcotest.(check bool)
          "outcome counters merged" true
          (Obs.Metrics.counter_value s.Check.Servefuzz.metrics
             "servefuzz.jobs"
           <> None));
    t "same seed, byte-identical transcript" (fun () ->
        for seed = 1 to 10 do
          Alcotest.(check string)
            (Printf.sprintf "seed %d" seed)
            (Check.Servefuzz.transcript ~seed ())
            (Check.Servefuzz.transcript ~seed ())
        done);
    t "concurrent campaign (3 workers, 25 seeds): no violations" (fun () ->
        let s =
          Check.Servefuzz.run
            {
              Check.Servefuzz.seed_start = 1;
              seeds = 25;
              workers = 3;
              log = ignore;
            }
        in
        Alcotest.(check int) "cases" 25 s.Check.Servefuzz.cases;
        Alcotest.(check bool) "jobs submitted" true (s.Check.Servefuzz.jobs > 50);
        match s.Check.Servefuzz.violations with
        | [] -> ()
        | v :: _ ->
            Alcotest.failf "%d violations; first: seed %d: %s"
              (List.length s.Check.Servefuzz.violations)
              v.Check.Servefuzz.v_seed v.Check.Servefuzz.v_what);
    t "same seed, byte-identical concurrent transcript" (fun () ->
        for seed = 1 to 8 do
          Alcotest.(check string)
            (Printf.sprintf "seed %d" seed)
            (Check.Servefuzz.transcript ~workers:4 ~seed ())
            (Check.Servefuzz.transcript ~workers:4 ~seed ())
        done);
    t "pool schedules match their pinned digests" (fun () ->
        (* seeds 1-50 concatenated; a changed digest means a changed
           virtual schedule, which must be a deliberate re-baseline *)
        List.iter
          (fun (workers, digest) ->
            let all =
              String.concat ""
                (List.init 50 (fun i ->
                     Check.Servefuzz.transcript ~workers ~seed:(i + 1) ()))
            in
            Alcotest.(check string)
              (Printf.sprintf "workers %d" workers)
              digest
              (Digest.to_hex (Digest.string all)))
          [
            (1, "18046bb15d6d5522ede85c488b9cedd3");
            (2, "efcf7d2f06293d669c569702c45fcfb3");
            (3, "3dcb4aae137cafc8137dc0a60c4610db");
            (4, "5c298c34398019dafd102254a90c9212");
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* Metrics registry under concurrent mutation                          *)

let metrics_domain_tests =
  [
    t "parallel mutation from domains is safe and lossless" (fun () ->
        let m = Obs.Metrics.create () in
        let domains = 4 and per_domain = 5_000 in
        let worker i () =
          for k = 1 to per_domain do
            Obs.Metrics.inc m "shared.counter";
            Obs.Metrics.inc m ~labels:[ ("domain", string_of_int i) ]
              "per.domain";
            Obs.Metrics.set m "gauge" (float_of_int k);
            Obs.Metrics.observe m "histo" (float_of_int (k mod 10))
          done
        in
        let ds = List.init domains (fun i -> Domain.spawn (worker i)) in
        List.iter Domain.join ds;
        Alcotest.(check (option int))
          "no lost increments" (Some (domains * per_domain))
          (Obs.Metrics.counter_value m "shared.counter");
        for i = 0 to domains - 1 do
          Alcotest.(check (option int))
            (Printf.sprintf "domain %d counter" i)
            (Some per_domain)
            (Obs.Metrics.counter_value m
               ~labels:[ ("domain", string_of_int i) ]
               "per.domain")
        done;
        (* the dump must still be well-formed JSONL *)
        String.split_on_char '\n' (Obs.Metrics.to_jsonl m)
        |> List.iter (fun line ->
               if line <> "" then ignore (Obs.Json.parse line)));
  ]

let suite =
  policy_tests @ protocol_tests @ policy_on_pool_tests @ pool_tests
  @ fuzz_tests @ metrics_domain_tests
