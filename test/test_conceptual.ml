open Conceptual
module A = Ast

let t name f = Alcotest.test_case name `Quick f

let eval_tests =
  [
    t "arithmetic" (fun () ->
        Alcotest.(check int) "mod"
          3
          (A.eval_int [] (A.Bin (A.Mod, A.Int 7, A.Int 4)));
        Alcotest.(check int) "negative mod is non-negative" 3
          (A.eval_int [] (A.Bin (A.Mod, A.Int (-1), A.Int 4)));
        Alcotest.(check int) "precedence-free tree" 14
          (A.eval_int [] (A.Bin (A.Add, A.Int 2, A.Bin (A.Mul, A.Int 3, A.Int 4)))));
    t "variables" (fun () ->
        Alcotest.(check int) "var" 11
          (A.eval_int [ ("t", 5) ] (A.Bin (A.Add, A.Var "t", A.Int 6))));
    t "unbound variable raises" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (A.eval_int [] (A.Var "nope"));
             false
           with A.Eval_error _ -> true));
    t "division by zero raises" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (A.eval_int [] (A.Bin (A.Div, A.Int 1, A.Int 0)));
             false
           with A.Eval_error _ -> true));
    t "predicates" (fun () ->
        let p =
          A.And (A.Cmp (A.Ge, A.Var "t", A.Int 2), A.Divides (A.Int 3, A.Var "t"))
        in
        Alcotest.(check bool) "3 ok" true (A.eval_pred [ ("t", 3) ] p);
        Alcotest.(check bool) "4 no" false (A.eval_pred [ ("t", 4) ] p);
        Alcotest.(check bool) "0 no" false (A.eval_pred [ ("t", 0) ] p));
    t "tasks membership" (fun () ->
        let g = A.Group { var = "t"; pred = A.Cmp (A.Lt, A.Var "t", A.Int 3) } in
        Alcotest.(check (list int)) "members" [ 0; 1; 2 ] (A.members g [] ~nranks:8);
        Alcotest.(check bool) "mem" true (A.mem g [] ~rank:2 ~nranks:8);
        Alcotest.(check bool) "out of world" false (A.mem (A.All None) [] ~rank:9 ~nranks:8));
    t "tasks_of_rank_set forms" (fun () ->
        Alcotest.(check bool) "all" true
          (A.tasks_of_rank_set ~nranks:4 (Util.Rank_set.all 4) = A.All (Some "t"));
        Alcotest.(check bool) "single" true
          (A.tasks_of_rank_set ~nranks:4 (Util.Rank_set.singleton 2) = A.Single (A.Int 2));
        match A.tasks_of_rank_set ~nranks:16 (Util.Rank_set.range ~stride:4 0 12) with
        | A.Group { var = "t"; _ } as g ->
            Alcotest.(check (list int)) "members" [ 0; 4; 8; 12 ]
              (A.members g [] ~nranks:16)
        | _ -> Alcotest.fail "expected group");
    t "size counts nested statements" (fun () ->
        let p =
          {
            A.comments = [];
            body =
              [
                A.For
                  {
                    count = A.Int 2;
                    body = [ A.Sync (A.All None); A.Await (A.All None) ];
                  };
              ];
          }
        in
        Alcotest.(check int) "size" 3 (A.size p));
  ]

(* -------------------------------------------------------------- *)
(* Random program generator for round-trip property                 *)

let gen_expr =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          oneof [ map (fun i -> A.Int (abs i mod 64)) int; return (A.Var "t") ]
        else
          frequency
            [
              (2, map (fun i -> A.Int (abs i mod 64)) int);
              (1, return (A.Var "t"));
              ( 2,
                map3
                  (fun op a b -> A.Bin (op, a, b))
                  (oneofl [ A.Add; A.Sub; A.Mul; A.Div; A.Mod ])
                  (self (n / 2)) (self (n / 2)) );
            ]))

let gen_pred =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          map2
            (fun op (a, b) -> A.Cmp (op, a, b))
            (oneofl [ A.Eq; A.Ne; A.Lt; A.Le; A.Gt; A.Ge ])
            (pair (gen_expr >|= Fun.id) gen_expr)
        else
          frequency
            [
              ( 3,
                map2
                  (fun op (a, b) -> A.Cmp (op, a, b))
                  (oneofl [ A.Eq; A.Ne; A.Lt; A.Le; A.Gt; A.Ge ])
                  (pair gen_expr gen_expr) );
              (1, map2 (fun a b -> A.And (a, b)) (self (n / 2)) (self (n / 2)));
              (1, map2 (fun a b -> A.Or (a, b)) (self (n / 2)) (self (n / 2)));
              (1, map (fun a -> A.Not a) (self (n / 2)));
              (1, map2 (fun k e -> A.Divides (k, e)) gen_expr gen_expr);
            ]))

let gen_tasks =
  QCheck.Gen.(
    oneof
      [
        return (A.All None);
        return (A.All (Some "t"));
        map (fun e -> A.Single e) gen_expr;
        map (fun p -> A.Group { var = "t"; pred = p }) gen_pred;
      ])

let gen_stmt =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let atomic =
          oneof
            [
              map3
                (fun src dst (b, async, tag) ->
                  A.Send
                    {
                      src; async;
                      bytes = A.Int (abs b mod 10000);
                      dst; tag = abs tag mod 4;
                      implicit_recv = false;
                    })
                gen_tasks gen_expr
                (triple int bool int);
              map3
                (fun dst src (b, async, tag) ->
                  A.Receive
                    { dst; async; bytes = A.Int (abs b mod 10000); src;
                      tag = (if tag mod 5 = 0 then -1 else abs tag mod 4) })
                gen_tasks gen_expr
                (triple int bool int);
              map (fun t -> A.Await t) gen_tasks;
              map (fun t -> A.Sync t) gen_tasks;
              map2 (fun src dst ->
                  A.Multicast { src; bytes = A.Int 128; dst })
                gen_tasks gen_tasks;
              map2 (fun src dst -> A.Reduce { src; bytes = A.Int 64; dst })
                gen_tasks gen_tasks;
              map (fun t -> A.Alltoall { tasks = t; bytes = A.Int 32 }) gen_tasks;
              map2
                (fun t f ->
                  A.Compute { tasks = t; usecs = A.Float (Float.abs f +. 0.001) })
                gen_tasks (float_bound_exclusive 1000.);
              map2
                (fun t a ->
                  A.Log
                    { tasks = t;
                      agg =
                        (match a mod 5 with
                         | 0 -> Some A.Mean | 1 -> Some A.Median
                         | 2 -> Some A.Minimum | 3 -> Some A.Maximum
                         | _ -> None);
                      label = "series" })
                gen_tasks int;
              map (fun t -> A.Reset t) gen_tasks;
            ]
        in
        if n <= 1 then atomic
        else
          frequency
            [
              (6, atomic);
              ( 1,
                map2
                  (fun c body -> A.For { count = A.Int (1 + (abs c mod 5)); body })
                  int
                  (list_size (int_range 1 3) (self (n / 2))) );
              ( 1,
                map
                  (fun body ->
                    A.For_each { var = "i"; first = A.Int 0; last = A.Int 3; body })
                  (list_size (int_range 1 3) (self (n / 2))) );
              ( 1,
                map3
                  (fun c th el -> A.If { cond = c; then_ = th; else_ = el })
                  gen_pred
                  (list_size (int_range 1 2) (self (n / 2)))
                  (list_size (int_range 0 2) (self (n / 2))) );
            ]))

let gen_program =
  QCheck.make
    ~print:(fun p -> Pretty.program p)
    QCheck.Gen.(
      map
        (fun body -> { A.comments = [ "generated" ]; body })
        (list_size (int_range 1 6) gen_stmt))

let roundtrip_props =
  List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260705 |]))
    [
      QCheck.Test.make ~name:"pretty/parse round-trip" ~count:500 gen_program
        (fun p -> A.equal p (Parse.program (Pretty.program p)));
    ]

let parse_tests =
  [
    t "parses the paper's Section 3.2 program" (fun () ->
        let src =
          "FOR 1000 REPETITIONS {\n\
          \  ALL TASKS RESET THEIR COUNTERS THEN\n\
          \  ALL TASKS t ASYNCHRONOUSLY SEND A 1024 BYTE MESSAGE TO TASK (t + 1) MOD 8 THEN\n\
          \  ALL TASKS AWAIT COMPLETION THEN\n\
          \  TASK 0 LOGS elapsed_usecs AS \"Time (us)\"\n\
           }"
        in
        match Parse.stmts src with
        | [ A.For { count = A.Int 1000; body } ] ->
            Alcotest.(check int) "4 stmts" 4 (List.length body)
        | _ -> Alcotest.fail "unexpected parse");
    t "parses SUCH THAT with DIVIDES (paper Sec 4.1 example)" (fun () ->
        match
          Parse.stmts "TASKS xyz SUCH THAT 3 DIVIDES xyz REDUCE A 8 BYTE MESSAGE TO TASK 0"
        with
        | [ A.Reduce { src = A.Group { var = "xyz"; _ }; _ } ] -> ()
        | _ -> Alcotest.fail "unexpected parse");
    t "comments preserved" (fun () ->
        let p = Parse.program "# hello\n# world\nALL TASKS SYNCHRONIZE\n" in
        Alcotest.(check (list string)) "comments" [ "hello"; "world" ] p.A.comments);
    t "parse error has location" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Parse.program "ALL TASKS FLY");
             false
           with Parse.Parse_error msg -> String.length msg > 0));
    t "using tag round trip" (fun () ->
        match Parse.stmts "TASK 0 SENDS A 8 BYTE MESSAGE TO TASK 1 USING TAG 7 WITH NO IMPLICIT RECEIVE" with
        | [ A.Send { tag = 7; implicit_recv = false; _ } ] -> ()
        | _ -> Alcotest.fail "tag lost");
    t "using any tag" (fun () ->
        match Parse.stmts "TASK 0 RECEIVES A 8 BYTE MESSAGE FROM TASK 1 USING ANY TAG" with
        | [ A.Receive { tag = -1; _ } ] -> ()
        | _ -> Alcotest.fail "any tag lost");
    t "empty input" (fun () ->
        Alcotest.(check bool) "empty" true ((Parse.program "").A.body = []));
    t "parses the paper's Section 3.2 program verbatim (with MEDIAN)" (fun () ->
        let src =
          "FOR 1000 REPETITIONS {\n\
          \  ALL TASKS RESET THEIR COUNTERS THEN\n\
          \  ALL TASKS t ASYNCHRONOUSLY SEND A 1024 BYTE MESSAGE TO TASK t + 1 THEN\n\
          \  ALL TASKS AWAIT COMPLETION THEN\n\
          \  ALL TASKS LOG THE MEDIAN OF elapsed_usecs AS \"Time (us)\"\n\
           }"
        in
        match Parse.stmts src with
        | [ A.For { body = [ _; _; _; A.Log { agg = Some A.Median; _ } ]; _ } ] -> ()
        | _ -> Alcotest.fail "unexpected parse");
    t "log aggregates reduce per rank" (fun () ->
        let p =
          Parse.program
            "FOR 4 REPETITIONS {\n\
             ALL TASKS RESET THEIR COUNTERS THEN\n\
             ALL TASKS COMPUTE FOR 100.0 MICROSECONDS THEN\n\
             TASK 0 LOGS THE MAXIMUM OF elapsed_usecs AS \"m\"\n\
             }"
        in
        let res = Lower.run ~nranks:2 p in
        match res.logs with
        | [ ("m", [ (0, v) ]) ] ->
            Alcotest.(check bool) "one aggregated entry ~100us" true (v >= 99. && v < 200.)
        | _ -> Alcotest.fail "expected a single aggregated value");
  ]

(* -------------------------------------------------------------- *)
(* Lowering semantics                                               *)

let lower_tests =
  [
    t "implicit receive pairs up" (fun () ->
        let p =
          Parse.program
            "ALL TASKS t SEND A 100 BYTE MESSAGE TO TASK (t + 1) MOD 4"
        in
        let res = Lower.run ~nranks:4 p in
        Alcotest.(check int) "messages" 4 res.outcome.messages);
    t "explicit receives require WITH NO IMPLICIT RECEIVE" (fun () ->
        let p =
          Parse.program
            "ALL TASKS t ASYNCHRONOUSLY RECEIVE A 10 BYTE MESSAGE FROM TASK (t + 3) MOD 4 THEN\n\
             ALL TASKS t SEND A 10 BYTE MESSAGE TO TASK (t + 1) MOD 4 WITH NO IMPLICIT RECEIVE THEN\n\
             ALL TASKS AWAIT COMPLETION"
        in
        let res = Lower.run ~nranks:4 p in
        Alcotest.(check int) "messages" 4 res.outcome.messages);
    t "compute accumulates" (fun () ->
        let p = Parse.program "ALL TASKS COMPUTE FOR 2500.0 MICROSECONDS" in
        let res = Lower.run ~nranks:2 p in
        Alcotest.(check bool) "elapsed" true (res.outcome.elapsed >= 2.5e-3));
    t "reduce to all lowers to allreduce" (fun () ->
        let p = Parse.program "ALL TASKS t REDUCE A 64 BYTE MESSAGE TO ALL TASKS t" in
        let prof = Mpip.create () in
        ignore (Lower.run ~hooks:[ Mpip.hook prof ] ~nranks:4 p);
        let e = List.find (fun (e : Mpip.entry) -> e.op_name = "MPI_Allreduce") (Mpip.entries prof) in
        Alcotest.(check int) "calls" 4 e.calls);
    t "multicast from group member lowers to bcast" (fun () ->
        let p = Parse.program "TASK 2 MULTICASTS A 32 BYTE MESSAGE TO ALL TASKS" in
        let prof = Mpip.create () in
        ignore (Lower.run ~hooks:[ Mpip.hook prof ] ~nranks:4 p);
        let e = List.find (fun (e : Mpip.entry) -> e.op_name = "MPI_Bcast") (Mpip.entries prof) in
        Alcotest.(check int) "calls" 4 e.calls);
    t "group collective creates subcommunicator" (fun () ->
        let p =
          Parse.program "TASKS t SUCH THAT t < 2 SYNCHRONIZE THEN ALL TASKS SYNCHRONIZE"
        in
        let res = Lower.run ~nranks:4 p in
        Alcotest.(check bool) "ran" true (res.outcome.elapsed > 0.));
    t "log and reset produce series" (fun () ->
        let p =
          Parse.program
            "FOR 3 REPETITIONS {\n\
             ALL TASKS RESET THEIR COUNTERS THEN\n\
             ALL TASKS COMPUTE FOR 100.0 MICROSECONDS THEN\n\
             TASK 0 LOGS elapsed_usecs AS \"iter\"\n\
             }"
        in
        let res = Lower.run ~nranks:2 p in
        match res.logs with
        | [ ("iter", vals) ] ->
            Alcotest.(check int) "3 entries" 3 (List.length vals);
            List.iter
              (fun (_, v) -> Alcotest.(check bool) "~100us" true (v >= 99. && v < 200.))
              vals
        | _ -> Alcotest.fail "expected one series");
    t "for each binds loop variable" (fun () ->
        let p =
          Parse.program
            "FOR EACH i IN {1, ..., 3} {\nTASK 0 COMPUTES FOR i * 100.0 MICROSECONDS\n}"
        in
        let res = Lower.run ~nranks:1 p in
        Alcotest.(check bool) "sum is 600us" true
          (res.outcome.elapsed >= 600e-6 && res.outcome.elapsed < 700e-6));
    t "if condition selects branch" (fun () ->
        let p =
          Parse.program
            "FOR EACH i IN {0, ..., 1} {\n\
             IF i = 0 THEN {\nTASK 0 COMPUTES FOR 100.0 MICROSECONDS\n} ELSE {\n\
             TASK 0 COMPUTES FOR 900.0 MICROSECONDS\n}\n}"
        in
        let res = Lower.run ~nranks:1 p in
        Alcotest.(check bool) "1000us total" true
          (res.outcome.elapsed >= 1000e-6 && res.outcome.elapsed < 1100e-6));
    t "multicast with multi-task source rejected" (fun () ->
        let p = Parse.program "ALL TASKS MULTICAST A 8 BYTE MESSAGE TO ALL TASKS" in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Lower.run ~nranks:2 p);
             false
           with Lower.Lower_error _ -> true));
    t "send outside world rejected" (fun () ->
        let p = Parse.program "TASK 0 SENDS A 8 BYTE MESSAGE TO TASK 99" in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Lower.run ~nranks:2 p);
             false
           with Lower.Lower_error _ -> true));
    t "deterministic logs across runs" (fun () ->
        let p =
          Parse.program
            "ALL TASKS t SEND A 2048 BYTE MESSAGE TO TASK (t + 1) MOD 8 THEN\n\
             TASK 0 LOGS elapsed_usecs AS \"T\""
        in
        let v1 = Lower.run ~nranks:8 p and v2 = Lower.run ~nranks:8 p in
        Alcotest.(check bool) "equal logs" true (v1.logs = v2.logs));
  ]

let edit_tests =
  [
    t "scale_compute scales durations" (fun () ->
        let p = Parse.program "ALL TASKS COMPUTE FOR 1000.0 MICROSECONDS" in
        let p2 = Edit.scale_compute 0.5 p in
        let res = Lower.run ~nranks:1 p2 in
        Alcotest.(check bool) "halved" true
          (res.outcome.elapsed >= 500e-6 && res.outcome.elapsed < 600e-6));
    t "scale_compute 0 removes compute" (fun () ->
        let p = Parse.program "ALL TASKS COMPUTE FOR 1000.0 MICROSECONDS" in
        let res = Lower.run ~nranks:1 (Edit.scale_compute 0. p) in
        Alcotest.(check bool) "zero" true (res.outcome.elapsed < 1e-4));
    t "scale_messages scales bytes" (fun () ->
        let p = Parse.program "TASK 0 SENDS A 1000 BYTE MESSAGE TO TASK 1" in
        let prof = Mpip.create () in
        ignore (Lower.run ~hooks:[ Mpip.hook prof ] ~nranks:2 (Edit.scale_messages 2.0 p));
        Alcotest.(check int) "doubled" 4000 (Mpip.total_bytes prof));
    t "static_compute_usecs expands loops" (fun () ->
        let p =
          Parse.program "FOR 10 REPETITIONS {\nALL TASKS COMPUTE FOR 5.0 MICROSECONDS\n}"
        in
        Alcotest.(check (float 1e-6)) "50" 50.0 (Edit.static_compute_usecs p));
    t "negative factor rejected" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Edit.scale_compute (-1.) { A.comments = []; body = [] });
             false
           with Invalid_argument _ -> true));
  ]

(* Lowering tests added after [edit_tests], so that the existing tests
   keep their indices in the suite. *)
let lower_error_tests =
  let lowering_error p =
    match Lower.run ~nranks:4 (Parse.program p) with
    | _ -> Alcotest.fail "expected Lower_error"
    | exception Lower.Lower_error msg -> msg
  in
  [
    t "unbound variable is a lowering error naming its statement" (fun () ->
        Alcotest.(check string)
          "message" "ncptl:.0.0: unbound variable i"
          (lowering_error
             "FOR 2 REPETITIONS { TASK 0 SENDS A 8 BYTE MESSAGE TO TASK i }"));
    t "division by zero is a lowering error naming its statement" (fun () ->
        Alcotest.(check string)
          "message" "ncptl:.0: division by zero"
          (lowering_error "TASK 0 COMPUTES FOR 10/0 MICROSECONDS"));
  ]

let suite =
  eval_tests @ roundtrip_props @ parse_tests @ lower_tests @ edit_tests
  @ lower_error_tests
