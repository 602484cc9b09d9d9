(* End-to-end pipeline tests: trace -> generate -> parse -> run, across the
   whole application suite, checking the paper's correctness criteria. *)

open Mpisim
module Pipeline = Benchgen.Pipeline

let t name f = Alcotest.test_case name `Quick f

(* Trace [app] and generate its benchmark: the report and the traced run. *)
let from_app ~name ~nranks app =
  let a =
    Generate.artifact
      ~cfg:{ Pipeline.default with name = Some name }
      (Pipeline.From_app { nranks; app })
  in
  (a.Pipeline.report, Option.get a.Pipeline.trace_outcome)

let cls = Apps.Params.S

let p2p_profile prof =
  List.filter_map
    (fun (e : Mpip.entry) ->
      match e.op_name with
      | "MPI_Send" | "MPI_Isend" -> Some (`Send, e.calls, e.bytes)
      | "MPI_Recv" | "MPI_Irecv" -> Some (`Recv, e.calls, e.bytes)
      | _ -> None)
    (Mpip.entries prof)
  |> List.fold_left
       (fun (sc, sb, rc, rb) (k, c, b) ->
         match k with
         | `Send -> (sc + c, sb + b, rc, rb)
         | `Recv -> (sc, sb, rc + c, rb + b))
       (0, 0, 0, 0)

let per_app name =
  let app = Option.get (Apps.Registry.find name) in
  let nranks = Apps.Registry.fit_nranks app ~wanted:(if name = "bt" || name = "sp" then 9 else 8) in
  [
    t (name ^ ": generated benchmark preserves p2p counts and volume") (fun () ->
        let report, _ = from_app ~name ~nranks (app.program ~cls ()) in
        let prof_o = Mpip.create () and prof_g = Mpip.create () in
        ignore (Mpi.run ~hooks:[ Mpip.hook prof_o ] ~nranks (app.program ~cls ()));
        ignore (Conceptual.Lower.run ~hooks:[ Mpip.hook prof_g ] ~nranks report.program);
        let sc, sb, rc, rb = p2p_profile prof_o in
        let sc', sb', rc', rb' = p2p_profile prof_g in
        Alcotest.(check int) "send calls" sc sc';
        Alcotest.(check int) "send bytes" sb sb';
        Alcotest.(check int) "recv calls" rc rc';
        Alcotest.(check int) "recv bytes" rb rb');
    t (name ^ ": generated text parses back to the same program") (fun () ->
        let report, _ = from_app ~name ~nranks (app.program ~cls ()) in
        Alcotest.(check bool) "round-trip" true
          (Conceptual.Ast.equal report.program (Conceptual.Parse.program report.text)));
    t (name ^ ": timing within 25% of the original") (fun () ->
        let report, orig = from_app ~name ~nranks (app.program ~cls ()) in
        let res = Conceptual.Lower.run ~nranks report.program in
        let err =
          Float.abs (res.outcome.elapsed -. orig.elapsed) /. orig.elapsed *. 100.
        in
        Alcotest.(check bool)
          (Printf.sprintf "err %.1f%%" err)
          true (err < 25.));
    t (name ^ ": generation is deterministic") (fun () ->
        let r1, _ = from_app ~name ~nranks (app.program ~cls ()) in
        let r2, _ = from_app ~name ~nranks (app.program ~cls ()) in
        Alcotest.(check string) "same text" r1.text r2.text);
  ]

let app_tests = List.concat_map per_app [ "bt"; "cg"; "ep"; "ft"; "is"; "lu"; "mg"; "sp"; "sweep3d" ]

let misc_tests =
  [
    t "report flags reflect the passes that ran" (fun () ->
        let sweep = Option.get (Apps.Registry.find "sweep3d") in
        (* 9 ranks -> 3x3 grid with an interior rank, so the two allreduce
           call sites really are rank-conditional *)
        let r, _ = from_app ~name:"sweep3d" ~nranks:9 (sweep.program ~cls ()) in
        Alcotest.(check bool) "aligned" true r.aligned;
        Alcotest.(check bool) "not resolved" false r.resolved;
        let lu = Option.get (Apps.Registry.find "lu") in
        let r2, _ = from_app ~name:"lu" ~nranks:8 (lu.program ~cls ()) in
        Alcotest.(check bool) "not aligned" false r2.aligned;
        Alcotest.(check bool) "resolved" true r2.resolved);
    t "generated code contains no communicator operations" (fun () ->
        let cg = Option.get (Apps.Registry.find "cg") in
        let r, _ = from_app ~name:"cg" ~nranks:8 (cg.program ~cls ()) in
        Alcotest.(check bool) "no comm_split in text" false
          (let re = "Comm_split" in
           let text = r.text in
           let len = String.length re in
           let rec find i =
             if i + len > String.length text then false
             else if String.sub text i len = re then true
             else find (i + 1)
           in
           find 0));
    t "statement count is sublinear in events" (fun () ->
        let ft = Option.get (Apps.Registry.find "ft") in
        let r, _ = from_app ~name:"ft" ~nranks:8 (ft.program ~cls:Apps.Params.W ()) in
        let trace, _ = Scalatrace.Tracer.trace_run ~nranks:8 (ft.program ~cls:Apps.Params.W ()) in
        Alcotest.(check bool) "far fewer statements than events" true
          (r.statements * 5 < Scalatrace.Trace.event_count trace));
    t "compute_floor drops tiny gaps" (fun () ->
        let ep = Option.get (Apps.Registry.find "ep") in
        let trace, _ = Scalatrace.Tracer.trace_run ~nranks:4 (ep.program ~cls ()) in
        let tight =
          Generate.report
            ~cfg:{ Pipeline.default with compute_floor_usecs = Some 1e9 }
            (Pipeline.From_trace trace)
        in
        let has_compute =
          Conceptual.Ast.fold_stmts
            (fun acc s -> acc || match s with Conceptual.Ast.Compute _ -> true | _ -> false)
            false tight.program
        in
        Alcotest.(check bool) "no compute" false has_compute);
    t "what-if scaling halves run time (Sec 5.4 workflow)" (fun () ->
        let ep = Option.get (Apps.Registry.find "ep") in
        let r, _ = from_app ~name:"ep" ~nranks:4 (ep.program ~cls ()) in
        let full = (Conceptual.Lower.run ~nranks:4 r.program).outcome.elapsed in
        let half =
          (Conceptual.Lower.run ~nranks:4 (Conceptual.Edit.scale_compute 0.5 r.program))
            .outcome.elapsed
        in
        Alcotest.(check bool) "halved" true
          (half < 0.6 *. full && half > 0.4 *. full));
  ]

let replay_tests =
  [
    t "replay of a trace matches the original elapsed time" (fun () ->
        let mg = Option.get (Apps.Registry.find "mg") in
        let trace, orig = Scalatrace.Tracer.trace_run ~nranks:8 (mg.program ~cls ()) in
        let rep = Replay.run trace in
        let err =
          Float.abs (rep.outcome.elapsed -. orig.elapsed) /. orig.elapsed *. 100.
        in
        Alcotest.(check bool) (Printf.sprintf "err %.1f%%" err) true (err < 10.));
    t "replay records wildcard matches" (fun () ->
        let s1 = Mpi.site __POS__ and s2 = Mpi.site __POS__ and s3 = Mpi.site __POS__ in
        let prog (ctx : Mpi.ctx) =
          (if ctx.rank = 0 then
             for _ = 1 to 2 do
               ignore (Mpi.recv ~site:s1 ctx ~src:Call.Any_source ~bytes:8)
             done
           else begin
             Mpi.compute ctx (float_of_int ctx.rank *. 1e-4);
             Mpi.send ~site:s2 ctx ~dst:0 ~bytes:8
           end);
          Mpi.finalize ~site:s3 ctx
        in
        let trace, _ = Scalatrace.Tracer.trace_run ~nranks:3 prog in
        let rep = Replay.run trace in
        let total =
          List.fold_left (fun acc (_, srcs) -> acc + List.length srcs) 0 rep.wildcard_matches
        in
        Alcotest.(check int) "2 matches" 2 total);
    t "replay respects compute_scale" (fun () ->
        let ep = Option.get (Apps.Registry.find "ep") in
        let trace, _ = Scalatrace.Tracer.trace_run ~nranks:4 (ep.program ~cls ()) in
        let full = (Replay.run trace).outcome.elapsed in
        let tenth = (Replay.run ~compute_scale:0.1 trace).outcome.elapsed in
        Alcotest.(check bool) "scaled" true (tenth < 0.2 *. full));
    t "replay recreates subcommunicator collectives" (fun () ->
        let s1 = Mpi.site __POS__ and s2 = Mpi.site __POS__ and s3 = Mpi.site __POS__ in
        let prog (ctx : Mpi.ctx) =
          let c = Mpi.comm_split ~site:s1 ctx ~color:(ctx.rank mod 2) ~key:ctx.rank in
          Mpi.allreduce ~site:s2 ~comm:c ctx ~bytes:32;
          Mpi.finalize ~site:s3 ctx
        in
        let trace, _ = Scalatrace.Tracer.trace_run ~nranks:4 prog in
        let rep = Replay.run trace in
        Alcotest.(check bool) "ran" true (rep.outcome.elapsed > 0.));
  ]

let apps_tests =
  [
    t "registry has the paper's nine codes plus synthetics" (fun () ->
        Alcotest.(check (list string)) "paper suite"
          [ "bt"; "cg"; "ep"; "ft"; "is"; "lu"; "mg"; "sp"; "sweep3d" ]
          (List.map (fun (a : Apps.Registry.app) -> a.name) Apps.Registry.paper_suite);
        Alcotest.(check int) "sixteen total" 16 (List.length Apps.Registry.all));
    t "rank constraints enforced" (fun () ->
        let bt = Option.get (Apps.Registry.find "bt") in
        Alcotest.(check bool) "16 square ok" true (bt.supports 16);
        Alcotest.(check bool) "8 not square" false (bt.supports 8);
        Alcotest.(check int) "fit" 16 (Apps.Registry.fit_nranks bt ~wanted:10));
    t "apps are deterministic across runs" (fun () ->
        List.iter
          (fun (app : Apps.Registry.app) ->
            let nranks = Apps.Registry.fit_nranks app ~wanted:4 in
            let a = Mpi.run ~nranks (app.program ~cls ()) in
            let b = Mpi.run ~nranks (app.program ~cls ()) in
            Alcotest.(check (float 0.)) (app.name ^ " elapsed") a.elapsed b.elapsed)
          Apps.Registry.all);
    t "synthetic apps generate cleanly end to end" (fun () ->
        List.iter
          (fun name ->
            let app = Option.get (Apps.Registry.find name) in
            let nranks = Apps.Registry.fit_nranks app ~wanted:8 in
            let report, orig = from_app ~name ~nranks (app.program ~cls ()) in
            let res = Conceptual.Lower.run ~nranks report.program in
            let err =
              Float.abs (res.outcome.elapsed -. orig.elapsed) /. orig.elapsed *. 100.
            in
            Alcotest.(check bool) (Printf.sprintf "%s err %.1f%%" name err) true (err < 20.))
          [ "ring"; "stencil2d"; "butterfly" ]);
    t "decomp helpers" (fun () ->
        Alcotest.(check (pair int int)) "near_square 12" (3, 4) (Apps.Decomp.near_square 12);
        Alcotest.(check (pair int int)) "near_square 16" (4, 4) (Apps.Decomp.near_square 16);
        Alcotest.(check bool) "square" true (Apps.Decomp.is_square 36);
        Alcotest.(check bool) "pow2" true (Apps.Decomp.is_power_of_two 64);
        Alcotest.(check bool) "not pow2" false (Apps.Decomp.is_power_of_two 48);
        let px, py, pz = Apps.Decomp.factor3 8 in
        Alcotest.(check int) "factor3 product" 8 (px * py * pz));
    t "grid coordinates invert" (fun () ->
        for r = 0 to 11 do
          let x, y = Apps.Decomp.coords2 ~px:3 r in
          Alcotest.(check int) "inverse" r (Apps.Decomp.rank2 ~px:3 ~x ~y)
        done;
        for r = 0 to 23 do
          let x, y, z = Apps.Decomp.coords3 ~px:2 ~py:3 r in
          Alcotest.(check int) "inverse3" r (Apps.Decomp.rank3 ~px:2 ~py:3 ~x ~y ~z)
        done);
    t "neighbors respect boundaries" (fun () ->
        Alcotest.(check (option int)) "left edge" None
          (Apps.Decomp.neighbor2 ~px:3 ~py:3 ~rank:0 ~dx:(-1) ~dy:0);
        Alcotest.(check (option int)) "interior" (Some 5)
          (Apps.Decomp.neighbor2 ~px:3 ~py:3 ~rank:4 ~dx:1 ~dy:0);
        Alcotest.(check int) "periodic wraps" 2
          (Apps.Decomp.neighbor3_periodic ~px:3 ~py:1 ~pz:1 ~rank:0 ~dx:(-1) ~dy:0 ~dz:0));
  ]

let mpip_tests =
  [
    t "profiles counts and volumes" (fun () ->
        let prof = Mpip.create () in
        let _ =
          Mpi.run ~hooks:[ Mpip.hook prof ] ~nranks:2 (fun ctx ->
              (if ctx.rank = 0 then Mpi.send ctx ~dst:1 ~bytes:100
               else ignore (Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:100));
              Mpi.allreduce ctx ~bytes:8;
              Mpi.finalize ctx)
        in
        let find n =
          List.find (fun (e : Mpip.entry) -> e.op_name = n) (Mpip.entries prof)
        in
        Alcotest.(check int) "send" 1 (find "MPI_Send").calls;
        Alcotest.(check int) "send bytes" 100 (find "MPI_Send").bytes;
        Alcotest.(check int) "allreduce calls" 2 (find "MPI_Allreduce").calls;
        Alcotest.(check int) "allreduce bytes" 16 (find "MPI_Allreduce").bytes);
    t "diff is empty for identical runs" (fun () ->
        let prog (ctx : Mpi.ctx) =
          Mpi.barrier ctx;
          Mpi.finalize ctx
        in
        let a = Mpip.create () and b = Mpip.create () in
        ignore (Mpi.run ~hooks:[ Mpip.hook a ] ~nranks:2 prog);
        ignore (Mpi.run ~hooks:[ Mpip.hook b ] ~nranks:2 prog);
        Alcotest.(check (list string)) "no diff" [] (Mpip.diff a b);
        Alcotest.(check bool) "equal" true (Mpip.equal a b));
    t "diff reports discrepancies" (fun () ->
        let a = Mpip.create () and b = Mpip.create () in
        ignore
          (Mpi.run ~hooks:[ Mpip.hook a ] ~nranks:2 (fun ctx ->
               Mpi.barrier ctx;
               Mpi.finalize ctx));
        ignore
          (Mpi.run ~hooks:[ Mpip.hook b ] ~nranks:2 (fun ctx ->
               Mpi.allreduce ctx ~bytes:8;
               Mpi.finalize ctx));
        Alcotest.(check bool) "has diff" true (List.length (Mpip.diff a b) >= 2));
  ]

(* RSD counts before and after the rewriting passes ([input_rsds],
   [final_rsds]).  The compressor finds loop bodies of up to
   {!Scalatrace.Compress.default_window} nodes: MG's class C V-cycle is
   longer than 64, and so is the body CG's alignment rebuild folds at
   1024 ranks. *)
let rsds ~name ~wanted ~cls =
  let app = Option.get (Apps.Registry.find name) in
  let nranks = Apps.Registry.fit_nranks app ~wanted in
  let report, _ = from_app ~name ~nranks (app.program ~cls ()) in
  (report.Pipeline.input_rsds, report.Pipeline.final_rsds)

let rsd_tests =
  let slow name f = Alcotest.test_case name `Slow f in
  [
    t "rsd counts of every registry app at 64 ranks class C are pinned" (fun () ->
        List.iter
          (fun (name, wanted, cls, want) ->
            Alcotest.(check (pair int int))
              (Printf.sprintf "%s raw, final" name)
              want
              (rsds ~name ~wanted ~cls))
          [
            ("bt", 64, Apps.Params.C, (156, 156));
            ("cg", 64, Apps.Params.C, (138, 123));
            ("ep", 64, Apps.Params.C, (4, 4));
            ("ft", 64, Apps.Params.C, (5, 5));
            ("is", 64, Apps.Params.C, (194, 5));
            ("lu", 64, Apps.Params.C, (137, 504));
            ("mg", 64, Apps.Params.C, (94, 94));
            ("sp", 64, Apps.Params.C, (156, 156));
            ("sweep3d", 64, Apps.Params.C, (108, 100));
            ("ring", 64, Apps.Params.C, (4, 4));
            ("stencil2d", 64, Apps.Params.C, (11, 11));
            ("butterfly", 64, Apps.Params.C, (19, 19));
            ("amg", 64, Apps.Params.C, (43, 13));
            ("kripke", 64, Apps.Params.C, (2028, 701));
            ("laghos", 64, Apps.Params.C, (18, 10));
            ("hirsd", 32, Apps.Params.A, (22130, 12841));
          ]);
    slow "mg class C folds its V-cycle at 256 ranks" (fun () ->
        let raw, final = rsds ~name:"mg" ~wanted:256 ~cls:Apps.Params.C in
        Alcotest.(check bool) (Printf.sprintf "%d, %d RSDs <= 100" raw final) true
          (raw <= 100 && final <= 100));
    slow "cg at 1024 ranks class W: alignment adds no RSDs" (fun () ->
        let raw, final = rsds ~name:"cg" ~wanted:1024 ~cls:Apps.Params.W in
        Alcotest.(check bool) (Printf.sprintf "final %d <= raw %d" final raw) true
          (final <= raw));
  ]

let suite =
  app_tests @ misc_tests @ replay_tests @ apps_tests @ mpip_tests @ rsd_tests
