open Mpisim
open Scalatrace

let t name f = Alcotest.test_case name `Quick f

let s_r = Mpi.site __POS__
let s_s = Mpi.site __POS__
let s_w = Mpi.site __POS__
let s_a = Mpi.site __POS__
let s_f = Mpi.site __POS__

(* ring whose message size shrinks with p and iteration count is fixed *)
let ring (ctx : Mpi.ctx) =
  let n = ctx.nranks in
  let bytes = 65536 / n in
  for _ = 1 to 50 do
    let r = Mpi.irecv ~site:s_r ctx ~src:(Call.Rank ((ctx.rank + n - 1) mod n)) ~bytes in
    let s = Mpi.isend ~site:s_s ctx ~dst:((ctx.rank + 1) mod n) ~bytes in
    ignore (Mpi.waitall ~site:s_w ctx [ r; s ]);
    Mpi.compute ctx 1e-5;
    Mpi.allreduce ~site:s_a ctx ~bytes:8
  done;
  Mpi.finalize ~site:s_f ctx

let trace_at p prog = fst (Tracer.trace_run ~nranks:p prog)

let fit_tests =
  [
    t "fit constant" (fun () ->
        match Benchgen.Extrap.fit [ (4, 7.); (8, 7.); (16, 7.) ] with
        | Some (predict, _) -> Alcotest.(check (float 1e-9)) "at 64" 7. (predict 64)
        | None -> Alcotest.fail "no fit");
    t "fit linear in p" (fun () ->
        match Benchgen.Extrap.fit [ (4, 9.); (8, 17.); (16, 33.) ] with
        | Some (predict, _) -> Alcotest.(check (float 1e-6)) "at 32" 65. (predict 32)
        | None -> Alcotest.fail "no fit");
    t "fit inverse p" (fun () ->
        match Benchgen.Extrap.fit [ (4, 16384.); (8, 8192.); (16, 4096.) ] with
        | Some (predict, _) -> Alcotest.(check (float 1e-3)) "at 64" 1024. (predict 64)
        | None -> Alcotest.fail "no fit");
    t "fit sqrt p" (fun () ->
        match Benchgen.Extrap.fit [ (4, 2.); (16, 4.); (64, 8.) ] with
        | Some (predict, _) -> Alcotest.(check (float 1e-6)) "at 256" 16. (predict 256)
        | None -> Alcotest.fail "no fit");
    t "fit log2 p" (fun () ->
        match Benchgen.Extrap.fit [ (4, 2.); (8, 3.); (16, 4.) ] with
        | Some (predict, _) -> Alcotest.(check (float 1e-6)) "at 64" 6. (predict 64)
        | None -> Alcotest.fail "no fit");
    t "no fit for erratic data" (fun () ->
        Alcotest.(check bool) "none" true
          (Benchgen.Extrap.fit [ (4, 1.); (8, 100.); (16, 2.); (32, 77.) ] = None));
    t "single sample has no model" (fun () ->
        Alcotest.(check bool) "none" true (Benchgen.Extrap.fit [ (4, 1.) ] = None));
  ]

let extrap_tests =
  [
    t "ring extrapolates structure, sizes and peers" (fun () ->
        let inputs = List.map (fun p -> trace_at p ring) [ 4; 8; 16 ] in
        let ex = Benchgen.Extrap.extrapolate inputs ~target:64 in
        let actual = trace_at 64 ring in
        Alcotest.(check int) "nranks" 64 (Trace.nranks ex);
        Alcotest.(check int) "rsds" (Trace.rsd_count actual) (Trace.rsd_count ex);
        Alcotest.(check int) "events" (Trace.event_count actual) (Trace.event_count ex);
        (* message size follows 65536/p *)
        let size = ref 0 in
        Tnode.iter_leaves
          (fun e -> if e.Event.kind = Event.E_isend then size := e.Event.bytes)
          (Trace.nodes ex);
        Alcotest.(check int) "bytes" 1024 !size);
    t "extrapolated benchmark time tracks the real one" (fun () ->
        let inputs = List.map (fun p -> trace_at p ring) [ 4; 8; 16 ] in
        let ex = Benchgen.Extrap.extrapolate inputs ~target:64 in
        let report = Generate.report (Benchgen.Pipeline.From_trace ex) in
        let res = Conceptual.Lower.run ~nranks:64 report.program in
        let _, actual = Tracer.trace_run ~nranks:64 ring in
        let err =
          Float.abs (res.outcome.elapsed -. actual.elapsed) /. actual.elapsed *. 100.
        in
        Alcotest.(check bool) (Printf.sprintf "err=%.1f%%" err) true (err < 15.));
    t "ep extrapolates (constant structure)" (fun () ->
        let app = Option.get (Apps.Registry.find "ep") in
        let prog = app.program ~cls:Apps.Params.S () in
        let inputs = List.map (fun p -> trace_at p prog) [ 4; 8; 16 ] in
        let ex = Benchgen.Extrap.extrapolate inputs ~target:64 in
        let actual = trace_at 64 prog in
        Alcotest.(check int) "events" (Trace.event_count actual) (Trace.event_count ex));
    t "ft extrapolates alltoall sizes (1/p^2)" (fun () ->
        let app = Option.get (Apps.Registry.find "ft") in
        let prog = app.program ~cls:Apps.Params.S () in
        let inputs = List.map (fun p -> trace_at p prog) [ 4; 8; 16 ] in
        let ex = Benchgen.Extrap.extrapolate inputs ~target:64 in
        let actual = trace_at 64 prog in
        let a2a trace =
          let v = ref 0 in
          Tnode.iter_leaves
            (fun e -> if e.Event.kind = Event.E_alltoall then v := e.Event.bytes)
            (Trace.nodes trace);
          !v
        in
        (* the application truncates sz/p^2 to int while the fitted model
           rounds: allow 1 byte of quantization *)
        Alcotest.(check bool)
          (Printf.sprintf "pair bytes %d ~ %d" (a2a actual) (a2a ex))
          true
          (abs (a2a actual - a2a ex) <= 1));
    t "rejects structurally varying codes" (fun () ->
        (* CG's reduction has log2(px) unrolled stages: shape varies *)
        let app = Option.get (Apps.Registry.find "cg") in
        let prog = app.program ~cls:Apps.Params.S () in
        let inputs = List.map (fun p -> trace_at p prog) [ 4; 16 ] in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Benchgen.Extrap.extrapolate inputs ~target:64);
             false
           with Benchgen.Extrap.Extrap_error _ -> true));
    t "rejects too-small target" (fun () ->
        let inputs = List.map (fun p -> trace_at p ring) [ 4; 8 ] in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Benchgen.Extrap.extrapolate inputs ~target:8);
             false
           with Benchgen.Extrap.Extrap_error _ -> true));
    t "rejects single input" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Benchgen.Extrap.extrapolate [ trace_at 4 ring ] ~target:16);
             false
           with Benchgen.Extrap.Extrap_error _ -> true));
    t "extrapolated trace passes generation round-trip" (fun () ->
        let inputs = List.map (fun p -> trace_at p ring) [ 4; 8; 16 ] in
        let ex = Benchgen.Extrap.extrapolate inputs ~target:32 in
        let report = Generate.report (Benchgen.Pipeline.From_trace ex) in
        Alcotest.(check bool) "parses" true
          (Conceptual.Ast.equal report.program (Conceptual.Parse.program report.text)));
  ]

let stencil2d_tests =
  (* 2-D periodic halo exchange: the column-neighbour offset is sqrt(p),
     exactly the grid-shaped scaling the model family must recognize *)
  let s2_r = Mpisim.Mpi.site __POS__ and s2_s = Mpisim.Mpi.site __POS__ in
  let s2_w = Mpisim.Mpi.site __POS__ and s2_f = Mpisim.Mpi.site __POS__ in
  let stencil (ctx : Mpi.ctx) =
    let n = ctx.nranks in
    let px = int_of_float (sqrt (float_of_int n) +. 0.5) in
    for _ = 1 to 20 do
      let nbrs =
        [ (ctx.rank + 1) mod n; (ctx.rank + n - 1) mod n;
          (ctx.rank + px) mod n; (ctx.rank + n - px) mod n ]
      in
      let rs =
        List.map (fun s -> Mpi.irecv ~site:s2_r ctx ~src:(Call.Rank s) ~bytes:512) nbrs
      in
      let ss = List.map (fun d -> Mpi.isend ~site:s2_s ctx ~dst:d ~bytes:512) nbrs in
      ignore (Mpi.waitall ~site:s2_w ctx (rs @ ss));
      Mpi.compute ctx 2e-5
    done;
    Mpi.finalize ~site:s2_f ctx
  in
  [
    t "2-D stencil extrapolates sqrt(p) neighbour offsets" (fun () ->
        let inputs = List.map (fun p -> trace_at p stencil) [ 16; 36; 64 ] in
        let ex = Benchgen.Extrap.extrapolate inputs ~target:144 in
        let actual = trace_at 144 stencil in
        Alcotest.(check int) "events" (Trace.event_count actual) (Trace.event_count ex);
        (* the column offset must be 12 = sqrt(144) *)
        let offsets = ref [] in
        Tnode.iter_leaves
          (fun e ->
            match (e.Event.kind, e.Event.peer) with
            | Event.E_isend, Event.P_rel d -> offsets := d :: !offsets
            | _ -> ())
          (Trace.nodes ex);
        let offsets = List.sort_uniq compare !offsets in
        Alcotest.(check (list int)) "offsets" [ 1; 12; 132; 143 ] offsets);
    t "2-D stencil extrapolated benchmark runs and tracks time" (fun () ->
        let inputs = List.map (fun p -> trace_at p stencil) [ 16; 36; 64 ] in
        let ex = Benchgen.Extrap.extrapolate inputs ~target:100 in
        let report = Generate.report (Benchgen.Pipeline.From_trace ex) in
        let res = Conceptual.Lower.run ~nranks:100 report.program in
        let _, actual = Tracer.trace_run ~nranks:100 stencil in
        let err =
          Float.abs (res.outcome.elapsed -. actual.elapsed) /. actual.elapsed *. 100.
        in
        Alcotest.(check bool) (Printf.sprintf "err=%.1f%%" err) true (err < 15.));
  ]

let cgen_tests =
  [
    t "c backend emits a full translation unit" (fun () ->
        let trace = trace_at 8 ring in
        let c = Benchgen.Cgen.program ~name:"ring" trace in
        List.iter
          (fun needle ->
            let found =
              let n = String.length needle and m = String.length c in
              let rec go i = i + n <= m && (String.sub c i n = needle || go (i + 1)) in
              go 0
            in
            Alcotest.(check bool) needle true found)
          [
            "MPI_Init"; "MPI_Finalize"; "MPI_Irecv"; "MPI_Isend"; "MPI_Waitall";
            "MPI_Allreduce"; "for (int it = 0; it < 50; it++)"; "spin_for_usecs";
          ]);
    t "c backend guards partial-participant operations" (fun () ->
        let s1 = Mpi.site __POS__ and s2 = Mpi.site __POS__ in
        let prog (ctx : Mpi.ctx) =
          (if ctx.rank = 0 then Mpi.send ~site:s1 ctx ~dst:1 ~bytes:8
           else if ctx.rank = 1 then ignore (Mpi.recv ~site:s2 ctx ~src:(Call.Rank 0) ~bytes:8));
          Mpi.finalize ~site:s_f ctx
        in
        let trace = trace_at 4 prog in
        let c = Benchgen.Cgen.program trace in
        let contains needle =
          let n = String.length needle and m = String.length c in
          let rec go i = i + n <= m && (String.sub c i n = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "rank guard" true (contains "if (rank == 0)"));
  ]

let suite = fit_tests @ extrap_tests @ stencil2d_tests @ cgen_tests
