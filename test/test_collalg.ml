(* Pluggable collective algorithm schedules (Mpisim.Coll_alg).

   Two layers of assurance:

   - schedule shape: each expander produces the textbook round structure
     (ring = p-1 rounds, recursive doubling = log2 p pairwise exchanges,
     binomial = doubling frontier, Rabenseifner = halving-then-doubling
     byte ladder with 2*bytes*(p-1)/p per-rank traffic), and `Auto's
     selection table resolves as documented;

   - semantics: every strategy is differentially equivalent to the
     `Monolithic reference — same per-channel bytes, same collective
     participant multisets, and exactly one on_collective_complete event
     per logical collective — across the whole app registry and a seeded
     Check.Gen campaign (Check.Collfuzz).

   The dispatch-accounting pin nails the cost contract down to the
   number: Netmodel.collective_dispatch is charged once per logical
   collective, so a recursive-doubling barrier at equal arrivals costs
   exactly the analytic Netmodel.barrier_cost. *)

open Mpisim
module Coll_alg = Mpisim.Coll_alg

let t name f = Alcotest.test_case name `Quick f
let net = Netmodel.bluegene_l
let allreduce bytes = Call.Allreduce { bytes }

let expand_exn a ~op ~p =
  match Coll_alg.expand a ~op ~p with
  | Some s -> s
  | None -> Alcotest.failf "%s: expected a schedule" (Coll_alg.name (a :> Coll_alg.t))

let shape_tests =
  [
    t "of_string round-trips every strategy" (fun () ->
        List.iter
          (fun a ->
            match Coll_alg.of_string (Coll_alg.name a) with
            | Ok a' ->
                Alcotest.(check string)
                  "round-trip" (Coll_alg.name a) (Coll_alg.name a')
            | Error m -> Alcotest.fail m)
          Coll_alg.all;
        Alcotest.(check bool)
          "unknown name rejected" true
          (Result.is_error (Coll_alg.of_string "hypercube"));
        (* the reference model stays the pipeline's default, so same-seed
           artifacts stay byte-identical across releases *)
        Alcotest.(check string)
          "pipeline default" "monolithic"
          (Coll_alg.name Benchgen.Pipeline.default.coll_alg));
    t "ring allreduce: p-1 rounds of p full-vector transfers" (fun () ->
        let sched = expand_exn `Ring ~op:(allreduce 512) ~p:5 in
        Alcotest.(check int) "rounds" 4 (Coll_alg.round_count sched);
        List.iter
          (fun rnd ->
            Alcotest.(check int) "transfers" 5 (List.length rnd);
            List.iter
              (fun (x : Coll_alg.xfer) ->
                Alcotest.(check int) "full vector" 512 x.x_bytes;
                Alcotest.(check int)
                  "successor" ((x.x_src + 1) mod 5) x.x_dst)
              rnd)
          sched);
    t "recursive doubling: log2 p rounds, XOR partners, pow2 only"
      (fun () ->
        let sched = expand_exn `Recursive_doubling ~op:(allreduce 64) ~p:8 in
        Alcotest.(check int) "rounds" 3 (Coll_alg.round_count sched);
        List.iteri
          (fun k rnd ->
            List.iter
              (fun (x : Coll_alg.xfer) ->
                Alcotest.(check int) "partner" (x.x_src lxor (1 lsl k)) x.x_dst)
              rnd)
          sched;
        Alcotest.(check bool)
          "p=6 does not expand" true
          (Coll_alg.expand `Recursive_doubling ~op:(allreduce 64) ~p:6 = None);
        Alcotest.(check string)
          "p=6 falls back to monolithic" "monolithic"
          (Coll_alg.name
             (Coll_alg.select `Recursive_doubling ~op:(allreduce 64) ~p:6
               :> Coll_alg.t)));
    t "binomial bcast: frontier doubles, root relabelled" (fun () ->
        let op = Call.Bcast { root = 3; bytes = 100 } in
        let sched = expand_exn `Binomial ~op ~p:8 in
        Alcotest.(check (list int))
          "round sizes" [ 1; 2; 4 ]
          (List.map List.length sched);
        (match sched with
        | ({ x_src; _ } :: _) :: _ ->
            Alcotest.(check int) "root sends first" 3 x_src
        | _ -> Alcotest.fail "empty schedule");
        (* reduce is the same tree with every edge reversed, leaf-first *)
        let red =
          expand_exn `Binomial ~op:(Call.Reduce { root = 3; bytes = 100 }) ~p:8
        in
        Alcotest.(check (list int))
          "reduce round sizes" [ 4; 2; 1 ]
          (List.map List.length red);
        let last_xfer = List.hd (List.nth red 2) in
        Alcotest.(check int) "root receives last" 3 last_xfer.x_dst);
    t "rabenseifner: halving/doubling byte ladder, 2b(p-1)/p per rank"
      (fun () ->
        let p = 8 and bytes = 8192 in
        let sched = expand_exn `Rabenseifner ~op:(allreduce bytes) ~p in
        Alcotest.(check (list int))
          "byte ladder"
          [ 4096; 2048; 1024; 1024; 2048; 4096 ]
          (List.map
             (fun rnd -> (List.hd rnd : Coll_alg.xfer).x_bytes)
             sched);
        let sent = Coll_alg.bytes_sent_per_rank ~p sched in
        Array.iter
          (fun b ->
            Alcotest.(check int) "per-rank traffic" (2 * bytes * (p - 1) / p) b)
          sent);
    t "strategies never apply to p<2 or communicator management" (fun () ->
        Alcotest.(check bool)
          "p=1" false
          (Coll_alg.applies `Ring ~op:(allreduce 8) ~p:1);
        List.iter
          (fun op ->
            List.iter
              (fun a ->
                Alcotest.(check bool)
                  "management stays monolithic" false
                  (Coll_alg.applies a ~op ~p:8))
              Coll_alg.schedules)
          [ Call.Comm_dup; Call.Comm_split { color = 0; key = 0 }; Call.Finalize ]);
    t "auto selection table" (fun () ->
        let pick op p = Coll_alg.name (Coll_alg.select `Auto ~op ~p :> Coll_alg.t) in
        Alcotest.(check string)
          "small pow2 allreduce" "recursive-doubling"
          (pick (allreduce 64) 8);
        Alcotest.(check string)
          "large pow2 allreduce" "rabenseifner"
          (pick (allreduce 65536) 8);
        Alcotest.(check string)
          "large non-pow2 allreduce" "ring"
          (pick (allreduce 65536) 6);
        Alcotest.(check string) "bcast" "binomial"
          (pick (Call.Bcast { root = 0; bytes = 8 }) 6);
        Alcotest.(check string) "pow2 barrier" "recursive-doubling"
          (pick Call.Barrier 16);
        Alcotest.(check string) "non-pow2 barrier" "monolithic"
          (pick Call.Barrier 6));
    t "round_cost is built from the p2p wire parameters only" (fun () ->
        (* latency + 2*overhead + bytes*byte_time — no collective_dispatch:
           the engine charges dispatch once per logical collective, never
           per round (see the dispatch-accounting test below). *)
        Alcotest.(check (float 1e-15))
          "formula"
          (net.Netmodel.latency +. (2. *. net.Netmodel.overhead)
          +. (4096. *. net.Netmodel.byte_time))
          (Netmodel.round_cost net ~bytes:4096));
    t "timings: rounds cost Netmodel.round_cost under equal starts"
      (fun () ->
        let sched = expand_exn `Recursive_doubling ~op:(allreduce 1024) ~p:4 in
        let fin = Coll_alg.timings net sched ~start:(Array.make 4 0.) in
        let expect = 2. *. Netmodel.round_cost net ~bytes:1024 in
        Array.iter
          (fun f ->
            Alcotest.(check (float 1e-12)) "two rounds" expect f)
          fin);
    t "timings: monotone in start times" (fun () ->
        let sched = expand_exn `Ring ~op:(allreduce 256) ~p:4 in
        let start = [| 0.; 3e-6; 1e-6; 2e-6 |] in
        let fin = Coll_alg.timings net sched ~start in
        Array.iteri
          (fun i f ->
            Alcotest.(check bool) "finishes after start" true (f >= start.(i)))
          fin);
  ]

(* --- dispatch accounting ------------------------------------------- *)

(* Capture the completion time of the first collective in a run. *)
let first_completion ~coll_alg ~nranks program =
  let time = ref None in
  let hook =
    {
      Hooks.nil with
      on_collective_complete =
        (fun ~time:t ~comm:_ ~name:_ ~participants:_ ->
          if !time = None then time := Some t);
    }
  in
  let _ = Mpi.run ~hooks:[ hook ] ~net ~coll_alg ~nranks program in
  Option.get !time

let dispatch_tests =
  [
    t "dispatch charged once: RD barrier = analytic barrier cost" (fun () ->
        (* Equal arrivals at a pow2 barrier: the schedule path must price
           it exactly like the monolithic formula — one
           collective_dispatch plus log2 p zero-byte rounds.  A schedule
           that re-charged dispatch per round would fail this by
           (log2 p - 1) * collective_dispatch. *)
        let program ctx =
          Mpi.barrier ctx;
          Mpi.finalize ctx
        in
        let p = 4 in
        let analytic = Netmodel.barrier_cost net ~p in
        let mono = first_completion ~coll_alg:`Monolithic ~nranks:p program in
        let rd =
          first_completion ~coll_alg:`Recursive_doubling ~nranks:p program
        in
        Alcotest.(check (float 1e-12)) "monolithic" analytic mono;
        Alcotest.(check (float 1e-12)) "recursive doubling" analytic rd);
    t "same seed, same algorithm: byte-identical virtual outcome" (fun () ->
        let prog = Check.Gen.generate ~seed:7 in
        let app = Check.Gen.to_app prog in
        let run () =
          (Mpi.run ~net ~coll_alg:`Auto ~nranks:prog.Check.Gen.nranks app)
            .Engine.elapsed
        in
        Alcotest.(check bool) "deterministic" true (run () = run ()));
  ]

(* --- differential verification ------------------------------------- *)

let count_completions ~coll_alg ~nranks program =
  let n = ref 0 in
  let hook =
    {
      Hooks.nil with
      on_collective_complete =
        (fun ~time:_ ~comm:_ ~name:_ ~participants:_ -> incr n);
    }
  in
  let _ = Mpi.run ~hooks:[ hook ] ~coll_alg ~nranks program in
  !n

let differential_tests =
  [
    t "one completion event per logical collective, every strategy"
      (fun () ->
        let app = Option.get (Apps.Registry.find "cg") in
        let nranks = Apps.Registry.fit_nranks app ~wanted:8 in
        let reference =
          count_completions ~coll_alg:`Monolithic ~nranks (app.program ())
        in
        Alcotest.(check bool) "reference fires" true (reference > 0);
        List.iter
          (fun coll_alg ->
            Alcotest.(check int)
              (Coll_alg.name coll_alg)
              reference
              (count_completions ~coll_alg ~nranks (app.program ())))
          Coll_alg.all);
    t "registry + 40-seed Gen campaign: all strategies match monolithic"
      (fun () ->
        let s = Check.Collfuzz.run Check.Collfuzz.default in
        Alcotest.(check int) "whole registry" 16 s.Check.Collfuzz.apps_checked;
        Alcotest.(check int) "40 seeds" 40 s.Check.Collfuzz.gen_checked;
        List.iter
          (fun (v : Check.Collfuzz.violation) ->
            Printf.eprintf "collfuzz: %s under %s: %s\n%!" v.v_case v.v_alg
              v.v_what)
          s.Check.Collfuzz.violations;
        Alcotest.(check int)
          "no violations" 0
          (List.length s.Check.Collfuzz.violations));
  ]

(* --- neighborhood schedules ----------------------------------------- *)

(* Deterministic pseudo-random per-participant topologies: offsets in
   [1, p-1], degree in [1, 3], a pure function of (seed, rank). *)
let random_per_rank ~seed ~p ~bytes =
  Array.init p (fun r ->
      let rng = Util.Rng.split (Util.Rng.create ~seed) ~index:r in
      let deg = 1 + Util.Rng.int rng 3 in
      let offs =
        List.init deg (fun _ -> 1 + Util.Rng.int rng (p - 1))
        |> List.sort_uniq compare |> Array.of_list
      in
      (offs, bytes))

let neighbor_count_completions ~coll_alg ~nranks program =
  let n = ref 0 in
  let hook =
    {
      Hooks.nil with
      on_collective_complete =
        (fun ~time:_ ~comm:_ ~name ~participants:_ ->
          if
            name = "MPI_Neighbor_alltoall" || name = "MPI_Neighbor_allgather"
          then incr n);
    }
  in
  let _ = Mpi.run ~hooks:[ hook ] ~coll_alg ~nranks program in
  !n

let neighbor_tests =
  [
    t "combined schedule: one round per offset, full-duplex shifts" (fun () ->
        let offsets = [ 1; 3 ] and p = 8 and bytes = 256 in
        let sched = Coll_alg.neighbor_combined ~p ~offsets ~bytes in
        Alcotest.(check int) "rounds" 2 (Coll_alg.round_count sched);
        List.iteri
          (fun k rnd ->
            let o = List.nth offsets k in
            Alcotest.(check int) "transfers" p (List.length rnd);
            List.iter
              (fun (x : Coll_alg.xfer) ->
                Alcotest.(check int) "cyclic shift" ((x.x_src + o) mod p) x.x_dst;
                Alcotest.(check int) "payload" bytes x.x_bytes)
              rnd)
          sched);
    t "combined bytes equal the naive per-neighbor sum, every rank" (fun () ->
        (* the message-combining rewrite may restructure rounds but must
           move exactly the per-neighbor volume of the naive expansion *)
        List.iter
          (fun (p, degree, bytes) ->
            let offsets = List.init degree (fun i -> 1 + (i * 2)) in
            let per_rank = Array.make p (Array.of_list offsets, bytes) in
            let combined =
              Coll_alg.bytes_sent_per_rank ~p
                (Coll_alg.neighbor_combined ~p ~offsets ~bytes)
            in
            let naive =
              Coll_alg.bytes_sent_per_rank ~p (Coll_alg.neighbor_naive ~per_rank)
            in
            Array.iteri
              (fun r b ->
                Alcotest.(check int)
                  (Printf.sprintf "p=%d deg=%d rank %d" p degree r)
                  (degree * bytes) b;
                Alcotest.(check int) "naive agrees" naive.(r) b)
              combined)
          [ (4, 1, 64); (8, 3, 512); (16, 2, 4096) ]);
    t "neighbor_schedule dispatch: isomorphic combines, irregular doesn't"
      (fun () ->
        let p = 8 and bytes = 128 in
        let iso = Array.make p ([| 1; 2 |], bytes) in
        Alcotest.(check int)
          "isomorphic: one round per offset" 2
          (Coll_alg.round_count (Coll_alg.neighbor_schedule ~per_rank:iso));
        let irregular = random_per_rank ~seed:3 ~p ~bytes in
        Alcotest.(check bool)
          "random topology really is irregular" true
          (Coll_alg.neighbor_isomorphic ~per_rank:irregular = None);
        Alcotest.(check int)
          "irregular: single concurrent round" 1
          (Coll_alg.round_count
             (Coll_alg.neighbor_schedule ~per_rank:irregular)));
    t "schedules are deterministic across seeds and repetition" (fun () ->
        for seed = 1 to 10 do
          let per_rank = random_per_rank ~seed ~p:12 ~bytes:96 in
          let again = random_per_rank ~seed ~p:12 ~bytes:96 in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: same schedule" seed)
            true
            (Coll_alg.neighbor_schedule ~per_rank
            = Coll_alg.neighbor_schedule ~per_rank:again);
          let fin () =
            Coll_alg.timings net
              (Coll_alg.neighbor_schedule ~per_rank)
              ~start:(Array.make 12 0.)
          in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: same timings" seed)
            true
            (fin () = fin ())
        done);
    t "one completion per logical neighborhood collective, every strategy"
      (fun () ->
        (* three logical collectives: a full-comm stencil alltoall, a
           partial-set allgather over the even ranks, and a second
           full-comm exchange — every strategy must fire exactly three
           completion events regardless of how rounds are expanded *)
        let nranks = 8 in
        let program (ctx : Mpi.ctx) =
          let nbrs l = Array.of_list (List.sort_uniq compare l) in
          Mpi.neighbor_alltoall ctx
            ~neighbors:(nbrs [ (ctx.rank + 1) mod nranks; (ctx.rank + 3) mod nranks ])
            ~bytes_per_neighbor:64;
          if ctx.rank mod 2 = 0 then begin
            let parts = Array.init (nranks / 2) (fun i -> 2 * i) in
            let q = Array.length parts in
            let me = ctx.rank / 2 in
            Mpi.neighbor_allgather ~parts ctx
              ~neighbors:(nbrs [ parts.((me + 1) mod q) ])
              ~bytes:32
          end;
          Mpi.neighbor_alltoall ctx
            ~neighbors:(nbrs [ (ctx.rank + 1) mod nranks ])
            ~bytes_per_neighbor:128;
          Mpi.finalize ctx
        in
        List.iter
          (fun coll_alg ->
            Alcotest.(check int)
              (Coll_alg.name coll_alg)
              3
              (neighbor_count_completions ~coll_alg ~nranks program))
          Coll_alg.all);
  ]

let suite = shape_tests @ dispatch_tests @ differential_tests @ neighbor_tests
