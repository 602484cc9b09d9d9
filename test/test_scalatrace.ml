open Scalatrace
open Mpisim

let t name f = Alcotest.test_case name `Quick f

let site_a = Util.Callsite.synthetic "a"
let site_b = Util.Callsite.synthetic "b"

let mk_event ?(site = site_a) ?(kind = Event.E_send) ?(peer = Event.P_abs 1)
    ?(bytes = 100) ?(tag = 0) ?(comm = 0) ?(rank = 0) ?(dt = 0.) () =
  let h = Util.Histogram.create () in
  Util.Histogram.add h dt;
  {
    Event.site; kind; peer; bytes; vec = None; tag; comm; parts = None; dtime = h;
    ranks = Util.Rank_set.singleton rank; hcache = 0;
  }

let event_tests =
  [
    t "mergeable requires same site" (fun () ->
        Alcotest.(check bool) "same" true
          (Event.mergeable (mk_event ()) (mk_event ()));
        Alcotest.(check bool) "diff site" false
          (Event.mergeable (mk_event ()) (mk_event ~site:site_b ())));
    t "mergeable requires same size/tag/comm" (fun () ->
        Alcotest.(check bool) "bytes" false
          (Event.mergeable (mk_event ()) (mk_event ~bytes:1 ()));
        Alcotest.(check bool) "tag" false
          (Event.mergeable (mk_event ()) (mk_event ~tag:9 ()));
        Alcotest.(check bool) "comm" false
          (Event.mergeable (mk_event ()) (mk_event ~comm:2 ())));
    t "wildcard never merges with concrete" (fun () ->
        Alcotest.(check bool) "any vs abs" false
          (Event.mergeable
             (mk_event ~kind:Event.E_recv ~peer:Event.P_any ())
             (mk_event ~kind:Event.E_recv ~peer:(Event.P_abs 2) ())));
    t "absorb unions ranks, builds map" (fun () ->
        let a = mk_event ~rank:0 ~peer:(Event.P_abs 1) () in
        let b = mk_event ~rank:1 ~peer:(Event.P_abs 2) () in
        Event.absorb ~nranks:4 ~into:a b;
        Alcotest.(check (list int)) "ranks" [ 0; 1 ] (Util.Rank_set.to_list a.ranks);
        (* the map accumulates unsorted during merging; [generalize]
           normalizes it, so compare up to ordering here *)
        (match a.peer with
        | Event.P_map m ->
            Alcotest.(check (list (pair int int)))
              "map" [ (0, 1); (1, 2) ] (List.sort compare m)
        | _ -> Alcotest.fail "expected P_map"));
    t "generalize detects relative" (fun () ->
        let a = mk_event ~rank:0 ~peer:(Event.P_abs 1) () in
        Event.absorb ~nranks:4 ~into:a (mk_event ~rank:1 ~peer:(Event.P_abs 2) ());
        Event.absorb ~nranks:4 ~into:a (mk_event ~rank:3 ~peer:(Event.P_abs 0) ());
        Event.generalize ~nranks:4 a;
        (match a.peer with
        | Event.P_rel 1 -> ()
        | p -> Alcotest.failf "expected P_rel 1, got %s"
                 (match p with
                 | Event.P_rel d -> Printf.sprintf "P_rel %d" d
                 | Event.P_abs x -> Printf.sprintf "P_abs %d" x
                 | Event.P_map _ -> "P_map"
                 | Event.P_any -> "P_any"
                 | Event.P_none -> "P_none")));
    t "generalize detects constant" (fun () ->
        let a = mk_event ~rank:0 ~peer:(Event.P_abs 3) () in
        Event.absorb ~nranks:8 ~into:a (mk_event ~rank:1 ~peer:(Event.P_abs 3) ());
        Event.generalize ~nranks:8 a;
        Alcotest.(check bool) "abs" true (a.peer = Event.P_abs 3));
    t "peer_of resolves all forms" (fun () ->
        let rel = mk_event ~peer:(Event.P_rel 2) () in
        Alcotest.(check (option int)) "rel" (Some 1) (Event.peer_of rel ~rank:7 ~nranks:8);
        let m = mk_event ~peer:(Event.P_map [ (3, 5) ]) () in
        Alcotest.(check (option int)) "map" (Some 5) (Event.peer_of m ~rank:3 ~nranks:8);
        Alcotest.(check (option int)) "map miss" None (Event.peer_of m ~rank:4 ~nranks:8);
        let any = mk_event ~peer:Event.P_any () in
        Alcotest.(check (option int)) "any" None (Event.peer_of any ~rank:0 ~nranks:8));
    t "of_call translates comm-local to world" (fun () ->
        let comm = Comm.make ~id:3 ~members:[| 4; 6 |] in
        let call =
          { Call.op = Call.Send { dst = 1; bytes = 10; tag = 0 }; comm; site = site_a }
        in
        match
          Event.of_call ~ranks:(Util.Rank_set.singleton 4) ~last_vec:[||]
            ~world_rank:4 ~time_gap:0.5 call
        with
        | Some e ->
            Alcotest.(check bool) "peer world" true (e.peer = Event.P_abs 6);
            Alcotest.(check int) "comm id" 3 e.Event.comm;
            Alcotest.(check (float 1e-12)) "gap" 0.5 (Util.Histogram.mean e.Event.dtime)
        | None -> Alcotest.fail "expected event");
    t "of_call skips compute and wtime" (fun () ->
        let comm = Comm.world 2 in
        let mk op = { Call.op; comm; site = site_a } in
        let of_call call =
          Event.of_call ~ranks:(Util.Rank_set.singleton 0) ~last_vec:[||]
            ~world_rank:0 ~time_gap:0. call
        in
        Alcotest.(check bool) "compute" true (of_call (mk (Call.Compute 1.)) = None);
        Alcotest.(check bool) "wtime" true (of_call (mk Call.Wtime) = None));
    t "v-collective records vector" (fun () ->
        let comm = Comm.world 3 in
        let counts = [| 1; 2; 3 |] in
        let call = { Call.op = Call.Alltoallv { bytes_to = counts }; comm; site = site_a } in
        let vec ~last_vec =
          match
            Event.of_call ~ranks:(Util.Rank_set.singleton 1) ~last_vec
              ~world_rank:1 ~time_gap:0. call
          with
          | Some { Event.bytes; vec = Some v; _ } ->
              Alcotest.(check int) "total" 6 bytes;
              v
          | _ -> Alcotest.fail "expected an event with a vector"
        in
        (* the application's array is copied, never kept *)
        let v = vec ~last_vec:[| 1; 2 |] in
        Alcotest.(check bool) "vec" true (v = counts && v != counts);
        (* an equal previous copy is shared instead of copied again *)
        let previous = [| 1; 2; 3 |] in
        Alcotest.(check bool) "shared" true (vec ~last_vec:previous == previous);
        let other = [| 1; 2; 4 |] in
        let v = vec ~last_vec:other in
        Alcotest.(check bool) "unequal not shared" true
          (v = counts && v != other && v != counts));
  ]

(* -------------------------------------------------------------- *)
(* Compression                                                      *)

let leaf ?site ?kind ?peer ?bytes ?rank () =
  Tnode.Leaf (mk_event ?site ?kind ?peer ?bytes ?rank ())

let count_rsds nodes = Tnode.rsd_count nodes
let count_events nodes = Tnode.event_count nodes

let compress_tests =
  [
    t "repeated event folds into loop" (fun () ->
        let c = Compress.create ~nranks:4 () in
        for _ = 1 to 100 do
          Compress.push c (mk_event ())
        done;
        let nodes = Compress.contents c in
        Alcotest.(check int) "1 RSD" 1 (count_rsds nodes);
        Alcotest.(check int) "100 events" 100 (count_events nodes);
        match nodes with
        | [ Tnode.Loop { count = 100; _ } ] -> ()
        | _ -> Alcotest.fail "expected single 100x loop");
    t "alternating pair folds into loop of 2-body" (fun () ->
        let c = Compress.create ~nranks:4 () in
        for _ = 1 to 50 do
          Compress.push c (mk_event ~site:site_a ());
          Compress.push c (mk_event ~site:site_b ~kind:Event.E_recv ())
        done;
        match Compress.contents c with
        | [ Tnode.Loop { count = 50; body; _ } ] ->
            Alcotest.(check int) "body" 2 (List.length body)
        | nodes -> Alcotest.failf "expected one loop, got %d nodes" (List.length nodes));
    t "nested loops detected (paper Figure 2 shape)" (fun () ->
        (* inner pattern (a b) x3 followed by c, all repeated 10x *)
        let c = Compress.create ~nranks:4 () in
        for _ = 1 to 10 do
          for _ = 1 to 3 do
            Compress.push c (mk_event ~site:site_a ());
            Compress.push c (mk_event ~site:site_b ~kind:Event.E_recv ())
          done;
          Compress.push c (mk_event ~site:(Util.Callsite.synthetic "c") ~kind:Event.E_wait ~peer:Event.P_none ())
        done;
        let nodes = Compress.contents c in
        Alcotest.(check int) "3 RSDs" 3 (count_rsds nodes);
        Alcotest.(check int) "70 events" 70 (count_events nodes);
        match nodes with
        | [ Tnode.Loop { count = 10; body = [ Tnode.Loop { count = 3; _ }; _ ]; _ } ] -> ()
        | _ -> Alcotest.fail "expected 10x [3x [a b]; c]");
    t "different peers do not fold" (fun () ->
        let c = Compress.create ~nranks:8 () in
        Compress.push c (mk_event ~peer:(Event.P_abs 1) ());
        Compress.push c (mk_event ~peer:(Event.P_abs 2) ());
        Compress.push c (mk_event ~peer:(Event.P_abs 1) ());
        Compress.push c (mk_event ~peer:(Event.P_abs 2) ());
        (* butterfly-like: fold allowed only as a 2-body loop, not 4x one event *)
        match Compress.contents c with
        | [ Tnode.Loop { count = 2; body; _ } ] ->
            Alcotest.(check int) "body" 2 (List.length body)
        | nodes -> Alcotest.failf "got %d RSDs" (count_rsds nodes));
    t "timing merges on fold" (fun () ->
        let c = Compress.create ~nranks:4 () in
        Compress.push c (mk_event ~dt:1.0 ());
        Compress.push c (mk_event ~dt:3.0 ());
        (match Compress.contents c with
        | [ Tnode.Loop { count = 2; body = [ Tnode.Leaf e ]; _ } ] ->
            Alcotest.(check int) "samples" 2 (Util.Histogram.count e.Event.dtime);
            Alcotest.(check (float 1e-9)) "mean" 2.0 (Util.Histogram.mean e.Event.dtime)
        | _ -> Alcotest.fail "expected fold"));
    t "window bounds loop body size" (fun () ->
        let c = Compress.create ~window:2 ~nranks:4 () in
        let sites = List.init 3 (fun i -> Util.Callsite.synthetic (string_of_int i)) in
        for _ = 1 to 4 do
          List.iter (fun s -> Compress.push c (mk_event ~site:s ())) sites
        done;
        (* body of 3 > window 2: no folding *)
        Alcotest.(check int) "unfolded" 12 (count_rsds (Compress.contents c)));
    t "compress_list equivalent to pushes" (fun () ->
        let mk () = List.init 20 (fun _ -> leaf ()) in
        let via_list = Compress.compress_list ~nranks:4 (mk ()) in
        Alcotest.(check int) "rsds" 1 (count_rsds via_list);
        Alcotest.(check int) "events" 20 (count_events via_list));
  ]

(* -------------------------------------------------------------- *)
(* Tracing end-to-end                                               *)

let s_r = Mpi.site __POS__
let s_s = Mpi.site __POS__
let s_w = Mpi.site __POS__
let s_f = Mpi.site __POS__

let ring iters (ctx : Mpi.ctx) =
  let n = ctx.nranks in
  for _ = 1 to iters do
    let r = Mpi.irecv ~site:s_r ctx ~src:(Call.Rank ((ctx.rank + n - 1) mod n)) ~bytes:1024 in
    let s = Mpi.isend ~site:s_s ctx ~dst:((ctx.rank + 1) mod n) ~bytes:1024 in
    ignore (Mpi.waitall ~site:s_w ctx [ r; s ]);
    Mpi.compute ctx 1e-5
  done;
  Mpi.finalize ~site:s_f ctx

let tracer_tests =
  [
    t "ring compresses to constant RSDs (paper Sec 3.1)" (fun () ->
        let trace, _ = Tracer.trace_run ~nranks:16 (ring 500) in
        Alcotest.(check int) "4 RSDs" 4 (Trace.rsd_count trace);
        Alcotest.(check int) "events" (16 * ((3 * 500) + 1)) (Trace.event_count trace));
    t "trace size independent of rank count" (fun () ->
        let size p =
          let trace, _ = Tracer.trace_run ~nranks:p (ring 100) in
          Trace.rsd_count trace
        in
        Alcotest.(check int) "same" (size 4) (size 32));
    t "relative peers generalized" (fun () ->
        let trace, _ = Tracer.trace_run ~nranks:8 (ring 10) in
        let found = ref false in
        Tnode.iter_leaves
          (fun e ->
            if e.Event.kind = Event.E_isend then
              match e.Event.peer with Event.P_rel 1 -> found := true | _ -> ())
          (Trace.nodes trace);
        Alcotest.(check bool) "P_rel" true !found);
    t "projection covers every rank exactly" (fun () ->
        let trace, _ = Tracer.trace_run ~nranks:8 (ring 50) in
        let projections = Trace.projections trace in
        for r = 0 to 7 do
          let events = Tnode.event_count_for projections.(r) ~rank:r in
          Alcotest.(check int) (Printf.sprintf "rank %d" r) ((3 * 50) + 1) events
        done);
    t "compute time lands in dtime histograms" (fun () ->
        let trace, _ = Tracer.trace_run ~nranks:4 (ring 20) in
        let total = ref 0. in
        Tnode.iter_leaves
          (fun e -> total := !total +. Util.Histogram.sum e.Event.dtime)
          (Trace.nodes trace);
        (* 4 ranks x 19 gaps of ~10us between iterations *)
        Alcotest.(check bool) "compute captured" true (!total >= 4. *. 19. *. 0.9e-5));
    t "comm table records splits" (fun () ->
        let prog (ctx : Mpi.ctx) =
          let c = Mpi.comm_split ~site:s_s ctx ~color:(ctx.rank mod 2) ~key:ctx.rank in
          Mpi.barrier ~site:s_r ~comm:c ctx;
          Mpi.finalize ~site:s_f ctx
        in
        let trace, _ = Tracer.trace_run ~nranks:4 prog in
        Alcotest.(check bool) "3 comms" true (List.length (Trace.comms trace) >= 3));
    t "wildcard flag detection" (fun () ->
        let prog (ctx : Mpi.ctx) =
          (if ctx.rank = 0 then ignore (Mpi.recv ~site:s_r ctx ~src:Call.Any_source ~bytes:8)
           else if ctx.rank = 1 then Mpi.send ~site:s_s ctx ~dst:0 ~bytes:8);
          Mpi.finalize ~site:s_f ctx
        in
        let trace, _ = Tracer.trace_run ~nranks:2 prog in
        Alcotest.(check bool) "has wildcards" true (Trace.has_wildcards trace);
        let trace2, _ = Tracer.trace_run ~nranks:2 (ring 5) in
        Alcotest.(check bool) "no wildcards" false (Trace.has_wildcards trace2));
    t "unaligned collective detection" (fun () ->
        let sa = Mpi.site __POS__ and sb = Mpi.site __POS__ in
        let prog (ctx : Mpi.ctx) =
          if ctx.rank mod 2 = 0 then Mpi.barrier ~site:sa ctx
          else Mpi.barrier ~site:sb ctx;
          Mpi.finalize ~site:s_f ctx
        in
        let trace, _ = Tracer.trace_run ~nranks:4 prog in
        Alcotest.(check bool) "unaligned" true (Trace.has_unaligned_collectives trace);
        let trace2, _ = Tracer.trace_run ~nranks:4 (ring 3) in
        Alcotest.(check bool) "aligned" false (Trace.has_unaligned_collectives trace2));
    t "trace text stable and non-empty" (fun () ->
        let trace, _ = Tracer.trace_run ~nranks:4 (ring 10) in
        let s1 = Trace.to_text trace and s2 = Trace.to_text trace in
        Alcotest.(check string) "stable" s1 s2;
        Alcotest.(check bool) "non-empty" true (String.length s1 > 50));
    t "boundary ranks produce distinct RSD groups" (fun () ->
        (* non-periodic pipeline: first and last rank have fewer events *)
        let s1 = Mpi.site __POS__ and s2 = Mpi.site __POS__ in
        let pipeline (ctx : Mpi.ctx) =
          for _ = 1 to 5 do
            if ctx.rank > 0 then
              ignore (Mpi.recv ~site:s1 ctx ~src:(Call.Rank (ctx.rank - 1)) ~bytes:64);
            if ctx.rank < ctx.nranks - 1 then
              Mpi.send ~site:s2 ctx ~dst:(ctx.rank + 1) ~bytes:64
          done;
          Mpi.finalize ~site:s_f ctx
        in
        let trace, _ = Tracer.trace_run ~nranks:6 pipeline in
        (* every rank's projection must keep its own event count *)
        let projections = Trace.projections trace in
        let events r = Tnode.event_count_for projections.(r) ~rank:r in
        Alcotest.(check int) "head" (5 + 1) (events 0);
        Alcotest.(check int) "interior" (10 + 1) (events 3);
        Alcotest.(check int) "tail" (5 + 1) (events 5));
  ]

(* -------------------------------------------------------------- *)
(* Property: merge preserves per-rank projections                   *)

let projection_props =
  let app_of_seed seed (ctx : Mpi.ctx) =
    (* a deterministic random-ish SPMD program: mixes sends, collectives *)
    let n = ctx.nranks in
    let rng2 = Util.Rng.create ~seed in
    let iters = 1 + Util.Rng.int rng2 4 in
    for _ = 1 to iters do
      if n > 1 then begin
        let r =
          Mpi.irecv ~site:s_r ctx ~src:(Call.Rank ((ctx.rank + n - 1) mod n)) ~bytes:256
        in
        let s = Mpi.isend ~site:s_s ctx ~dst:((ctx.rank + 1) mod n) ~bytes:256 in
        ignore (Mpi.waitall ~site:s_w ctx [ r; s ])
      end;
      if Util.Rng.int rng2 2 = 0 then Mpi.allreduce ~site:s_r ctx ~bytes:8
    done;
    Mpi.finalize ~site:s_f ctx
  in
  List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260705 |]))
    [
      QCheck.Test.make ~name:"merged trace preserves per-rank event counts" ~count:25
        QCheck.(pair (int_range 1 1000) (int_range 2 12))
        (fun (seed, p) ->
          let tracer = Tracer.create ~nranks:p () in
          ignore (Mpi.run ~hooks:[ Tracer.hook tracer ] ~nranks:p (app_of_seed seed));
          let locals = Tracer.local_traces tracer in
          let trace = Tracer.finish tracer in
          let projections = Trace.projections trace in
          Array.for_all
            (fun r ->
              Tnode.event_count locals.(r)
              = Tnode.event_count_for projections.(r) ~rank:r)
            (Array.init p Fun.id));
    ]

let suite = event_tests @ compress_tests @ tracer_tests @ projection_props

let analysis_tests =
  [
    t "comm matrix matches engine accounting" (fun () ->
        let trace, outcome = Tracer.trace_run ~nranks:8 (ring 25) in
        let m = Analysis.comm_matrix trace in
        let total_msgs =
          Array.fold_left
            (fun acc row -> Array.fold_left ( + ) acc row)
            0 m.Analysis.messages
        in
        let total_bytes =
          Array.fold_left
            (fun acc row -> Array.fold_left ( + ) acc row)
            0 m.Analysis.bytes
        in
        Alcotest.(check int) "messages" outcome.messages total_msgs;
        Alcotest.(check int) "bytes" outcome.p2p_bytes total_bytes);
    t "comm matrix places ring traffic on the superdiagonal" (fun () ->
        let trace, _ = Tracer.trace_run ~nranks:4 (ring 10) in
        let m = Analysis.comm_matrix trace in
        for i = 0 to 3 do
          Alcotest.(check int) "next" 10 m.Analysis.messages.(i).((i + 1) mod 4);
          Alcotest.(check int) "self" 0 m.Analysis.messages.(i).(i)
        done);
    t "op totals count instances across loops and ranks" (fun () ->
        let trace, _ = Tracer.trace_run ~nranks:4 (ring 10) in
        let totals = Analysis.op_totals trace in
        let calls name =
          match List.find_opt (fun (n, _, _) -> n = name) totals with
          | Some (_, c, _) -> c
          | None -> 0
        in
        Alcotest.(check int) "isend" 40 (calls "MPI_Isend");
        Alcotest.(check int) "irecv" 40 (calls "MPI_Irecv");
        Alcotest.(check int) "waitall" 40 (calls "MPI_Waitall");
        Alcotest.(check int) "finalize" 4 (calls "MPI_Finalize"));
    t "total compute reflects the gaps" (fun () ->
        let trace, _ = Tracer.trace_run ~nranks:4 (ring 50) in
        let total = Analysis.total_compute trace in
        (* 4 ranks x 49 inter-iteration gaps of ~10us *)
        Alcotest.(check bool) "captured" true (total >= 4. *. 49. *. 0.9e-5));
    t "matrix renders" (fun () ->
        let trace, _ = Tracer.trace_run ~nranks:4 (ring 5) in
        let s = Analysis.matrix_to_string (Analysis.comm_matrix trace) in
        Alcotest.(check bool) "non-empty" true (String.length s > 40));
  ]

let suite = suite @ analysis_tests
