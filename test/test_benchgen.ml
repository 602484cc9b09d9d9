open Mpisim
open Scalatrace

let t name f = Alcotest.test_case name `Quick f

let s1 = Mpi.site __POS__
let s2 = Mpi.site __POS__
let s3 = Mpi.site __POS__
let s4 = Mpi.site __POS__
let s5 = Mpi.site __POS__

(* ---------------------------------------------------------------- *)
(* Algorithm 1: collective alignment                                  *)

let align_tests =
  [
    t "merges per-branch barrier call sites (paper Figure 3)" (fun () ->
        let prog (ctx : Mpi.ctx) =
          (if ctx.rank = 0 then Mpi.barrier ~site:s1 ctx else Mpi.barrier ~site:s2 ctx);
          Mpi.finalize ~site:s3 ctx
        in
        let trace, _ = Tracer.trace_run ~nranks:2 prog in
        Alcotest.(check bool) "unaligned before" true
          (Trace.has_unaligned_collectives trace);
        let aligned = Benchgen.Align.run trace in
        Alcotest.(check bool) "aligned after" false
          (Trace.has_unaligned_collectives aligned);
        (* exactly one barrier RSD with both ranks *)
        let barriers = ref 0 in
        Tnode.iter_leaves
          (fun e ->
            if e.Event.kind = Event.E_barrier then begin
              incr barriers;
              Alcotest.(check (list int)) "all ranks" [ 0; 1 ]
                (Util.Rank_set.to_list e.Event.ranks)
            end)
          (Trace.nodes aligned);
        Alcotest.(check int) "one barrier RSD" 1 !barriers);
    t "preserves per-rank event order and counts" (fun () ->
        let prog (ctx : Mpi.ctx) =
          for _ = 1 to 3 do
            if ctx.rank mod 2 = 0 then begin
              Mpi.send ~site:s1 ctx ~dst:(ctx.rank + 1) ~bytes:10;
              Mpi.allreduce ~site:s2 ctx ~bytes:8
            end
            else begin
              ignore (Mpi.recv ~site:s3 ctx ~src:(Call.Rank (ctx.rank - 1)) ~bytes:10);
              Mpi.allreduce ~site:s4 ctx ~bytes:8
            end
          done;
          Mpi.finalize ~site:s5 ctx
        in
        let trace, _ = Tracer.trace_run ~nranks:4 prog in
        let aligned = Benchgen.Align.run trace in
        let before = Trace.projections trace
        and after = Trace.projections aligned in
        for r = 0 to 3 do
          Alcotest.(check int)
            (Printf.sprintf "rank %d" r)
            (Tnode.event_count_for before.(r) ~rank:r)
            (Tnode.event_count_for after.(r) ~rank:r)
        done);
    t "aligns collectives on subcommunicators" (fun () ->
        let prog (ctx : Mpi.ctx) =
          let c = Mpi.comm_split ~site:s1 ctx ~color:(ctx.rank mod 2) ~key:ctx.rank in
          (if ctx.rank < 2 then Mpi.barrier ~site:s2 ~comm:c ctx
           else Mpi.barrier ~site:s3 ~comm:c ctx);
          Mpi.finalize ~site:s4 ctx
        in
        let trace, _ = Tracer.trace_run ~nranks:4 prog in
        let aligned, ran = Benchgen.Align.align_if_needed trace in
        Alcotest.(check bool) "ran" true ran;
        Alcotest.(check bool) "clean" false (Trace.has_unaligned_collectives aligned));
    t "pre-check skips aligned traces" (fun () ->
        let prog (ctx : Mpi.ctx) =
          Mpi.barrier ~site:s1 ctx;
          Mpi.finalize ~site:s2 ctx
        in
        let trace, _ = Tracer.trace_run ~nranks:4 prog in
        let _, ran = Benchgen.Align.align_if_needed trace in
        Alcotest.(check bool) "skipped" false ran);
    t "detects collective kind mismatch" (fun () ->
        (* build a broken trace by hand: rank 0 calls barrier where rank 1
           calls allreduce at the same slot; the engine would reject this
           at run time, so assemble the trace directly *)
        let mk kind rank =
          let h = Util.Histogram.create () in
          Util.Histogram.add h 0.;
          Tnode.Leaf
            {
              Event.site = (if rank = 0 then s1 else s2);
              kind; peer = Event.P_none; bytes = 8; vec = None; tag = 0; comm = 0;
              parts = None; dtime = h; ranks = Util.Rank_set.singleton rank; hcache = 0;
            }
        in
        let fin rank =
          let h = Util.Histogram.create () in
          Util.Histogram.add h 0.;
          Tnode.Leaf
            {
              Event.site = s5; kind = Event.E_finalize; peer = Event.P_none;
              bytes = 0; vec = None; tag = 0; comm = 0; parts = None; dtime = h;
              ranks = Util.Rank_set.singleton rank; hcache = 0;
            }
        in
        let trace =
          Trace.make ~nranks:2
            ~comms:[ (0, Util.Rank_set.all 2) ]
            ~nodes:
              [ mk Event.E_barrier 0; mk Event.E_allreduce 1; fin 0; fin 1 ]
        in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Benchgen.Align.run trace);
             false
           with Benchgen.Align.Align_error _ -> true));
  ]

(* ---------------------------------------------------------------- *)
(* Algorithm 2: wildcard resolution                                   *)

let wildcard_tests =
  [
    t "resolves wildcards to concrete senders" (fun () ->
        let prog (ctx : Mpi.ctx) =
          (if ctx.rank = 0 then
             for _ = 1 to 2 do
               ignore (Mpi.recv ~site:s1 ctx ~src:Call.Any_source ~bytes:16)
             done
           else Mpi.send ~site:s2 ctx ~dst:0 ~bytes:16);
          Mpi.finalize ~site:s3 ctx
        in
        let trace, _ = Tracer.trace_run ~nranks:3 prog in
        Alcotest.(check bool) "wild before" true (Trace.has_wildcards trace);
        let resolved = Benchgen.Wildcard.run trace in
        Alcotest.(check bool) "resolved" false (Trace.has_wildcards resolved));
    t "resolution conserves per-pair message counts" (fun () ->
        let prog (ctx : Mpi.ctx) =
          (if ctx.rank = 0 then
             for _ = 1 to 6 do
               ignore (Mpi.recv ~site:s1 ctx ~src:Call.Any_source ~bytes:16)
             done
           else begin
             Mpi.compute ctx (float_of_int ctx.rank *. 1e-4);
             for _ = 1 to 2 do
               Mpi.send ~site:s2 ctx ~dst:0 ~bytes:16
             done
           end);
          Mpi.finalize ~site:s3 ctx
        in
        let trace, _ = Tracer.trace_run ~nranks:4 prog in
        let resolved = Benchgen.Wildcard.run trace in
        (* count resolved receives per source *)
        let per_src = Hashtbl.create 4 in
        let rec walk cursor =
          match Benchgen.Traversal.peek cursor with
          | None -> ()
          | Some (e, after) ->
              (match (e.Event.kind, Event.peer_of e ~rank:0 ~nranks:4) with
              | Event.E_recv, Some src ->
                  Hashtbl.replace per_src src
                    (1 + Option.value ~default:0 (Hashtbl.find_opt per_src src))
              | _ -> ());
              walk after
        in
        walk (Benchgen.Traversal.start (Project_ref.of_trace resolved ~rank:0));
        List.iter
          (fun src ->
            Alcotest.(check int)
              (Printf.sprintf "from %d" src)
              2
              (Option.value ~default:0 (Hashtbl.find_opt per_src src)))
          [ 1; 2; 3 ]);
    t "resolved trace replays without deadlock" (fun () ->
        let app = Option.get (Apps.Registry.find "lu") in
        let trace, _ =
          Tracer.trace_run ~nranks:6 (app.program ~cls:Apps.Params.S ())
        in
        let resolved = Benchgen.Wildcard.run trace in
        let r = Replay.run resolved in
        Alcotest.(check bool) "ran" true (r.outcome.elapsed > 0.));
    t "timed strategy matches an actual execution" (fun () ->
        let prog (ctx : Mpi.ctx) =
          (if ctx.rank = 0 then begin
             ignore (Mpi.recv ~site:s1 ctx ~src:Call.Any_source ~bytes:16);
             ignore (Mpi.recv ~site:s1 ctx ~src:Call.Any_source ~bytes:16)
           end
           else begin
             Mpi.compute ctx (float_of_int ctx.rank *. 1e-3);
             Mpi.send ~site:s2 ctx ~dst:0 ~bytes:16
           end);
          Mpi.finalize ~site:s3 ctx
        in
        let trace, _ = Tracer.trace_run ~nranks:3 prog in
        let resolved = Benchgen.Wildcard.run ~strategy:`Timed trace in
        Alcotest.(check bool) "no wildcards" false (Trace.has_wildcards resolved));
    t "detects the paper's Figure 5 deadlock" (fun () ->
        let prog (ctx : Mpi.ctx) =
          if ctx.rank = 0 then Mpi.compute ctx 1e-3;
          (if ctx.rank = 1 then begin
             ignore (Mpi.recv ~site:s1 ctx ~src:Call.Any_source ~bytes:8);
             ignore (Mpi.recv ~site:s2 ctx ~src:(Call.Rank 0) ~bytes:8)
           end
           else if ctx.rank = 0 || ctx.rank = 2 then Mpi.send ~site:s3 ctx ~dst:1 ~bytes:8);
          Mpi.finalize ~site:s4 ctx
        in
        let trace, _ = Tracer.trace_run ~nranks:3 prog in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Benchgen.Wildcard.run ~strategy:`Traversal trace);
             false
           with Benchgen.Wildcard.Potential_deadlock _ -> true));
    t "pre-check skips wildcard-free traces" (fun () ->
        let prog (ctx : Mpi.ctx) =
          Mpi.barrier ~site:s1 ctx;
          Mpi.finalize ~site:s2 ctx
        in
        let trace, _ = Tracer.trace_run ~nranks:2 prog in
        let _, ran = Benchgen.Wildcard.resolve_if_needed trace in
        Alcotest.(check bool) "skipped" false ran);
    t "per-instance resolution splits alternating sources" (fun () ->
        (* rank 0 receives alternately from 1 and 2 in a loop; the resolved
           trace must give each source half the instances *)
        let prog (ctx : Mpi.ctx) =
          (if ctx.rank = 0 then
             for _ = 1 to 8 do
               ignore (Mpi.recv ~site:s1 ctx ~src:Call.Any_source ~bytes:16)
             done
           else
             for _ = 1 to 4 do
               Mpi.compute ctx 1e-4;
               Mpi.send ~site:s2 ctx ~dst:0 ~bytes:16
             done);
          Mpi.finalize ~site:s3 ctx
        in
        let trace, _ = Tracer.trace_run ~nranks:3 prog in
        let resolved = Benchgen.Wildcard.run trace in
        let count src =
          let n = ref 0 in
          let rec walk cursor =
            match Benchgen.Traversal.peek cursor with
            | None -> ()
            | Some (e, after) ->
                (if e.Event.kind = Event.E_recv
                    && Event.peer_of e ~rank:0 ~nranks:3 = Some src
                 then incr n);
                walk after
          in
          walk (Benchgen.Traversal.start (Project_ref.of_trace resolved ~rank:0));
          !n
        in
        Alcotest.(check int) "from 1" 4 (count 1);
        Alcotest.(check int) "from 2" 4 (count 2));
  ]

(* ---------------------------------------------------------------- *)
(* Collective mapping (Table 1)                                       *)

let map_tests =
  let mk kind ?(peer = Event.P_none) ?(bytes = 100) ?vec () =
    let h = Util.Histogram.create () in
    Util.Histogram.add h 0.;
    {
      Event.site = s1; kind; peer; bytes; vec; tag = 0; comm = 0; parts = None;
      dtime = h; ranks = Util.Rank_set.all 4; hcache = 0;
    }
  in
  [
    t "barrier -> sync" (fun () ->
        Alcotest.(check bool) "sync" true
          (Benchgen.Collective_map.map ~p:4 (mk Event.E_barrier ()) = T_sync));
    t "bcast -> multicast with root" (fun () ->
        match Benchgen.Collective_map.map ~p:4 (mk Event.E_bcast ~peer:(Event.P_abs 2) ()) with
        | Benchgen.Collective_map.T_multicast { root = 2; bytes = 100 } -> ()
        | _ -> Alcotest.fail "wrong mapping");
    t "allreduce -> reduce to all" (fun () ->
        match Benchgen.Collective_map.map ~p:4 (mk Event.E_allreduce ()) with
        | Benchgen.Collective_map.T_reduce_all { bytes = 100 } -> ()
        | _ -> Alcotest.fail "wrong mapping");
    t "gatherv -> reduce with averaged size" (fun () ->
        match Benchgen.Collective_map.map ~p:4 (mk Event.E_gatherv ~peer:(Event.P_abs 0) ~bytes:100 ()) with
        | Benchgen.Collective_map.T_reduce { root = 0; bytes = 25 } -> ()
        | _ -> Alcotest.fail "wrong mapping");
    t "allgather -> reduce + multicast" (fun () ->
        match Benchgen.Collective_map.map ~p:4 (mk Event.E_allgather ~bytes:100 ()) with
        | Benchgen.Collective_map.T_reduce_multicast
            { reduce_bytes = 100; multicast_bytes = 400; _ } ->
            ()
        | _ -> Alcotest.fail "wrong mapping");
    t "alltoallv -> averaged exchange" (fun () ->
        match Benchgen.Collective_map.map ~p:4 (mk Event.E_alltoallv ~bytes:400 ()) with
        | Benchgen.Collective_map.T_alltoall { bytes = 100 } -> ()
        | _ -> Alcotest.fail "wrong mapping");
    t "reduce_scatter -> n reduces from vector" (fun () ->
        match
          Benchgen.Collective_map.map ~p:4
            (mk Event.E_reduce_scatter ~bytes:100 ~vec:[| 10; 20; 30; 40 |] ())
        with
        | Benchgen.Collective_map.T_reduce_per_member { bytes_per_member } ->
            Alcotest.(check (array int)) "vec" [| 10; 20; 30; 40 |] bytes_per_member
        | _ -> Alcotest.fail "wrong mapping");
    t "comm management skipped" (fun () ->
        Alcotest.(check bool) "skip" true
          (Benchgen.Collective_map.map ~p:4 (mk Event.E_comm_dup ()) = T_skip));
    t "p2p rejected" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Benchgen.Collective_map.map ~p:4 (mk Event.E_send ()));
             false
           with Benchgen.Collective_map.Unmappable _ -> true));
    t "table has the paper's 8 rows plus the 2 neighborhood extensions"
      (fun () ->
        Alcotest.(check int) "rows" 10 (List.length Benchgen.Collective_map.table);
        List.iter
          (fun name ->
            Alcotest.(check bool) (name ^ " present") true
              (List.mem_assoc name Benchgen.Collective_map.table))
          [ "Neighbor_alltoall"; "Neighbor_allgather" ]);
  ]

(* ---------------------------------------------------------------- *)
(* One walk for both algorithms                                        *)

let walk_tests =
  [
    t "wildcard resolution rejects a non-member arrival as alignment does"
      (fun () ->
        (* rank 2 reaches an allreduce on communicator 1 = {0,1}; rank 0
           then sends to rank 3, which receives from MPI_ANY_SOURCE *)
        let leaf ?(peer = Event.P_none) ?(comm = 0) kind ranks =
          let h = Util.Histogram.create () in
          Util.Histogram.add h 0.;
          Tnode.Leaf
            {
              Event.site = s1; kind; peer; bytes = 8; vec = None; tag = 0; comm;
              parts = None; dtime = h; ranks = Util.Rank_set.of_list ranks;
              hcache = 0;
            }
        in
        let trace =
          Trace.make ~nranks:4
            ~comms:[ (0, Util.Rank_set.all 4); (1, Util.Rank_set.of_list [ 0; 1 ]) ]
            ~nodes:
              [
                leaf ~comm:1 Event.E_allreduce [ 0; 1; 2 ];
                leaf ~peer:(Event.P_abs 3) Event.E_send [ 0 ];
                leaf ~peer:Event.P_any Event.E_recv [ 3 ];
              ]
        in
        List.iter
          (fun strategy ->
            match Benchgen.Wildcard.run ~strategy trace with
            | _ -> Alcotest.fail "expected Wildcard_error"
            | exception Benchgen.Wildcard.Wildcard_error msg ->
                Alcotest.(check bool) msg true (Test_fault.contains ~sub:"communicator 1" msg))
          [ `Auto; `Traversal ]);
  ]

(* ---------------------------------------------------------------- *)
(* One neighbourhood-offset rule for replay and code generation         *)

let neighbor_tests =
  [
    t "replay and codegen reach the same neighbours" (fun () ->
        let nranks = 6 in
        (* (vec, degree, declared participants, offsets): a merged event
           that lost its stencil (vec = None); offsets that are negative,
           out of range, 0 or repeated; offsets that all reduce to 0, so
           the ring of the degree applies; the same over a declared
           participant set of 4 *)
        let cases =
          [
            (None, 2, None, [| 1; 2 |]);
            (Some [| -1; 7; 0; 13; -7 |], 4, None, [| 1; 5 |]);
            (Some [| 0; 6; -12 |], 3, None, [| 1; 2; 3 |]);
            (None, 2, Some [| 0; 2; 3; 5 |], [| 1; 2 |]);
            (Some [| -1; 6; 9 |], 3, Some [| 0; 2; 3; 5 |], [| 1; 2; 3 |]);
          ]
        in
        List.iter
          (fun (vec, tag, parts, expected) ->
            let members =
              match parts with
              | Some ps -> ps
              | None -> Array.init nranks Fun.id
            in
            let q = Array.length members in
            let h = Util.Histogram.create () in
            Util.Histogram.add h 0.;
            let e =
              Event.
                {
                  site = s1; kind = E_neighbor_alltoall; peer = P_none;
                  bytes = 8; vec; tag; comm = 0; parts; dtime = h;
                  ranks = Util.Rank_set.of_list (Array.to_list members);
                  hcache = 0;
                }
            in
            let finalize =
              Event.
                {
                  e with
                  kind = E_finalize; vec = None; tag = 0; parts = None;
                  ranks = Util.Rank_set.all nranks;
                }
            in
            let offsets =
              match Benchgen.Collective_map.map ~p:q e with
              | Benchgen.Collective_map.T_neighbor { offsets; _ } -> offsets
              | _ -> Alcotest.fail "not a neighbourhood mapping"
            in
            Alcotest.(check (array int)) "offsets" expected offsets;
            let seen = Array.make nranks [||] in
            let hook =
              {
                Hooks.nil with
                on_enter =
                  (fun ~world_rank ~time:_ (call : Call.t) ->
                    match call.op with
                    | Call.Neighbor_alltoall { neighbors; _ } ->
                        seen.(world_rank) <- neighbors
                    | _ -> ());
              }
            in
            let trace =
              Trace.make ~nranks
                ~comms:[ (0, Util.Rank_set.all nranks) ]
                ~nodes:[ Tnode.Leaf e; Tnode.Leaf finalize ]
            in
            ignore (Replay.run ~hooks:[ hook ] trace);
            Array.iteri
              (fun me r ->
                let want =
                  Array.to_list offsets
                  |> List.map (fun o -> members.((me + o) mod q))
                  |> List.sort_uniq compare |> Array.of_list
                in
                Alcotest.(check (array int))
                  (Printf.sprintf "rank %d, degree %d" r tag)
                  want seen.(r))
              members)
          cases);
  ]

let suite = align_tests @ wildcard_tests @ map_tests @ walk_tests @ neighbor_tests
