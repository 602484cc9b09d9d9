(* Pinned merges and the collective-alignment bookkeeping.

   Every registry application's merged trace is compared against a
   digest of its [Trace.to_text], recorded when {!Scalatrace.Merge} still
   had two implementations, a hash index and the linear lookahead scan,
   which agreed byte for byte.  The test names date from then.  Random
   programs check that per-rank projections keep every rank's events.
   The alignment side gets a wide-communicator exercise (the O(1)
   arrival bookkeeping) and unit tests for the overflow-safe rounded
   byte mean. *)

open Scalatrace

let t name f = Alcotest.test_case name `Quick f

let merged_text ~nranks program =
  let tr = Tracer.create ~nranks () in
  ignore (Mpisim.Mpi.run ~hooks:[ Tracer.hook tr ] ~nranks program);
  Trace.to_text (Tracer.finish tr)

let check_digest name expected text =
  Alcotest.(check string)
    (name ^ ": merged trace digest") expected
    (Digest.to_hex (Digest.string text))

let pinned_merges =
  [
    ("bt", "265ad5aa54ae5e50123585198f0c572d");
    ("cg", "908c992393acc0e21a3ee3bf71af45c0");
    ("ep", "0a68022c633d9396282cf1562566c0c8");
    ("ft", "fd7b44fc887cf330e97a46a5df80ad63");
    ("is", "520f6b03695e2877921406703551f591");
    ("lu", "4e66e16c5afbdd8d8ce382b8a89398ca");
    ("mg", "6fdf826a0c2e21306545bef6b7cf055d");
    ("sp", "d89e4999d6d771ce7bb3366a8a5741e6");
    ("sweep3d", "169d669ac3b85a86044da0b99092ef88");
    ("ring", "3aa6cc9bb82f5e8d678f6030572f1cf9");
    ("stencil2d", "b3716fd05df2b52e9d05c853c07cf1a0");
    ("butterfly", "a114beaa51fe29c27a71f0ed7b787949");
    ("hirsd", "b7394fe7c255eb57361586afdd45fe49");
    ("amg", "9e38d80342b73bc2f452ba7700c7239e");
    ("kripke", "25d80da866c55dbae7dd3ba83936945b");
    ("laghos", "a267d9c243e6d18ceb1fd6c7060f9901");
  ]

let registry_tests =
  List.map
    (fun (app : Apps.Registry.app) ->
      t (Printf.sprintf "indexed merge matches reference: %s" app.name)
        (fun () ->
          let nranks = Apps.Registry.fit_nranks app ~wanted:8 in
          check_digest app.name
            (List.assoc app.name pinned_merges)
            (merged_text ~nranks (app.program ~cls:Apps.Params.S ()))))
    Apps.Registry.all

(* Random SPMD programs — the same generator the fuzzing subsystem draws
   from, so the phase vocabulary covers skewed collectives, fan-ins, and
   sub-communicators.  The merge must keep every rank's events: each
   rank's projection of the merged trace holds exactly as many events as
   that rank recorded. *)
let gen_props =
  List.map
    (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260808 |]))
    [
      QCheck.Test.make
        ~name:"indexed merge matches reference on random programs" ~count:40
        QCheck.(int_range 0 1_000_000)
        (fun seed ->
          let prog = Check.Gen.generate ~seed in
          let nranks = prog.Check.Gen.nranks in
          let tr = Tracer.create ~nranks () in
          ignore
            (Mpisim.Mpi.run ~hooks:[ Tracer.hook tr ] ~nranks
               (Check.Gen.to_app prog));
          let merged = Tracer.finish tr and locals = Tracer.local_traces tr in
          let projections = Trace.projections merged in
          List.for_all
            (fun r ->
              Tnode.event_count locals.(r)
              = Tnode.event_count_for projections.(r) ~rank:r)
            (List.init nranks Fun.id));
    ]

(* -------------------------------------------------------------- *)
(* Alignment: wide communicators and the collective byte mean       *)

let site_x = Util.Callsite.synthetic "x"
let site_y = Util.Callsite.synthetic "y"

let coll_leaf ?(site = site_x) ?(kind = Event.E_allreduce) ?(comm = 0) ?parts
    ~bytes ranks =
  let h = Util.Histogram.create () in
  Util.Histogram.add h 0.;
  Tnode.Leaf
    {
      Event.site;
      kind;
      peer = Event.P_none;
      bytes;
      vec = None;
      tag = 0;
      comm;
      parts;
      dtime = h;
      ranks = Util.Rank_set.of_list ranks;
      hcache = 0;
    }

let aligned_coll_bytes trace =
  let aligned = Benchgen.Align.run trace in
  let bytes = ref None in
  Tnode.iter_leaves
    (fun e -> if e.Event.kind = Event.E_allreduce then bytes := Some e.Event.bytes)
    (Trace.nodes aligned);
  Option.get !bytes

let align_tests =
  [
    t "alignment completes on a wide skewed communicator" (fun () ->
        (* 512 ranks reach the same barrier from two call sites: Algorithm
           1 must hoist it to one RSD, and the arrival bookkeeping must
           stay sublinear in the member count while doing so *)
        let nranks = 512 in
        let sf = Util.Callsite.synthetic "fin" in
        let prog (ctx : Mpisim.Mpi.ctx) =
          if ctx.rank mod 2 = 0 then Mpisim.Mpi.barrier ~site:site_x ctx
          else Mpisim.Mpi.barrier ~site:site_y ctx;
          Mpisim.Mpi.allreduce ~site:site_x ctx ~bytes:8;
          Mpisim.Mpi.finalize ~site:sf ctx
        in
        let trace, _ = Tracer.trace_run ~nranks prog in
        Alcotest.(check bool)
          "skew detected" true
          (Trace.has_unaligned_collectives trace);
        let aligned = Benchgen.Align.run trace in
        Alcotest.(check bool)
          "aligned" false
          (Trace.has_unaligned_collectives aligned);
        Alcotest.(check int)
          "events preserved" (Trace.event_count trace)
          (Trace.event_count aligned));
    t "collective byte mean is overflow-safe" (fun () ->
        (* three ranks disagree on the allreduce size near max_int: the
           naive sum-then-divide would wrap negative *)
        let b = max_int - 1 and c = max_int - 7 in
        let trace =
          Trace.make ~nranks:3
            ~comms:[ (0, Util.Rank_set.all 3) ]
            ~nodes:[ coll_leaf ~bytes:b [ 0; 1 ]; coll_leaf ~bytes:c [ 2 ] ]
        in
        Alcotest.(check int)
          "exact mean" (max_int - 3)
          (aligned_coll_bytes trace));
    t "collective byte mean rounds half-up" (fun () ->
        let trace =
          Trace.make ~nranks:2
            ~comms:[ (0, Util.Rank_set.all 2) ]
            ~nodes:[ coll_leaf ~bytes:1 [ 0 ]; coll_leaf ~bytes:2 [ 1 ] ]
        in
        Alcotest.(check int) "mean of 1,2" 2 (aligned_coll_bytes trace);
        let trace3 =
          Trace.make ~nranks:3
            ~comms:[ (0, Util.Rank_set.all 3) ]
            ~nodes:[ coll_leaf ~bytes:1 [ 0; 1 ]; coll_leaf ~bytes:2 [ 2 ] ]
        in
        Alcotest.(check int) "mean of 1,1,2" 1 (aligned_coll_bytes trace3));
    t "non-member arrival raises a typed error" (fun () ->
        (* rank 2 reaches a collective on a communicator it is not part
           of: a malformed trace must fail with Align_error, not an
           assertion or a traversal-budget blowup *)
        let trace =
          Trace.make ~nranks:4
            ~comms:
              [ (0, Util.Rank_set.all 4); (1, Util.Rank_set.of_list [ 0; 1 ]) ]
            ~nodes:[ coll_leaf ~comm:1 ~bytes:8 [ 0; 1; 2 ] ]
        in
        match Benchgen.Align.run trace with
        | _ -> Alcotest.fail "expected Align_error"
        | exception Benchgen.Align.Align_error _ -> ());
    t "neighborhood arrival outside the declared participant set" (fun () ->
        (* rank 1 reaches a partial-participant neighborhood collective
           whose declared set is {0, 2}: the arrival must raise the typed
           Align_error naming the participant set, not stall or
           mis-account the arrival bitmap *)
        let parts = [| 0; 2 |] in
        let trace =
          Trace.make ~nranks:4
            ~comms:[ (0, Util.Rank_set.all 4) ]
            ~nodes:
              [
                coll_leaf ~kind:Event.E_neighbor_alltoall ~parts ~bytes:64
                  [ 0; 1; 2 ];
              ]
        in
        match Benchgen.Align.run trace with
        | _ -> Alcotest.fail "expected Align_error"
        | exception Benchgen.Align.Align_error msg ->
            Alcotest.(check bool)
              "message names the participant set" true
              (let has needle =
                 let nl = String.length needle and ml = String.length msg in
                 let rec go i =
                   i + nl <= ml && (String.sub msg i nl = needle || go (i + 1))
                 in
                 go 0
               in
               has "participant set" && has "{0,2}"));
  ]

(* The high-RSD regime the merge's lookahead was built for: hirsd at 32
   ranks, class A, about 2.7 MB of merged text. *)
let hirsd_tests =
  [
    t "hirsd 32 ranks class A merges to its pinned trace" (fun () ->
        let app = Option.get (Apps.Registry.find "hirsd") in
        check_digest "hirsd 32 A" "00d6ee6677b70025289db8b17428449f"
          (merged_text ~nranks:32 (app.program ~cls:Apps.Params.A ())));
  ]

(* Alignment's verdicts when the walk ends with ranks unfinished. *)
let stuck_tests =
  [
    t "opposite collective orders are a cyclic dependency" (fun () ->
        let both = Util.Rank_set.of_list [ 0; 1 ] in
        let trace =
          Trace.make ~nranks:2
            ~comms:[ (0, Util.Rank_set.all 2); (1, both); (2, both) ]
            ~nodes:
              [
                coll_leaf ~comm:1 ~bytes:8 [ 0 ];
                coll_leaf ~comm:2 ~bytes:8 [ 1 ];
                coll_leaf ~comm:2 ~bytes:8 [ 0 ];
                coll_leaf ~comm:1 ~bytes:8 [ 1 ];
              ]
        in
        match Benchgen.Align.run trace with
        | _ -> Alcotest.fail "expected Align_error"
        | exception Benchgen.Align.Align_error msg ->
            Alcotest.(check bool) msg true
              (Test_fault.contains ~sub:"cyclic collective dependency" msg));
    t "a stall names every rank that will never arrive" (fun () ->
        (* ranks 0 and 1 wait on communicators {0,3} and {1,2}; ranks 2
           and 3 recorded nothing *)
        let trace =
          Trace.make ~nranks:4
            ~comms:
              [
                (0, Util.Rank_set.all 4);
                (1, Util.Rank_set.of_list [ 0; 3 ]);
                (2, Util.Rank_set.of_list [ 1; 2 ]);
              ]
            ~nodes:[ coll_leaf ~comm:1 ~bytes:8 [ 0 ]; coll_leaf ~comm:2 ~bytes:8 [ 1 ] ]
        in
        let check what (st : Benchgen.Align.stall) =
          Alcotest.(check (list int)) (what ^ ": missing") [ 2; 3 ] st.st_missing;
          Alcotest.(check (list int))
            (what ^ ": one edge per parked rank") [ 0; 1 ]
            (List.sort compare (List.map (fun e -> e.Util.Waitgraph.e_rank) st.st_edges))
        in
        (match Benchgen.Align.run_policy ~policy:`Strict trace with
        | _ -> Alcotest.fail "expected Incomplete"
        | exception Benchgen.Align.Incomplete st -> check "strict" st);
        match (Benchgen.Align.run_policy ~policy:`Best_effort trace).stall with
        | Some st -> check "best-effort" st
        | None -> Alcotest.fail "best-effort reported no stall");
  ]

let suite = registry_tests @ gen_props @ align_tests @ hirsd_tests @ stuck_tests
