(* Differential tests for the tail compressor.

   {!Compress_ref} is the list-based compressor that scans every window
   w = 1..window; {!Compress} tries only the candidates its hash and
   due-length chains find.  Both see the same event streams — every push
   takes its own {!Event.copy}, because absorbing mutates the surviving
   event — and must produce the same nodes at the same window: identical
   {!Tnode.pp_list}, and identical compute-time statistics, peers and
   participants on every leaf.  A retention guard checks that absorbed
   events are not kept alive by the compressor. *)

open Scalatrace

let t name f = Alcotest.test_case name `Quick f

(* What [pp_list] abbreviates, exactly: the compute-time statistics
   bit for bit, and the full peer (a [P_map] prints only its length) and
   participant set of every leaf. *)
let leaf_details nodes =
  let acc = ref [] in
  Tnode.iter_leaves
    (fun e ->
      let h = e.Event.dtime in
      let bits = Int64.bits_of_float in
      acc :=
        ( ( Util.Histogram.count h,
            bits (Util.Histogram.sum h),
            bits (Util.Histogram.min_value h),
            bits (Util.Histogram.max_value h),
            bits (Util.Histogram.first_sample h) ),
          e.Event.peer,
          e.Event.ranks )
        :: !acc)
    nodes;
  List.rev !acc

let check_same ~what got want =
  let pp = Format.asprintf "%a" Tnode.pp_list in
  Alcotest.(check string) (what ^ ": pp_list") (pp want) (pp got);
  Alcotest.(check bool) (what ^ ": leaf details") true
    (leaf_details got = leaf_details want)

let compress_both ?window ?foldable ~nranks stream =
  let a = Compress.create ?window ?foldable ~nranks ()
  and b = Compress_ref.create ?window ?foldable ~nranks () in
  List.iter
    (fun e ->
      Compress.push a (Event.copy e);
      Compress_ref.push b (Event.copy e))
    stream;
  (Compress.contents a, Compress_ref.contents b)

let windows = [ 1; 2; 64; 256 ]

let check_streams ?(windows = windows) ?foldable ~what ~nranks streams =
  List.iter
    (fun window ->
      Array.iteri
        (fun r stream ->
          let got, want = compress_both ~window ?foldable ~nranks stream in
          check_same ~what:(Printf.sprintf "%s rank %d window %d" what r window)
            got want)
        streams)
    windows

let app_streams ?(cls = Apps.Params.S) name ~wanted =
  let app = Option.get (Apps.Registry.find name) in
  let nranks = Apps.Registry.fit_nranks app ~wanted in
  (nranks, Tracer.streams ~nranks (app.program ~cls ()))

(* A one-rank event, equivalent to exactly the events of the same
   [site]. *)
let synthetic site =
  let h = Util.Histogram.create () in
  Util.Histogram.add h 1e-6;
  {
    Event.site = Util.Callsite.synthetic site;
    kind = Event.E_barrier;
    peer = Event.P_none;
    bytes = 0;
    vec = None;
    tag = 0;
    comm = 0;
    parts = None;
    dtime = h;
    ranks = Util.Rank_set.singleton 0;
    hcache = 0;
  }

let registry_tests =
  [
    t "registry apps at 16 ranks match the list compressor" (fun () ->
        List.iter
          (fun (app : Apps.Registry.app) ->
            let nranks, streams = app_streams app.name ~wanted:16 in
            check_streams ~what:app.name ~nranks streams)
          Apps.Registry.all);
    t "lu and mg at 64 ranks match the list compressor" (fun () ->
        List.iter
          (fun name ->
            let nranks, streams = app_streams name ~wanted:64 in
            check_streams ~what:name ~nranks streams)
          [ "lu"; "mg" ]);
    t "random programs match the list compressor" (fun () ->
        (* 1000 programs; each seed takes one of the four windows *)
        List.iter
          (fun mode ->
            for seed = 0 to 499 do
              let prog = Check.Gen.generate_with ~mode ~seed in
              let nranks = prog.Check.Gen.nranks in
              check_streams
                ~windows:[ List.nth windows (seed mod List.length windows) ]
                ~what:(Printf.sprintf "gen seed %d" seed)
                ~nranks
                (Tracer.streams ~nranks (Check.Gen.to_app prog))
            done)
          [ `Mixed; `Neighbor ]);
    t "foldable predicate: same rejections" (fun () ->
        let nranks, streams = app_streams "cg" ~wanted:16 in
        let foldable e = not (Event.is_collective e.Event.kind) in
        check_streams ~foldable ~what:"cg" ~nranks streams);
    t "compress_list over a merged trace" (fun () ->
        List.iter
          (fun name ->
            let app = Option.get (Apps.Registry.find name) in
            let nranks = Apps.Registry.fit_nranks app ~wanted:16 in
            let trace, _ =
              Tracer.trace_run ~nranks (app.program ~cls:Apps.Params.S ())
            in
            let nodes = Trace.nodes trace in
            List.iter
              (fun window ->
                let got =
                  Compress.compress_list ~window ~nranks (List.map Tnode.copy nodes)
                and want =
                  Compress_ref.compress_list ~window ~nranks
                    (List.map Tnode.copy nodes)
                in
                check_same
                  ~what:(Printf.sprintf "%s merged window %d" name window)
                  got want)
              windows)
          [ "lu"; "mg"; "sweep3d" ]);
  ]

(* Pushing [a b a b] folds the second pair into the first; the absorbed
   events must become garbage, not linger in vacated tail slots. *)
let retention_tests =
  [
    t "absorbed events are collectable" (fun () ->
        let c = Compress.create ~nranks:1 () in
        let weak = Weak.create 2 in
        let[@inline never] push_all () =
          Compress.push c (synthetic "a");
          Compress.push c (synthetic "b");
          let a2 = synthetic "a" and b2 = synthetic "b" in
          Weak.set weak 0 (Some a2);
          Weak.set weak 1 (Some b2);
          Compress.push c a2;
          Compress.push c b2
        in
        push_all ();
        Gc.full_major ();
        Alcotest.(check bool) "second a collected" false (Weak.check weak 0);
        Alcotest.(check bool) "second b collected" false (Weak.check weak 1);
        match Compress.contents c with
        | [ Tnode.Loop { count = 2; l_len = 2; _ } ] -> ()
        | nodes ->
            Alcotest.failf "expected one 2x2 loop, got %d nodes" (List.length nodes));
  ]

let chain_tests =
  [
    (* Long tails: hundreds to thousands of unfolded nodes, so each push
       walks long chains and many loops fall due. *)
    t "kripke-36 class C streams match the list compressor" (fun () ->
        let nranks, streams = app_streams ~cls:Apps.Params.C "kripke" ~wanted:36 in
        check_streams ~windows:[ 64; 256 ] ~what:"kripke C" ~nranks streams);
    t "hirsd-32 class A streams match the list compressor" (fun () ->
        let nranks, streams = app_streams ~cls:Apps.Params.A "hirsd" ~wanted:32 in
        check_streams ~windows:[ 64; 256 ] ~what:"hirsd A" ~nranks streams);
    t "hand-built streams: loops due after a fold, tails that grow" (fun () ->
        let stream = List.map synthetic in
        (* [x (y y)] twice folds into a loop at slot 0, due at tail length
           3; then x y y, whose y y fold truncates the tail from 4 to 3
           nodes, where the loop must be extended *)
        check_streams ~what:"due after fold" ~nranks:1
          [| stream [ "x"; "y"; "y"; "x"; "y"; "y"; "x"; "y"; "y" ] |];
        (* (c c c x) three times: the third c extends (c c), which is due
           at the same tail length as the outer loop below it; the outer
           loop must stay on the chain for the final x to extend it *)
        let cccx = [ "c"; "c"; "c"; "x" ] in
        check_streams ~what:"two loops due together" ~nranks:1
          [| stream (cccx @ cccx @ cccx) |];
        (* a 140-node body of leaves and (t t) loops, three times: tails of
           up to 420 nodes, past several doublings of the arrays *)
        let body =
          List.concat (List.init 70 (fun i -> [ Printf.sprintf "s%d" i; "t"; "t" ]))
        in
        check_streams ~what:"grow" ~nranks:1 [| stream (body @ body @ body) |];
        (* a pushed 140-node loop falls due only after five doublings *)
        let leaves = List.init 140 (fun i -> Tnode.Leaf (synthetic (Printf.sprintf "s%d" i))) in
        let nodes = Tnode.loop ~count:2 leaves :: leaves in
        List.iter
          (fun window ->
            check_same
              ~what:(Printf.sprintf "pushed loop window %d" window)
              (Compress.compress_list ~window ~nranks:1 (List.map Tnode.copy nodes))
              (Compress_ref.compress_list ~window ~nranks:1 (List.map Tnode.copy nodes)))
          windows);
  ]

let suite = registry_tests @ retention_tests @ chain_tests
