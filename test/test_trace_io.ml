open Mpisim
open Scalatrace

let t name f = Alcotest.test_case name `Quick f

let seq_sig trace rank =
  let out = ref [] in
  let rec go cursor =
    match Benchgen.Traversal.peek cursor with
    | None -> ()
    | Some (e, after) ->
        out :=
          ( Event.kind_name e.Event.kind,
            Event.peer_of e ~rank ~nranks:(Trace.nranks trace),
            e.Event.bytes, e.Event.tag, e.Event.comm )
          :: !out;
        go after
  in
  go (Benchgen.Traversal.start (Trace.project trace ~rank));
  List.rev !out

let roundtrip_equal a b =
  Trace.nranks a = Trace.nranks b
  && Trace.rsd_count a = Trace.rsd_count b
  && Trace.event_count a = Trace.event_count b
  && List.for_all
       (fun r -> seq_sig a r = seq_sig b r)
       (List.init (Trace.nranks a) Fun.id)

let app_roundtrip name =
  t (name ^ " trace round-trips through the file format") (fun () ->
      let app = Option.get (Apps.Registry.find name) in
      let nranks = Apps.Registry.fit_nranks app ~wanted:8 in
      let trace, _ = Tracer.trace_run ~nranks (app.program ~cls:Apps.Params.S ()) in
      let trace' = Trace_io.of_text (Trace_io.to_text trace) in
      Alcotest.(check bool) "round-trip" true (roundtrip_equal trace trace');
      (* timing means must survive *)
      let total t =
        let s = ref 0. in
        Tnode.iter_leaves (fun e -> s := !s +. Util.Histogram.sum e.Event.dtime) (Trace.nodes t);
        !s
      in
      Alcotest.(check (float 1e-9)) "timing sum" (total trace) (total trace'))

let unit_tests =
  [
    t "generation from a reloaded trace is identical" (fun () ->
        let app = Option.get (Apps.Registry.find "lu") in
        let trace, _ = Tracer.trace_run ~nranks:8 (app.program ~cls:Apps.Params.S ()) in
        let generate trace = Generate.report (Benchgen.Pipeline.From_trace trace) in
        let direct = generate trace in
        let reloaded = generate (Trace_io.of_text (Trace_io.to_text trace)) in
        Alcotest.(check string) "same benchmark" direct.text reloaded.text);
    t "save/load through a file" (fun () ->
        let app = Option.get (Apps.Registry.find "ep") in
        let trace, _ = Tracer.trace_run ~nranks:4 (app.program ~cls:Apps.Params.S ()) in
        let path = Filename.temp_file "trace" ".stf" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Trace_io.save trace ~path;
            Alcotest.(check bool) "round-trip" true
              (roundtrip_equal trace (Trace_io.load ~path))));
    t "bad magic rejected" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Trace_io.of_text "something else\n");
             false
           with Trace_io.Format_error _ -> true));
    t "unterminated loop rejected" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Trace_io.of_text "scalatrace-trace 1\nnranks 2\nloop 5\n");
             false
           with Trace_io.Format_error _ -> true));
    t "unknown op rejected with line number" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Trace_io.of_text
                  "scalatrace-trace 1\nnranks 2\nevent MPI_Bogus peer=none bytes=0 vec=- tag=0 comm=0 ranks=0:0:1 dt=1;0;0;0;0 site=\"f\" 1 2 \"\"\n");
             false
           with Trace_io.Format_error msg ->
             String.length msg > 0
             && String.sub msg 0 6 = "line 3"));
    t "wildcard and map peers survive" (fun () ->
        let s1 = Mpi.site __POS__ and s2 = Mpi.site __POS__ and s3 = Mpi.site __POS__ in
        let prog (ctx : Mpi.ctx) =
          (if ctx.rank = 0 then ignore (Mpi.recv ~site:s1 ctx ~src:Call.Any_source ~bytes:8)
           else if ctx.rank = 1 then Mpi.send ~site:s2 ctx ~dst:0 ~bytes:8);
          Mpi.finalize ~site:s3 ctx
        in
        let trace, _ = Tracer.trace_run ~nranks:3 prog in
        let trace' = Trace_io.of_text (Trace_io.to_text trace) in
        Alcotest.(check bool) "still wild" true (Trace.has_wildcards trace'));
  ]

(* A v1 ring trace with one statistic of every [dt=count;sum;min;max;first]
   field rewritten.  Accepted, such a trace silently loses every COMPUTE
   statement (nan or negative sum, negative count) or emits [COMPUTE FOR
   inf] (infinite sum), so strict loading must refuse it. *)
let corrupt_dt ~stat ~value text =
  let rewrite stats =
    String.split_on_char ';' stats
    |> List.mapi (fun i x -> if i = stat then value else x)
    |> String.concat ";"
  in
  String.split_on_char '\n' text
  |> List.map (fun line ->
         String.split_on_char ' ' line
         |> List.map (fun field ->
                if String.starts_with ~prefix:"dt=" field then
                  "dt=" ^ rewrite (String.sub field 3 (String.length field - 3))
                else field)
         |> String.concat " ")
  |> String.concat "\n"

let dt_corruption_tests =
  let ring =
    lazy
      (let app = Option.get (Apps.Registry.find "ring") in
       let trace, _ = Tracer.trace_run ~nranks:4 (app.program ~cls:Apps.Params.S ()) in
       Trace_io.to_text trace)
  in
  List.map
    (fun (what, stat, value) ->
      t ("corrupt dt rejected: " ^ what) (fun () ->
          let text = corrupt_dt ~stat ~value (Lazy.force ring) in
          Alcotest.(check bool) "corrupted" true (text <> Lazy.force ring);
          let path = Filename.temp_file "corrupt" ".trace" in
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              Out_channel.with_open_bin path (fun oc ->
                  Out_channel.output_string oc text);
              match
                Benchgen.Pipeline.run Benchgen.Pipeline.default
                  (Benchgen.Pipeline.From_file path)
              with
              | Error (Benchgen.Pipeline.E_trace_format msg) ->
                  Alcotest.(check bool) msg true
                    (Test_fault.contains ~sub:"bad dt field" msg)
              | Error e -> Alcotest.fail (Benchgen.Pipeline.error_to_string e)
              | Ok _ -> Alcotest.fail "corrupt trace accepted")))
    (* stat: 0 count, 1 sum *)
    [
      ("nan sum", 1, "nan");
      ("negative sum", 1, "-1");
      ("negative count", 0, "-5");
      ("infinite sum", 1, "inf");
    ]

let suite =
  List.map app_roundtrip [ "bt"; "cg"; "ep"; "ft"; "is"; "lu"; "mg"; "sp"; "sweep3d" ]
  @ unit_tests @ dt_corruption_tests
