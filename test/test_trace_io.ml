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

(* ------------------------------------------------------------------ *)
(* Format v3                                                            *)

let all_apps = List.map (fun (a : Apps.Registry.app) -> a.name) Apps.Registry.all

let traced ?(cls = Apps.Params.S) ~wanted name =
  let app = Option.get (Apps.Registry.find name) in
  let nranks = Apps.Registry.fit_nranks app ~wanted in
  fst (Tracer.trace_run ~nranks (app.program ~cls ()))

let with_file bytes f =
  let path = Filename.temp_file "trace" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes);
      f path)

let read path = In_channel.with_open_bin path In_channel.input_all

let find_sub ~sub s =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then raise Not_found
    else if String.sub s i n = sub then i
    else go (i + 1)
  in
  go 0

let rejects ~what bytes =
  match Trace_io.of_string bytes with
  | _ -> Alcotest.failf "accepted a trace with %s" what
  | exception Trace_io.Format_error msg ->
      Alcotest.(check bool) msg true (Test_fault.contains ~sub:what msg)

let v3_stable name =
  t (name ^ " v3 save -> load -> save is byte-stable") (fun () ->
      let trace = traced ~wanted:8 name in
      with_file "" (fun path ->
          Trace_io.save trace ~path;
          let first = read path in
          Alcotest.(check bool) "v3" true (Trace_io.framed_version first = Some 3);
          let loaded = Trace_io.load ~path in
          Alcotest.(check bool) "round-trip" true (roundtrip_equal trace loaded);
          Trace_io.save loaded ~path;
          Alcotest.(check string) "byte-stable" first (read path)))

(* v3 holds the merged trace itself where v2 re-merges per-rank streams;
   generation must not be able to tell them apart. *)
let v3_generates_as_v2 name =
  t (name ^ " generates the same benchmark from v3 as from v2") (fun () ->
      let trace = traced ~wanted:8 name in
      let generate bytes =
        with_file bytes (fun path ->
            match
              Benchgen.Pipeline.run
                { Benchgen.Pipeline.default with name = Some name }
                (Benchgen.Pipeline.From_file path)
            with
            | Ok (a, _) -> a.Benchgen.Pipeline.report.text
            | Error e -> Alcotest.fail (Benchgen.Pipeline.error_to_string e))
      in
      Alcotest.(check string)
        "same benchmark"
        (generate (Trace_io.to_framed trace))
        (generate (Trace_io.to_string trace)))

(* A framed file as (kind, payload) frames, and back with fresh CRCs. *)
let frames_of bytes =
  let rec go pos acc =
    let nl = String.index_from bytes pos '\n' in
    match String.split_on_char ' ' (String.sub bytes pos (nl - pos)) with
    | [ "frame"; "end"; _; _ ] -> List.rev acc
    | [ "frame"; kind; len; _ ] ->
        let len = int_of_string len in
        go (nl + 1 + len + 1) ((kind, String.sub bytes (nl + 1) len) :: acc)
    | _ -> Alcotest.fail "not a frame header"
  in
  go (String.index bytes '\n' + 1) []

let framed ?(version = 3) frames =
  Printf.sprintf "scalatrace-frames %d\n" version
  ^ String.concat ""
      (List.map
         (fun (kind, payload) ->
           Trace_io.frame_header ~kind ~payload ^ "\n" ^ payload ^ "\n")
         frames)
  ^ "frame end 0 00000000\n"

let map_frame kind f frames =
  List.map (fun (k, p) -> if k = kind then (k, f p) else (k, p)) frames

let v3_strict_tests =
  let cg = lazy (Trace_io.to_string (traced ~wanted:8 "cg")) in
  let frames () = frames_of (Lazy.force cg) in
  [
    t "v3 frames re-assemble to the saved bytes" (fun () ->
        Alcotest.(check string) "same" (Lazy.force cg) (framed (frames ())));
    t "strict v3 rejects a bad checksum" (fun () ->
        let bytes = Lazy.force cg in
        let i = find_sub ~sub:"frame nodes:1 " bytes + 40 in
        let b = Bytes.of_string bytes in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
        rejects ~what:"frame nodes:1: checksum mismatch" (Bytes.to_string b));
    t "strict v3 rejects a missing node frame" (fun () ->
        let fs = frames () in
        rejects ~what:"missing node frame nodes:1"
          (framed (List.filter (fun (k, _) -> k <> "nodes:1") fs));
        let last = Printf.sprintf "nodes:%d" (List.length fs - 4) in
        rejects ~what:("missing node frame " ^ last)
          (framed (List.filter (fun (k, _) -> k <> last) fs)));
    t "strict v3 rejects a duplicate node frame" (fun () ->
        rejects ~what:"duplicate node frame nodes:1"
          (framed
             (List.concat_map
                (fun (k, p) -> if k = "nodes:1" then [ (k, p); (k, p) ] else [ (k, p) ])
                (frames ()))));
    t "strict v3 rejects an out-of-order node frame" (fun () ->
        let fs = frames () in
        let n1 = List.assoc "nodes:1" fs and n2 = List.assoc "nodes:2" fs in
        rejects ~what:"node frame nodes:2 out of order (expected nodes:1)"
          (framed
             (List.map
                (fun (k, p) ->
                  if k = "nodes:1" then ("nodes:2", n2)
                  else if k = "nodes:2" then ("nodes:1", n1)
                  else (k, p))
                fs)));
    t "strict v3 rejects a manifest that disagrees with the nodes" (fun () ->
        let bump_last_count line =
          match String.rindex_opt line ' ' with
          | Some i ->
              String.sub line 0 (i + 1)
              ^ string_of_int (int_of_string (String.sub line (i + 1) (String.length line - i - 1)) + 1)
          | None -> line
        in
        let rewrite which p =
          String.split_on_char '\n' p
          |> List.map (fun l -> if String.starts_with ~prefix:which l then bump_last_count l else l)
          |> String.concat "\n"
        in
        rejects ~what:"event-count manifest mismatch"
          (framed (map_frame "manifest" (rewrite "events ") (frames ())));
        (* same total, one event moved from rank 1 to rank 0 *)
        let counts = Trace_io.rank_event_counts ~nranks:8 (Trace.nodes (traced ~wanted:8 "cg")) in
        counts.(0) <- counts.(0) + 1;
        counts.(1) <- counts.(1) - 1;
        let per_rank p =
          let kept =
            List.filter
              (fun l -> not (String.starts_with ~prefix:"ranks " l))
              (String.split_on_char '\n' p)
          in
          String.concat "\n"
            (kept
            @ List.mapi (fun r c -> Printf.sprintf "ranks %d:%d:1 %d" r r c)
                (Array.to_list counts))
        in
        rejects ~what:"rank 0 event-count manifest mismatch"
          (framed (map_frame "manifest" per_rank (frames ())));
        rejects ~what:"missing node frame nodes:"
          (framed (map_frame "manifest" (rewrite "nodes ") (frames ()))));
  ]

(* Events that fall outside their own header: each case is written as a
   v1 file, a v2 file (in rank 0's frame) and a v3 file (in nodes:0).
   Strict loading names the line and frame; salvage drops the event with
   a note. *)
let header_fit_case ~title ~what ?(comms = [ "comm 0 0:3:1" ]) event =
  t ("strict loaders reject " ^ title) (fun () ->
      let event = "event " ^ event ^ " dt=1;0;0;0;0 site=\"f\" 1 2 \"\"" in
      let v1 =
        String.concat "\n" ([ "scalatrace-trace 1"; "nranks 4" ] @ comms @ [ event; "" ])
      in
      let v1_line = 3 + List.length comms in
      let comms_payload = String.concat "\n" comms in
      let v2 =
        framed ~version:2
          ([ ("header", "nranks 4"); ("comms", comms_payload); ("rank:0", event) ]
          @ List.map (fun r -> (Printf.sprintf "rank:%d" r, "")) [ 1; 2; 3 ]
          @ [ ("timing", "events 1") ])
      in
      let v3 =
        framed
          [
            ("header", "nranks 4");
            ("comms", comms_payload);
            ("manifest", "events 1\nnodes 1\nranks 0:3:1 0");
            ("nodes:0", event);
          ]
      in
      rejects ~what:(Printf.sprintf "line %d: event %s" v1_line what) v1;
      rejects ~what:(Printf.sprintf "frame rank:0: line %d: event %s" (6 + List.length comms) what) v2;
      rejects ~what:(Printf.sprintf "frame nodes:0: line %d: event %s" (10 + List.length comms) what) v3;
      with_file v1 (fun path ->
          match
            Benchgen.Pipeline.run Benchgen.Pipeline.default (Benchgen.Pipeline.From_file path)
          with
          | Error (Benchgen.Pipeline.E_trace_format _) -> ()
          | Error e -> Alcotest.fail (Benchgen.Pipeline.error_to_string e)
          | Ok _ -> Alcotest.fail "generated from a trace outside its header");
      List.iter
        (fun bytes ->
          match Salvage.of_string bytes with
          | Error m -> Alcotest.fail m
          | Ok (trace, report) ->
              Alcotest.(check int) "event dropped" 0 (Trace.event_count trace);
              Alcotest.(check bool)
                "noted" true
                (List.exists (Test_fault.contains ~sub:what) report.Salvage.notes))
        [ v1; v2; v3 ])

let header_fit_tests =
  [
    header_fit_case ~title:"ranks outside [0, nranks)" ~what:"ranks 0:7:1 outside [0, 4)"
      "MPI_Barrier peer=none bytes=0 vec=- tag=0 comm=0 ranks=0:7:1";
    header_fit_case ~title:"ranks outside their communicator"
      ~what:"ranks 0:3:1 outside communicator 1"
      ~comms:[ "comm 0 0:3:1"; "comm 1 0:1:1" ]
      "MPI_Barrier peer=none bytes=0 vec=- tag=0 comm=1 ranks=0:3:1";
    header_fit_case ~title:"an unknown communicator" ~what:"unknown communicator 7"
      "MPI_Barrier peer=none bytes=0 vec=- tag=0 comm=7 ranks=0:0:1";
    header_fit_case ~title:"a peer outside the communicator"
      ~what:"peer 9 outside communicator 0"
      "MPI_Send peer=abs:9 bytes=8 vec=- tag=0 comm=0 ranks=0:0:1";
    t "strict loaders reject a mapped peer outside the communicator" (fun () ->
        rejects ~what:"line 4: event peer 3 outside communicator 1"
          (String.concat "\n"
             [
               "scalatrace-trace 1";
               "nranks 4";
               "comm 1 0:1:1";
               "event MPI_Send peer=map:0>1,1>3 bytes=8 vec=- tag=0 comm=1 \
                ranks=0:1:1 dt=1;0;0;0;0 site=\"f\" 1 2 \"\"";
             ]));
  ]

let v3_size_test =
  t "v3 is at most 1.5x the v1 text for every app at 64 ranks" (fun () ->
      List.iter
        (fun name ->
          let trace = traced ~wanted:64 name in
          let v1 = String.length (Trace_io.to_text trace)
          and v3 = String.length (Trace_io.to_string trace) in
          if float_of_int v3 > 1.5 *. float_of_int v1 then
            Alcotest.failf "%s: v3 %d B against v1 %d B" name v3 v1)
        all_apps)

(* ring -n 4 -c S files saved by the v1 and v2 writers before v3 existed
   (test/compat/): they load, and re-save to the bytes a fresh trace
   saves to. *)
let compat_test =
  t "ring v1 and v2 files from before v3 load and re-save as a fresh trace"
    (fun () ->
      let fresh = Trace_io.to_string (traced ~wanted:4 "ring") in
      List.iter
        (fun file ->
          let trace = Trace_io.load ~path:(Filename.concat "compat" file) in
          Alcotest.(check string) file fresh (Trace_io.to_string trace))
        [ "ring4.v1.trace"; "ring4.v2.trace" ])

(* A rank-interval list parses to the set a fold of [Rank_set.union] over
   its intervals builds, including lists that are unsorted, overlap, mix
   strides, repeat a member or hold one interval.  The fold is what the
   parser did before it built each set once. *)
let rank_list_test =
  t "rank-interval lists parse to the set a union fold builds" (fun () ->
      let folded s =
        List.fold_left
          (fun acc part ->
            Scanf.sscanf part "%d:%d:%d" (fun f l st ->
                Util.Rank_set.union acc (Util.Rank_set.range ~stride:st f l)))
          Util.Rank_set.empty (String.split_on_char ',' s)
      in
      let check s =
        Alcotest.(check (list (triple int int int)))
          s
          (Util.Rank_set.intervals (folded s))
          (Util.Rank_set.intervals (Trace_io.parse_ranks s))
      in
      List.iter check
        [
          "0:7:1"; "3:3:1"; "0:9:3"; "8:15:1,0:7:1"; "0:10:2,1:11:2";
          "4:20:4,0:16:4,8:8:1"; "0:5:1,3:9:1,9:9:1"; "10:10:1,2:2:1,6:6:1";
          "0:30:3,0:30:5,0:30:2"; "5:5:1,5:5:1";
        ];
      let rng = Random.State.make [| 20261017 |] in
      for _ = 1 to 300 do
        let interval _ =
          let f = Random.State.int rng 48 and stride = 1 + Random.State.int rng 4 in
          Printf.sprintf "%d:%d:%d" f (f + (stride * Random.State.int rng 6)) stride
        in
        check (String.concat "," (List.init (1 + Random.State.int rng 10) interval))
      done)

let suite =
  List.map app_roundtrip [ "bt"; "cg"; "ep"; "ft"; "is"; "lu"; "mg"; "sp"; "sweep3d" ]
  @ unit_tests @ dt_corruption_tests
  @ List.map v3_stable all_apps
  @ List.map v3_generates_as_v2 all_apps
  @ v3_strict_tests @ header_fit_tests
  @ [ v3_size_test; compat_test; rank_list_test ]
