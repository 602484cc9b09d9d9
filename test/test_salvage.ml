(* The resilient-ingestion layer: framed (v2) round trips, v1 -> v2
   migration, golden frame headers, the salvage loader on v1, v2 and v3
   files, degraded-mode generation, and the corruption-fuzz contract. *)

open Scalatrace

let t name f = Alcotest.test_case name `Quick f

(* Same structural signature as test_trace_io: per-rank event sequences
   plus shape counters. *)
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
  go (Benchgen.Traversal.start (Project_ref.of_trace trace ~rank));
  List.rev !out

let roundtrip_equal a b =
  Trace.nranks a = Trace.nranks b
  && Trace.event_count a = Trace.event_count b
  && List.for_all
       (fun r -> seq_sig a r = seq_sig b r)
       (List.init (Trace.nranks a) Fun.id)

let app_trace ?(nranks = 8) name =
  let app = Option.get (Apps.Registry.find name) in
  let nranks = Apps.Registry.fit_nranks app ~wanted:nranks in
  let trace, _ =
    Tracer.trace_run ~nranks (app.program ~cls:Apps.Params.S ())
  in
  trace

(* v2 round trip for one registry app: the framed bytes must reload to a
   structurally identical trace, and re-saving must be byte-stable. *)
let framed_roundtrip name =
  t (name ^ " framed (v2) round trip is byte-stable") (fun () ->
      let trace = app_trace name in
      let bytes = Trace_io.to_framed trace in
      let trace' = Trace_io.of_string bytes in
      Alcotest.(check bool) "round-trip" true (roundtrip_equal trace trace');
      Alcotest.(check string) "byte-stable" bytes (Trace_io.to_framed trace'))

(* v1 -> v2 migration: load the line format, save framed, reload. *)
let migration name =
  t (name ^ " v1 -> v2 migration preserves the trace") (fun () ->
      let trace = app_trace name in
      let via_v1 = Trace_io.of_text (Trace_io.to_text trace) in
      let via_v2 = Trace_io.of_string (Trace_io.to_framed via_v1) in
      Alcotest.(check bool) "identity" true (roundtrip_equal trace via_v2))

let all_app_names =
  List.map (fun (a : Apps.Registry.app) -> a.name) Apps.Registry.all

(* ------------------------------------------------------------------ *)
(* Damage helpers                                                       *)

let frame_boundaries bytes =
  let n = String.length bytes in
  let rec go pos acc =
    if pos >= n then List.rev acc
    else
      let acc =
        if
          n - pos >= 6
          && String.sub bytes pos 6 = "frame "
          && (pos = 0 || bytes.[pos - 1] = '\n')
        then pos :: acc
        else acc
      in
      match String.index_from_opt bytes pos '\n' with
      | Some nl -> go (nl + 1) acc
      | None -> List.rev acc
  in
  go 0 []

(* Drop one whole rank frame (header line through the next boundary). *)
let ablate_rank_frame bytes ~rank =
  let bs = frame_boundaries bytes in
  let prefix = Printf.sprintf "frame rank:%d " rank in
  let start =
    List.find
      (fun pos ->
        String.length bytes - pos > String.length prefix
        && String.sub bytes pos (String.length prefix) = prefix)
      bs
  in
  let stop =
    match List.find_opt (fun b -> b > start) bs with
    | Some b -> b
    | None -> String.length bytes
  in
  String.sub bytes 0 start
  ^ String.sub bytes stop (String.length bytes - stop)

let with_temp_file bytes f =
  let path = Filename.temp_file "salvage" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc bytes);
      f path)

let run_pipeline ~recovery path =
  Benchgen.Pipeline.run
    { Benchgen.Pipeline.default with recovery }
    (Benchgen.Pipeline.From_file path)

(* ------------------------------------------------------------------ *)

let unit_tests =
  [
    t "golden v2 frame headers" (fun () ->
        (* Byte-level compatibility contract: magic line, then a header
           frame whose payload is "nranks 2" with its IEEE CRC32. *)
        let prog (ctx : Mpisim.Mpi.ctx) =
          if ctx.rank = 0 then Mpisim.Mpi.send ctx ~dst:1 ~bytes:64 ~tag:1
          else
            ignore
              (Mpisim.Mpi.recv ctx ~src:(Mpisim.Call.Rank 0)
                 ~tag:(Mpisim.Call.Tag 1) ~bytes:64);
          Mpisim.Mpi.finalize ctx
        in
        let trace, _ = Tracer.trace_run ~nranks:2 prog in
        let bytes = Trace_io.to_framed trace in
        let expect_prefix =
          "scalatrace-frames 2\n"
          ^ "frame header 8 d9dd6a18\n" ^ "nranks 2\n"
          ^ "frame comms 12 57d0c0cf\n" ^ "comm 0 0:1:1\n"
        in
        Alcotest.(check string)
          "prefix" expect_prefix
          (String.sub bytes 0 (String.length expect_prefix));
        Alcotest.(check string)
          "frame_header helper" "frame header 8 d9dd6a18"
          (Trace_io.frame_header ~kind:"header" ~payload:"nranks 2"));
    t "crc32 matches the IEEE reference" (fun () ->
        (* "123456789" -> cbf43926 is the standard CRC-32 check value. *)
        Alcotest.(check string)
          "check value" "cbf43926"
          (Util.Crc32.to_hex (Util.Crc32.string "123456789")));
    t "salvage of an intact file is a clean report" (fun () ->
        let trace = app_trace "ring" ~nranks:4 in
        match Salvage.of_string (Trace_io.to_framed trace) with
        | Error m -> Alcotest.fail m
        | Ok (trace', report) ->
            Alcotest.(check bool) "equal" true (roundtrip_equal trace trace');
            Alcotest.(check bool)
              "not degraded" false
              (Salvage.is_degraded report));
    t "salvage recovers the surviving ranks of an ablated file" (fun () ->
        let trace = app_trace "ring" ~nranks:4 in
        let damaged = ablate_rank_frame (Trace_io.to_framed trace) ~rank:2 in
        match Salvage.of_string damaged with
        | Error m -> Alcotest.fail m
        | Ok (trace', report) ->
            Alcotest.(check bool) "degraded" true (Salvage.is_degraded report);
            Alcotest.(check (list int)) "rank 2 gone" [ 2 ] report.ranks_missing;
            Alcotest.(check int) "nranks kept" 4 (Trace.nranks trace');
            (* the other ranks' streams survive in full *)
            List.iter
              (fun r ->
                Alcotest.(check bool)
                  (Printf.sprintf "rank %d stream intact" r)
                  true
                  (seq_sig trace r = seq_sig trace' r))
              [ 0; 1; 3 ]);
    t "salvage of a v1 body truncation recovers a prefix" (fun () ->
        let trace = app_trace "ring" ~nranks:4 in
        let text = Trace_io.to_text trace in
        let cut = String.sub text 0 (String.length text * 2 / 3) in
        match Salvage.of_string cut with
        | Error m -> Alcotest.fail m
        | Ok (trace', report) ->
            Alcotest.(check int) "v1" 1 report.format_version;
            Alcotest.(check bool) "degraded" true (Salvage.is_degraded report);
            Alcotest.(check bool)
              "prefix only" true
              (Trace.event_count trace' <= Trace.event_count trace));
    t "strict pipeline rejects a damaged file" (fun () ->
        let trace = app_trace "ring" ~nranks:4 in
        let damaged = ablate_rank_frame (Trace_io.to_framed trace) ~rank:0 in
        with_temp_file damaged (fun path ->
            match run_pipeline ~recovery:`Strict path with
            | Error (Benchgen.Pipeline.E_trace_format _) -> ()
            | Error e -> Alcotest.fail (Benchgen.Pipeline.error_to_string e)
            | Ok _ -> Alcotest.fail "strict mode accepted a damaged trace"));
    t "salvage mode refuses a trace whose collectives cannot complete"
      (fun () ->
        (* cg ends in world collectives; ablating a rank leaves them
           unfinishable, and `Salvage (no truncation) must say so. *)
        let trace = app_trace "cg" ~nranks:8 in
        let damaged = ablate_rank_frame (Trace_io.to_framed trace) ~rank:3 in
        with_temp_file damaged (fun path ->
            match run_pipeline ~recovery:`Salvage path with
            | Error (Benchgen.Pipeline.E_unrecoverable_trace msg) ->
                let contains hay needle =
                  let nl = String.length needle and hl = String.length hay in
                  let rec go i =
                    i + nl <= hl
                    && (String.sub hay i nl = needle || go (i + 1))
                  in
                  go 0
                in
                Alcotest.(check bool)
                  "names the wait-for graph" true
                  (contains msg "waiting on")
            | Error e -> Alcotest.fail (Benchgen.Pipeline.error_to_string e)
            | Ok _ -> Alcotest.fail "`Salvage generated from a dead wait"));
    t "best-effort generates a runnable prefix from a damaged trace"
      (fun () ->
        let trace = app_trace "cg" ~nranks:8 in
        let damaged = ablate_rank_frame (Trace_io.to_framed trace) ~rank:3 in
        with_temp_file damaged (fun path ->
            match run_pipeline ~recovery:`Best_effort path with
            | Error e -> Alcotest.fail (Benchgen.Pipeline.error_to_string e)
            | Ok (artifact, warnings) ->
                let has p = List.exists p warnings in
                Alcotest.(check bool)
                  "W_salvaged" true
                  (has (function Benchgen.Pipeline.W_salvaged _ -> true | _ -> false));
                Alcotest.(check bool)
                  "W_truncated_frontier" true
                  (has (function
                    | Benchgen.Pipeline.W_truncated_frontier _ -> true
                    | _ -> false));
                (* the artifact must parse and replay *)
                let report = artifact.Benchgen.Pipeline.report in
                let program = Conceptual.Parse.program report.text in
                let res =
                  Conceptual.Lower.run ~max_events:500_000
                    ~nranks:(Trace.nranks trace) program
                in
                ignore res));
    t "v2 framing keeps neighborhood participant sets and offset vectors"
      (fun () ->
        (* seq_sig compares kind/peer/bytes/tag/comm but not parts/vec —
           this test pins the neighborhood metadata itself: a traced
           partial-participant exchange must reload with the same
           participant set and offset vector, and re-save byte-stably. *)
        let prog (ctx : Mpisim.Mpi.ctx) =
          if ctx.rank mod 2 = 0 then begin
            let parts = [| 0; 2 |] in
            let me = ctx.rank / 2 in
            Mpisim.Mpi.neighbor_alltoall ~parts ctx
              ~neighbors:[| parts.((me + 1) mod 2) |]
              ~bytes_per_neighbor:48
          end;
          Mpisim.Mpi.barrier ctx;
          Mpisim.Mpi.finalize ctx
        in
        let trace, _ = Tracer.trace_run ~nranks:4 prog in
        let bytes = Trace_io.to_framed trace in
        let trace' = Trace_io.of_string bytes in
        Alcotest.(check string)
          "byte-stable" bytes
          (Trace_io.to_framed trace');
        let found = ref None in
        Tnode.iter_leaves
          (fun e ->
            if e.Event.kind = Event.E_neighbor_alltoall then found := Some e)
          (Trace.nodes trace');
        match !found with
        | None -> Alcotest.fail "neighbor event lost in the round trip"
        | Some e ->
            Alcotest.(check (option (array int)))
              "participant set survives" (Some [| 0; 2 |])
              (Option.map Array.copy e.Event.parts);
            Alcotest.(check (option (array int)))
              "offset vector survives" (Some [| 1 |])
              (Option.map Array.copy e.Event.vec);
            Alcotest.(check int) "payload" 48 e.Event.bytes);
    t "corruption campaign: typed outcomes only, salvaged traces replay"
      (fun () ->
        let s =
          Check.Corrupt.run
            { Check.Corrupt.default with seeds = 50; nranks = 4 }
        in
        List.iter
          (fun (v : Check.Corrupt.violation) ->
            Alcotest.fail
              (Printf.sprintf "seed %d app %s %s: %s" v.v_seed v.v_app
                 v.v_mutation v.v_what))
          s.violations;
        Alcotest.(check bool) "ran cases" true (s.total.cases > 50);
        Alcotest.(check bool)
          "every salvaged-and-generated case replayed" true
          (s.total.generated = s.total.replayed));
  ]

(* ------------------------------------------------------------------ *)
(* Format v3: the longest run of intact node frames                     *)

let take k l = List.filteri (fun i _ -> i < k) l

(* Truncate the v3 file at every frame boundary: salvage must keep
   exactly the node frames before the cut (none survive a cut before
   nodes:0, which is unrecoverable) and report each rank's loss as the
   manifest's count minus what the kept frames hold. *)
let v3_boundary_sweep name =
  t (name ^ " v3 salvage at every frame boundary keeps the frames before it")
    (fun () ->
      let trace = app_trace name in
      let nranks = Trace.nranks trace in
      let bytes = Trace_io.to_string trace in
      let full = Trace_io.rank_event_counts ~nranks (Trace.nodes trace) in
      List.iter
        (fun pos ->
          let kept =
            List.length
              (List.filter
                 (fun b -> b < pos && String.sub bytes b 12 = "frame nodes:")
                 (frame_boundaries bytes))
          in
          match Salvage.of_string (String.sub bytes 0 pos) with
          | Error m ->
              if kept > 0 then Alcotest.failf "cut@%d: %s" pos m
          | Ok (trace', report) ->
              Alcotest.(check int) (Printf.sprintf "cut@%d: v3" pos) 3 report.format_version;
              let expect = Trace.with_nodes trace (take kept (Trace.nodes trace)) in
              Alcotest.(check string)
                (Printf.sprintf "cut@%d keeps %d node frames" pos kept)
                (Trace_io.to_text expect) (Trace_io.to_text trace');
              let got = Trace_io.rank_event_counts ~nranks (Trace.nodes expect) in
              List.iter
                (fun (rr : Salvage.rank_recovery) ->
                  Alcotest.(check (option int))
                    (Printf.sprintf "cut@%d rank %d lost" pos rr.rr_rank)
                    (Some (full.(rr.rr_rank) - got.(rr.rr_rank)))
                    rr.rr_events_lost)
                report.per_rank;
              Alcotest.(check bool)
                (Printf.sprintf "cut@%d degraded" pos)
                true (Salvage.is_degraded report))
        (frame_boundaries bytes))

let v3_tests =
  [
    t "v3 salvage of an intact file is a clean report" (fun () ->
        let trace = app_trace "lu" in
        match Salvage.of_string (Trace_io.to_string trace) with
        | Error m -> Alcotest.fail m
        | Ok (trace', report) ->
            Alcotest.(check int) "v3" 3 report.format_version;
            Alcotest.(check string)
              "same trace" (Trace_io.to_string trace) (Trace_io.to_string trace');
            Alcotest.(check bool) "not degraded" false (Salvage.is_degraded report);
            Alcotest.(check (option int)) "nothing lost" (Some 0)
              (Salvage.events_lost report));
    t "v3 salvage stops at a damaged node frame" (fun () ->
        (* a bit flip in nodes:3 loses it and every later frame, even
           though those are intact *)
        let trace = app_trace "lu" in
        let bytes = Trace_io.to_string trace in
        let at =
          List.find
            (fun b -> String.sub bytes b 14 = "frame nodes:3 ")
            (frame_boundaries bytes)
        in
        let b = Bytes.of_string bytes in
        let i = String.index_from bytes at '\n' + 5 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
        match Salvage.of_string (Bytes.to_string b) with
        | Error m -> Alcotest.fail m
        | Ok (trace', report) ->
            Alcotest.(check int) "one frame dropped" 1 report.frames_dropped;
            Alcotest.(check int) "three node frames kept" 3
              (List.length (Trace.nodes trace'));
            Alcotest.(check bool) "losses known" true
              (Salvage.events_lost report <> None));
    t "v3 salvage without its manifest keeps the nodes, losses unknown"
      (fun () ->
        let trace = app_trace "lu" in
        let bytes = Trace_io.to_string trace in
        let bs = frame_boundaries bytes in
        let start = List.find (fun b -> String.sub bytes b 15 = "frame manifest ") bs in
        let stop = List.find (fun b -> b > start) bs in
        let damaged =
          String.sub bytes 0 start ^ String.sub bytes stop (String.length bytes - stop)
        in
        match Salvage.of_string damaged with
        | Error m -> Alcotest.fail m
        | Ok (trace', report) ->
            Alcotest.(check string)
              "every node" (Trace_io.to_text trace) (Trace_io.to_text trace');
            Alcotest.(check (option int)) "losses" (Some 0) (Salvage.events_lost report));
    t "best-effort generates from a truncated v3 file" (fun () ->
        let trace = app_trace "cg" ~nranks:8 in
        let bytes = Trace_io.to_string trace in
        let cut = String.sub bytes 0 (String.length bytes * 6 / 10) in
        with_temp_file cut (fun path ->
            match run_pipeline ~recovery:`Best_effort path with
            | Error e -> Alcotest.fail (Benchgen.Pipeline.error_to_string e)
            | Ok (artifact, warnings) ->
                Alcotest.(check bool)
                  "W_salvaged" true
                  (List.exists
                     (function Benchgen.Pipeline.W_salvaged _ -> true | _ -> false)
                     warnings);
                ignore
                  (Conceptual.Lower.run ~max_events:500_000
                     ~nranks:(Trace.nranks trace)
                     (Conceptual.Parse.program artifact.Benchgen.Pipeline.report.text))));
  ]

(* A salvage note is strict loading's message, file line and all: a bad
   dt= field on line 6 of a v1 file, in rank 3's v2 frame and in the first
   v3 node frame. *)
let notes_test =
  t "salvage notes a bad dt= field with strict loading's message" (fun () ->
      let ring = app_trace "ring" ~nranks:4 in
      let bad_dt = Test_trace_io.map_dt (fun _ -> "2;nan;1;3;1") in
      let v1 =
        String.split_on_char '\n' (Trace_io.to_text ring)
        |> List.mapi (fun i l -> if i = 5 then bad_dt l else l)
        |> String.concat "\n"
      in
      let in_frame ~version kind bytes =
        Test_trace_io.framed ~version
          (Test_trace_io.map_frame kind bad_dt (Test_trace_io.frames_of bytes))
      in
      List.iter
        (fun (where, bytes) ->
          match Trace_io.of_string bytes with
          | _ -> Alcotest.failf "%s: strict loading accepted a bad dt field" where
          | exception Trace_io.Format_error msg -> (
              Alcotest.(check bool)
                msg true
                (Test_fault.contains ~sub:(where ^ ": bad dt field") msg);
              match Salvage.of_string bytes with
              | Error m -> Alcotest.fail m
              | Ok (_, report) -> Alcotest.(check (list string)) where [ msg ] report.notes))
        [
          ("line 6", v1);
          ("frame rank:3: line 29", in_frame ~version:2 "rank:3" (Trace_io.to_framed ring));
          ("frame nodes:0: line 12", in_frame ~version:3 "nodes:0" (Trace_io.to_string ring));
        ])

(* A garbled frame header loses its frame: the scan resyncs at the next
   header and counts the skipped frame as seen and dropped.  A junk line
   straight before a header skips nothing, so it costs no frame. *)
let garbled_header_test =
  t "a frame header without its frame prefix counts as a dropped frame" (fun () ->
      let lines = String.split_on_char '\n' (Trace_io.to_string (app_trace ~nranks:4 "ring")) in
      let edit f = String.concat "\n" (List.concat (List.mapi f lines)) in
      let garbled =
        edit (fun i l ->
            [ (if i = 1 then "fr?me" ^ String.sub l 5 (String.length l - 5) else l) ])
      in
      let junk =
        edit (fun _ l -> if String.starts_with ~prefix:"frame comms " l then [ "junk"; l ] else [ l ])
      in
      List.iter
        (fun (what, bytes, seen, dropped) ->
          match Salvage.of_string bytes with
          | Error m -> Alcotest.fail m
          | Ok (_, report) ->
              Alcotest.(check (pair int int))
                (what ^ ": frames seen, dropped") (seen, dropped)
                (report.frames_seen, report.frames_dropped))
        [ ("garbled header", garbled, 5, 1); ("junk line", junk, 5, 0) ])

let suite =
  unit_tests
  @ List.map framed_roundtrip all_app_names
  @ List.map migration all_app_names
  @ List.map v3_boundary_sweep [ "bt"; "is"; "lu"; "mg" ]
  @ v3_tests @ [ notes_test; garbled_header_test ]
