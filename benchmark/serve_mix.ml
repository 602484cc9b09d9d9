(* serve-mix: a closed loop against the real [benchgen serve] over a
   Unix socket.  Two connections each keep one job in flight; a pass is a
   fixed multiset of jobs in a seeded order:

     96 registry app jobs (12 apps x 16/64 ranks x class S/W, twice)
     54 jobs on valid v2 trace fixtures (18 files, three times)
      8 garbage files with max_retries 0, which must fail as trace_format
      1 truncated trace under the default policy, which must escalate to
        best-effort and succeed on its third attempt with a salvaged
        warning

   Jobs are small, so the per-job costs of the pool, the workers and the
   protocol dominate.  The traced run also runs every job of the pass in
   this process through [Pipeline.run] (the in-process baseline) and
   through the layer mirror. *)

open Harness
module P = Serve.Protocol
module Pipeline = Benchgen.Pipeline

type cls = App | Fixture | Garbage | Truncated

let cls_name = function
  | App -> "app"
  | Fixture -> "fixture"
  | Garbage -> "garbage"
  | Truncated -> "truncated"

type source = From_app of string * int * string | From_file of string

type spec = {
  cls : cls;
  source : source;
  extra : string;  (** extra submit fields, e.g. ["max_retries":0] *)
}

let submit_line id s =
  let q = Obs.Json.to_string in
  let src =
    match s.source with
    | From_app (app, nranks, c) ->
        Printf.sprintf {|"app":%s,"nranks":%d,"cls":%s|} (q (Obs.Json.Str app)) nranks
          (q (Obs.Json.Str c))
    | From_file path -> Printf.sprintf {|"trace":%s|} (q (Obs.Json.Str path))
  in
  Printf.sprintf {|{"op":"submit","id":%s,%s%s}|} (q (Obs.Json.Str id)) src s.extra

let key s =
  match s.source with
  | From_app (app, n, c) -> Printf.sprintf "%s-%d-%s" app n c
  | From_file path -> path

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)

let registry_apps =
  [ "bt"; "cg"; "ep"; "ft"; "is"; "lu"; "mg"; "sp"; "sweep3d"; "ring"; "stencil2d"; "butterfly" ]

let fixture_apps =
  List.map (fun a -> (a, 16)) (registry_apps @ [ "amg"; "kripke"; "laghos" ])
  @ [ ("cg", 64); ("lu", 64); ("mg", 64) ]

type fixtures = {
  valid : string list;
  garbage : string list;
  truncated : string;
}

let trace_app name wanted =
  let app = find_app name in
  let nranks = Apps.Registry.fit_nranks app ~wanted in
  fst
    (Scalatrace.Tracer.trace_run ~nranks
       (app.program ~cls:Apps.Params.S ()))

let make_fixtures ctx dir =
  let save trace path =
    Prof.span ctx.prof "scalatrace.save" (fun () -> Scalatrace.Trace_io.save trace ~path)
  in
  let apps = if ctx.smoke then List.filteri (fun i _ -> i < 6) fixture_apps else fixture_apps in
  let valid =
    List.map
      (fun (name, wanted) ->
        let path = Filename.concat dir (Printf.sprintf "%s-%d.trace" name wanted) in
        save (trace_app name wanted) path;
        path)
      apps
  in
  let rng = Util.Rng.create ~seed:ctx.seed in
  let garbage =
    List.init
      (if ctx.smoke then 1 else 8)
      (fun i ->
        let path = Filename.concat dir (Printf.sprintf "garbage-%d.trace" i) in
        write_file path
          (String.init (512 + Util.Rng.int rng 7680) (fun _ -> Char.chr (Util.Rng.int rng 256)));
        path)
  in
  (* cut inside a rank frame: strict loading fails, salvage cannot align
     what survives, best-effort truncates to the last consistent frontier *)
  let truncated = Filename.concat dir "truncated.trace" in
  let text = Scalatrace.Trace_io.to_framed (trace_app "cg" 8) in
  write_file truncated (String.sub text 0 (String.length text * 6 / 10));
  { valid; garbage; truncated }

let pass_specs ctx f =
  let app_jobs =
    List.concat_map
      (fun app ->
        List.map
          (fun (n, c) -> { cls = App; source = From_app (app, n, c); extra = "" })
          (if ctx.smoke then [ (16, "S") ] else [ (16, "S"); (16, "W"); (64, "S"); (64, "W") ]))
      registry_apps
  in
  let fixture_jobs =
    List.map (fun p -> { cls = Fixture; source = From_file p; extra = "" }) f.valid
  in
  let rep k l = List.concat (List.init k (fun _ -> l)) in
  (if ctx.smoke then app_jobs @ fixture_jobs else rep 2 app_jobs @ rep 3 fixture_jobs)
  @ List.map
      (fun p -> { cls = Garbage; source = From_file p; extra = {|,"max_retries":0|} })
      f.garbage
  @ [ { cls = Truncated; source = From_file f.truncated; extra = "" } ]

(* ------------------------------------------------------------------ *)
(* The server and its connections                                      *)

type conn = { fd : Unix.file_descr; buf : Buffer.t }

type server = {
  pid : int;
  stdin_w : Unix.file_descr;  (** held open; the server reads stdin too *)
  metrics : string;
  conns : conn array;
}

let chunk = Bytes.create 65536

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let send c line = write_all c.fd (line ^ "\n") 0

(* Complete lines received so far on [c] (blocks for one read). *)
let read_lines c =
  let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if n = 0 then failwith "serve: connection closed by the server";
  Buffer.add_subbytes c.buf chunk 0 n;
  let s = Buffer.contents c.buf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
      Buffer.clear c.buf;
      Buffer.add_string c.buf (String.sub s (last + 1) (String.length s - last - 1));
      String.split_on_char '\n' (String.sub s 0 last)

let rec select_read fds timeout =
  match Unix.select fds [] [] timeout with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_read fds timeout

(* Read from [c] until [pick] accepts a response. *)
let rec await c what pick =
  match select_read [ c.fd ] 60. with
  | [] -> failwith ("serve: no " ^ what ^ " within 60 s")
  | _ -> (
      match List.find_map (fun l -> pick (P.response_of_line l)) (read_lines c) with
      | Some v -> v
      | None -> await c what pick)

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go tries =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { fd; buf = Buffer.create 4096 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
        Unix.sleepf 0.01;
        go (tries - 1)
  in
  go 2000

(* Wait for [pid]; after [grace] seconds escalate to SIGKILL. *)
let reap pid ~grace =
  let deadline = now () +. grace in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        go ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        snd (Unix.waitpid [] pid)
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let start ctx dir =
  let sock = Filename.concat dir "serve.sock" and metrics = Filename.concat dir "metrics.jsonl" in
  let log =
    Unix.openfile (Filename.concat dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  in
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process ctx.cli
      [|
        ctx.cli; "serve"; "--socket"; sock; "--workers"; "2"; "--seed"; string_of_int ctx.seed;
        "--metrics-out"; metrics;
      |]
      stdin_r log log
  in
  Unix.close stdin_r;
  Unix.close log;
  match
    let conns = [| connect sock; connect sock |] in
    send conns.(0) {|{"op":"health"}|};
    await conns.(0) "health reply" (function P.Health_report _ -> Some () | _ -> None);
    conns
  with
  | conns -> { pid; stdin_w; metrics; conns }
  | exception e ->
      Unix.close stdin_w;
      Unix.kill pid Sys.sigterm;
      ignore (reap pid ~grace:10.);
      raise e

let close_conns s =
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) s.conns;
  try Unix.close s.stdin_w with Unix.Unix_error _ -> ()

(* The explicit drain: closing stdin does not drain a socket server. *)
let drain s =
  send s.conns.(0) {|{"op":"drain"}|};
  await s.conns.(0) "drained summary" (function P.Drained _ -> Some () | _ -> None);
  close_conns s;
  reap s.pid ~grace:30.

(* Last resort when the run itself failed: SIGTERM drains gracefully. *)
let stop s =
  close_conns s;
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (reap s.pid ~grace:10.)

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)

type sample = {
  s_cls : cls;
  latency : float;
  accept : float;
  service : float;
  attempts : int;
  statements : int;  (** 0 unless ok *)
}

type flight = { spec : spec; id : string; t_submit : float; mutable t_accept : float }

let check tally memo (sp : spec) id resp =
  let expect_ok ~attempts:want (info : P.ok_info) attempts =
    if attempts <> want then violation tally "%s: %d attempts, expected %d" id attempts want;
    if info.ok_statements <= 0 then violation tally "%s: empty program" id;
    same_every_pass tally memo (key sp) (string_of_int info.ok_statements)
  in
  match (sp.cls, resp) with
  | (App | Fixture), P.Result_ok { attempts; info; _ } -> expect_ok ~attempts:1 info attempts
  | Truncated, P.Result_ok { attempts; info; _ } ->
      expect_ok ~attempts:3 info attempts;
      if info.ok_recovery <> "best-effort" then
        violation tally "%s: recovered at %s, expected best-effort" id info.ok_recovery;
      if not (List.mem_assoc "salvaged" info.ok_warnings) then
        violation tally "%s: no salvaged warning" id
  | Garbage, P.Result_error { attempts; error; _ } ->
      if error.e_tag <> "trace_format" then
        violation tally "%s: error %s, expected trace_format" id error.e_tag;
      if attempts <> 1 then violation tally "%s: %d attempts, expected 1" id attempts
  | _, r -> violation tally "%s (%s): unexpected response %s" id (cls_name sp.cls) (P.response_to_line r)

let run_pass ctx tally memo s ~pass specs =
  let n = Array.length specs in
  let flights = Array.make (Array.length s.conns) None in
  let next = ref 0 and finished = ref 0 and samples = ref [] in
  let submit ci =
    if !next < n then begin
      let spec = specs.(!next) in
      let id = Printf.sprintf "p%d-%d" pass !next in
      incr next;
      flights.(ci) <- Some { spec; id; t_submit = now (); t_accept = nan };
      send s.conns.(ci) (submit_line id spec)
    end
  in
  let terminal ci (f : flight) resp =
    let t = now () in
    operation tally (fun () -> check tally memo f.spec f.id resp);
    let attempts, statements =
      match resp with
      | P.Result_ok { attempts; info; _ } -> (attempts, info.ok_statements)
      | P.Result_error { attempts; _ } -> (attempts, 0)
      | _ -> (0, 0)
    in
    samples :=
      {
        s_cls = f.spec.cls;
        latency = t -. f.t_submit;
        accept = f.t_accept -. f.t_submit;
        service = t -. f.t_accept;
        attempts;
        statements;
      }
      :: !samples;
    Option.iter
      (fun p ->
        Prof.interval p ~tid:(2 + ci)
          ~args:[ ("id", Obs.Sink.A_str f.id); ("class", Obs.Sink.A_str (cls_name f.spec.cls)) ]
          "serve.job" ~t0:f.t_submit ~t1:t)
      ctx.prof;
    incr finished;
    flights.(ci) <- None;
    submit ci
  in
  let handle ci line =
    match (P.response_of_line line, flights.(ci)) with
    | exception Obs.Json.Parse_error _ -> violation tally "untyped response line: %s" line
    | P.Accepted { id; _ }, Some f when id = f.id -> f.t_accept <- now ()
    | ((P.Result_ok { id; _ } | P.Result_error { id; _ }) as r), Some f when id = f.id ->
        terminal ci f r
    | (P.Rejected _ as r), Some f -> terminal ci f r
    | r, _ -> violation tally "response for no job in flight: %s" (P.response_to_line r)
  in
  let t0 = now () in
  Array.iteri (fun ci _ -> submit ci) s.conns;
  while !finished < n do
    let busy = List.filter (fun ci -> flights.(ci) <> None) (List.init (Array.length s.conns) Fun.id) in
    let fds = List.map (fun ci -> s.conns.(ci).fd) busy in
    match select_read fds 120. with
    | [] -> failwith "serve: no response within 120 s"
    | ready ->
        List.iter
          (fun ci -> if List.mem s.conns.(ci).fd ready then List.iter (handle ci) (read_lines s.conns.(ci)))
          busy
  done;
  (now () -. t0, List.rev !samples)

(* ------------------------------------------------------------------ *)
(* The in-process baseline and mirror (traced run)                     *)

(* An app job's rank count and program, resolved as the server does. *)
let app_job name wanted c =
  let a = find_app name in
  (Apps.Registry.fit_nranks a ~wanted, a.program ~cls:(Option.get (Apps.Params.cls_of_string c)) ())

(* The same job through Pipeline.run here, attempt by attempt as the
   server's default policy escalates recovery. *)
let inproc sp id =
  let run recovery =
    let cfg = { Pipeline.default with name = Some id; recovery } in
    match sp.source with
    | From_app (name, wanted, c) ->
        let nranks, app = app_job name wanted c in
        Pipeline.run cfg (Pipeline.From_app { nranks; app })
    | From_file path -> Pipeline.run cfg (Pipeline.From_file path)
  in
  let levels = if sp.cls = Truncated then [ `Strict; `Salvage; `Best_effort ] else [ `Strict ] in
  let rec go = function
    | [] -> None
    | level :: rest -> (
        match run level with Ok (a, _) -> Some a.Pipeline.report.text | Error _ -> go rest)
  in
  timed (fun () -> go levels)

let mirror ctx tally counts sp id text =
  let prof = ctx.prof in
  let g, app =
    Mirror.job prof ~id (fun () ->
        match sp.source with
        | From_app (name, wanted, c) ->
            let nranks, app = app_job name wanted c in
            (Mirror.from_app prof counts ~id ~nranks app, Some (nranks, app))
        | From_file path -> (Mirror.from_file prof counts ~id path, None))
  in
  Mirror.diag prof ~id ?app g;
  if Some g.text <> text then
    violation tally "%s: the traced mirror generated a different program" id

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)

let run ctx tally =
  let dir = Filename.concat ctx.out "serve" in
  mkdir_p dir;
  let setup () =
    Prof.span ctx.prof "setup" (fun () ->
        let f = make_fixtures ctx dir in
        (f, start ctx dir))
  in
  let (fixtures, server), setup_s =
    setup_median ~setup ~teardown:(fun (_, s) -> ignore (drain s))
  in
  let setup_layers = setup_layers ctx in
  let base = Array.of_list (pass_specs ctx fixtures) in
  let memo = Hashtbl.create 64 in
  let rng = Util.Rng.create ~seed:ctx.seed in
  let drained = ref false and peak = ref 0. in
  Fun.protect ~finally:(fun () -> if not !drained then stop server) @@ fun () ->
  let pass i =
    let specs = Array.copy base in
    Util.Rng.shuffle rng specs;
    let wall, samples = run_pass ctx tally memo server ~pass:i specs in
    (* after one pass, so the figure does not depend on how many passes
       fit in the run *)
    if i = 0 then
      peak :=
        List.fold_left
          (fun m pid -> Float.max m (Option.value ~default:0. (peak_rss_mib (string_of_int pid))))
          0.
          (server.pid :: children server.pid);
    let inproc_samples, layers =
      match ctx.prof with
      | None -> ([], [])
      | Some p ->
          let counts = Mirror.new_counts () in
          let mirrored = ref 0. in
          let inproc_samples =
            List.mapi
              (fun k sp ->
                let id = Printf.sprintf "inproc-p%d-%d" i k in
                let text, dt = inproc sp id in
                if sp.cls = App || sp.cls = Fixture then begin
                  mirrored := !mirrored +. dt;
                  mirror ctx tally counts sp id text
                end;
                (sp.cls, dt))
              (Array.to_list specs)
          in
          let totals = Prof.take p in
          ( inproc_samples,
            layer_values totals @ count_values counts
            @ [
                ("trace_overhead_pct", 100. *. (root_total totals -. !mirrored) /. !mirrored);
                ("fidelity.timing_error_pct", 0.);
              ] )
    in
    (wall, samples, inproc_samples, layers)
  in
  let passes = passes ctx pass in
  (match drain server with
  | Unix.WEXITED 0 -> ()
  | _ -> violation tally "serve did not exit cleanly after the drain");
  drained := true;
  In_channel.with_open_text server.metrics In_channel.input_lines
  |> List.iter (fun line ->
         match Obs.Metrics.line_of_string line with
         | "serve.pool.deaths", _, j -> (
             match Obs.Json.member "value" j with
             | Some (Obs.Json.Num 0.) -> ()
             | _ -> violation tally "serve reported worker deaths: %s" line)
         | _ -> ());
  let samples = List.concat_map (fun (_, s, _, _) -> s) passes in
  let ms f l = List.map (fun x -> 1000. *. f x) l in
  let first_samples = match passes with (_, s, _, _) :: _ -> s | [] -> [] in
  let end_to_end =
    [
      ("setup_s", setup_s);
      ("pass_s", Stats.median (List.map (fun (w, _, _, _) -> w) passes));
      ("latency_p50_ms", Stats.median (ms (fun s -> s.latency) samples));
      ("latency_tail_ms", Stats.percentile 0.98 (ms (fun s -> s.latency) samples));
      ("peak_rss_mb", !peak);
      ( "trace_bytes",
        float_of_int (List.fold_left (fun acc p -> acc + file_size p) 0 fixtures.valid) );
      ( "ncptl_statements",
        float_of_int (List.fold_left (fun acc s -> acc + s.statements) 0 first_samples) );
    ]
  in
  let per_layer =
    match ctx.prof with
    | None -> []
    | Some _ ->
        let of_cls c l = List.filter (fun s -> s.s_cls = c) l in
        let inproc = List.concat_map (fun (_, _, i, _) -> i) passes in
        let per_pass_sum c f =
          Stats.median
            (List.map
               (fun (_, s, _, _) -> float_of_int (List.fold_left (fun a x -> a + f x) 0 (of_cls c s)))
               passes)
        in
        let serve =
          List.concat_map
            (fun c ->
              let name = serve_layer (cls_name c) in
              let service = Stats.median (ms (fun s -> s.service) (of_cls c samples)) in
              let inproc_ms =
                Stats.median (List.filter_map (fun (c', dt) -> if c = c' then Some (1000. *. dt) else None) inproc)
              in
              [
                (name "accept_ms_p50", Stats.median (ms (fun s -> s.accept) (of_cls c samples)));
                (name "service_ms_p50", service);
                (name "inproc_ms_p50", inproc_ms);
                (name "overhead_ms_p50", service -. inproc_ms);
                (name "attempts", per_pass_sum c (fun s -> s.attempts));
                (name "retries", per_pass_sum c (fun s -> s.attempts - 1));
              ])
            [ App; Fixture; Garbage; Truncated ]
        in
        per_layer_values ~setup:setup_layers (List.map (fun (_, _, _, l) -> l) passes) @ serve
  in
  (List.length passes, end_to_end, per_layer)
