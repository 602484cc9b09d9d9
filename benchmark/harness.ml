(* What every workload shares: the run context, the tally of operations
   and check violations, the timed set-up and pass loops, per-layer
   metrics from span totals, and peak-memory probes. *)

type ctx = {
  seed : int;
  seconds : float;  (** measurement budget; passes stop before overrunning it *)
  smoke : bool;  (** toy sizes, one pass, nothing timed is asserted *)
  prof : Prof.t option;  (** [Some] in the traced run *)
  out : string;  (** directory for fixtures, logs and results *)
  cli : string;  (** the benchgen executable, for serve *)
}

let now = Util.Clock.monotonic_s

let find_app name =
  match Apps.Registry.find name with
  | Some a -> a
  | None -> failwith ("no registered application " ^ name)

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Operations and check violations                                     *)

type tally = {
  mutable attempted : int;
  mutable failed : int;  (** operations with an unexpected outcome *)
  mutable errors : string list;  (** every violation, newest first *)
}

let tally () = { attempted = 0; failed = 0; errors = [] }

let violation t fmt = Printf.ksprintf (fun msg -> t.errors <- msg :: t.errors) fmt

(* One operation: counted as attempted, and as failed when any check on
   it reports a violation. *)
let operation t f =
  t.attempted <- t.attempted + 1;
  let before = List.length t.errors in
  f ();
  if List.length t.errors > before then t.failed <- t.failed + 1

(* Remember the first value seen under [key]; later passes must repeat it
   exactly. *)
let same_every_pass t (memo : (string, string) Hashtbl.t) key v =
  match Hashtbl.find_opt memo key with
  | None -> Hashtbl.replace memo key v
  | Some v0 when v0 = v -> ()
  | Some v0 -> violation t "%s changed between passes: %s, then %s" key v0 v

(* ------------------------------------------------------------------ *)
(* Set-up and pass loops                                               *)

let setups = 5

(* Set up [setups] times and keep the last; earlier ones are torn down.
   Returns the median set-up time, so work moved into set-up shows. *)
let setup_median ~setup ~teardown =
  let rec go i times =
    let v, dt = timed setup in
    if i = setups then (v, Stats.median (dt :: times))
    else begin
      teardown v;
      go (i + 1) (dt :: times)
    end
  in
  go 1 []

(* Run passes until the next one would overrun [ctx.seconds]; at least
   three untraced or two traced passes, one in smoke mode. *)
let passes ctx pass =
  let min_passes = if ctx.smoke then 1 else if ctx.prof <> None then 2 else 3 in
  let t0 = now () in
  let rec go i acc =
    let r, dt = timed (fun () -> pass i) in
    Printf.printf "  pass %d: %.3f s wall\n%!" i dt;
    let acc = r :: acc in
    if i + 1 >= min_passes && now () -. t0 +. dt > ctx.seconds then List.rev acc
    else go (i + 1) acc
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Per-layer metrics from span totals                                  *)

(* Layers reported as [<name>_s] and [<name>.alloc_mw]: the self time and
   allocation of the span of that name.  Derived ones follow. *)
let span_layers =
  [
    "mpisim.sim"; "scalatrace.merge"; "scalatrace.load"; "scalatrace.save";
    "core.align_check"; "core.align"; "core.wildcard_check"; "core.wildcard";
    "core.wildcard_traversal"; "replay.replay"; "core.codegen";
    "conceptual.pretty"; "conceptual.lower"; "mpip.original";
  ]

(* One pass's totals (from {!Prof.take}) as per-layer values. *)
let layer_values totals =
  let get name =
    match List.assoc_opt name totals with
    | Some (a : Prof.acc) -> (a.self_s, a.self_w /. 1e6, a.total_s)
    | None -> (0., 0., 0.)
  in
  let pair name (s, mw) = [ (name ^ "_s", s); (name ^ ".alloc_mw", mw) ] in
  let diff (s1, w1, _) (s2, w2, _) = (s1 -. s2, w1 -. w2) in
  List.concat_map (fun n -> let s, w, _ = get n in pair n (s, w)) span_layers
  @ [
      ( "scalatrace.record_self_s",
        fst (diff (get "scalatrace.record") (get "mpisim.sim")) );
      ( "scalatrace.record.alloc_mw",
        snd (diff (get "scalatrace.record") (get "mpisim.sim")) );
    ]
  @ pair "core.wildcard_validate"
      (diff (get "core.wildcard") (get "core.wildcard_traversal"))

let root_total totals =
  match List.assoc_opt "job" totals with Some (a : Prof.acc) -> a.total_s | None -> 0.

let count_values (c : Mirror.counts) =
  [
    ("mpisim.events", float_of_int c.events);
    ("scalatrace.rsds", float_of_int c.rsds);
    ("core.align_runs", float_of_int c.align_runs);
    ("core.wildcard_fallbacks", float_of_int c.fallbacks);
    ("conceptual.statements", float_of_int c.statements);
    ("conceptual.lower_events", float_of_int c.lower_events);
  ]

(* serve-mix reports these per job class; the other workloads bypass the
   serve tier and report 0. *)
let serve_classes = [ "app"; "fixture"; "garbage"; "truncated" ]

let serve_layer c field = Printf.sprintf "serve.%s.%s" c field

let serve_layers_bypassed =
  List.concat_map
    (fun c ->
      List.map
        (fun f -> (serve_layer c f, 0.))
        [ "accept_ms_p50"; "service_ms_p50"; "inproc_ms_p50"; "overhead_ms_p50"; "attempts"; "retries" ])
    serve_classes

(* Set-up's per-layer cost, averaged over the set-ups (traced run only). *)
let setup_layers ctx =
  match ctx.prof with
  | None -> []
  | Some p ->
      List.map (fun (k, v) -> (k, v /. float_of_int setups)) (layer_values (Prof.take p))

(* The traced run's per-layer values: each metric's median over passes of
   the per-pass (name, value) lists, plus set-up's share. *)
let per_layer_values ~setup (per_pass : (string * float) list list) =
  match per_pass with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (name, _) ->
          ( name,
            Stats.median (List.filter_map (List.assoc_opt name) per_pass)
            +. Option.value ~default:0. (List.assoc_opt name setup) ))
        first

(* ------------------------------------------------------------------ *)
(* Peak memory                                                         *)

(* VmHWM (peak resident set) of [pid], in MiB; [None] once it has exited. *)
let peak_rss_mib pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error _ -> None
  | lines ->
      List.find_map
        (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
        lines

let children pid =
  let path = Printf.sprintf "/proc/%d/task/%d/children" pid pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> []
  | s -> List.filter_map int_of_string_opt (String.split_on_char ' ' (String.trim s))

let self_peak_rss_mib () =
  match peak_rss_mib "self" with Some m -> m | None -> failwith "no /proc/self/status"

(* [isolated f] runs [f] in a child forked from this process and returns
   its result with the child's peak resident set in MiB. *)
let isolated f =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let v = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr w in
      Marshal.to_channel oc (v, self_peak_rss_mib ()) [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      Fun.protect
        ~finally:(fun () ->
          close_in_noerr ic;
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          let rec reap () =
            try ignore (Unix.waitpid [] pid) with
            | Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
            | Unix.Unix_error (Unix.ECHILD, _, _) -> ()
          in
          reap ())
        (fun () ->
          match Marshal.from_channel ic with
          | Ok v, rss -> Ok (v, rss)
          | Error msg, _ -> Error msg
          | exception End_of_file -> Error "the child process died")

(* ------------------------------------------------------------------ *)
(* Files                                                               *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let file_size path = (Unix.stat path).Unix.st_size
