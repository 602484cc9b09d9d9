(* Wall-clock spans recorded from benchmark code around calls into each
   layer (the traced run only).  Spans go to an {!Obs.Exporter} recorder
   with microsecond timestamps since the run started, and into per-name
   totals of wall time, self time (span minus its children) and allocated
   words, which the traced run turns into per-layer metrics pass by pass.
   Track 0 holds the per-job roots that mirror what users run, track 1
   the [diag] roots for calls users do not pay for, tracks 2+ the serve
   connections. *)

type acc = {
  mutable total_s : float;
  mutable self_s : float;
  mutable self_w : float;  (** allocated words, children excluded *)
  mutable count : int;
}

type frame = {
  t0 : float;
  w0 : float;
  mutable child_s : float;
  mutable child_w : float;
}

type t = {
  recorder : Obs.Exporter.recorder;
  sink : Obs.Sink.t;
  origin : float;
  stacks : (int, frame list) Hashtbl.t;
  totals : (string, acc) Hashtbl.t;
}

let create () =
  let recorder = Obs.Exporter.recorder () in
  {
    recorder;
    sink = Obs.Exporter.sink recorder;
    origin = Util.Clock.monotonic_s ();
    stacks = Hashtbl.create 4;
    totals = Hashtbl.create 32;
  }

let pid = Obs.Sink.pipeline_pid

let allocated_words () =
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

let ts p t = Float.round ((t -. p.origin) *. 1e6)

let acc p name =
  match Hashtbl.find_opt p.totals name with
  | Some a -> a
  | None ->
      let a = { total_s = 0.; self_s = 0.; self_w = 0.; count = 0 } in
      Hashtbl.replace p.totals name a;
      a

(* [span prof name f] runs [f]; with a recorder it is timed as one span
   on [tid], nested under whatever span is open on that track. *)
let span prof ?(tid = 0) ?(args = []) name f =
  match prof with
  | None -> f ()
  | Some p ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt p.stacks tid) in
      let t0 = Util.Clock.monotonic_s () in
      Obs.Sink.span_begin p.sink ~pid ~tid ~cat:"bench" ~args ~ts:(ts p t0) name;
      let fr = { t0; w0 = allocated_words (); child_s = 0.; child_w = 0. } in
      Hashtbl.replace p.stacks tid (fr :: stack);
      Fun.protect f ~finally:(fun () ->
          let dw = allocated_words () -. fr.w0 in
          let t1 = Util.Clock.monotonic_s () in
          let dt = t1 -. fr.t0 in
          Hashtbl.replace p.stacks tid stack;
          (match stack with
          | parent :: _ ->
              parent.child_s <- parent.child_s +. dt;
              parent.child_w <- parent.child_w +. dw
          | [] -> ());
          let a = acc p name in
          a.total_s <- a.total_s +. dt;
          a.self_s <- a.self_s +. (dt -. fr.child_s);
          a.self_w <- a.self_w +. (dw -. fr.child_w);
          a.count <- a.count + 1;
          Obs.Sink.span_end p.sink ~pid ~tid ~ts:(ts p t1) name)

(* A span whose interval was measured elsewhere (a serve job, from submit
   to its terminal response); it is exported but not totalled. *)
let interval p ~tid ?(args = []) name ~t0 ~t1 =
  Obs.Sink.span_begin p.sink ~pid ~tid ~cat:"serve" ~args ~ts:(ts p t0) name;
  Obs.Sink.span_end p.sink ~pid ~tid ~ts:(ts p t1) name

(* The totals since the last call, by span name; resets them. *)
let take p =
  let l = Hashtbl.fold (fun k a l -> (k, a) :: l) p.totals [] in
  Hashtbl.reset p.totals;
  l

let chrome_json p = Obs.Exporter.to_chrome p.recorder
