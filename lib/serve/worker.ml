module Pipeline = Benchgen.Pipeline

(* Marshaled parent -> child.  Only immediate data: the submit and the
   recovery level are closure-free by construction. *)
type request = { rq_sub : Protocol.submit; rq_recovery : Pipeline.recovery }

type t = {
  wid : int;
  pid : int;
  to_child : Unix.file_descr;
  from_child : Unix.file_descr;
  rbuf : Buffer.t;
  mutable dead : bool;
}

let pid t = t.pid
let wid t = t.wid
let fd t = t.from_child
let pipe_fds t = [ t.to_child; t.from_child ]

(* ------------------------------------------------------------------ *)
(* Framing: Marshal's own header carries the payload length, so the
   stream needs no extra length prefix — read the header, then exactly
   [data_size] more bytes. *)

let write_value fd v =
  let payload = Marshal.to_bytes v [] in
  let rec go off =
    if off < Bytes.length payload then
      match Unix.write fd payload off (Bytes.length payload - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Child side: blocking read of one marshaled value; [None] on EOF
   (including EOF mid-value — the parent is gone either way). *)
let read_value_blocking fd =
  let rec read_exact buf off len =
    if len = 0 then true
    else
      match Unix.read fd buf off len with
      | 0 -> false
      | n -> read_exact buf (off + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_exact buf off len
  in
  let hdr = Bytes.create Marshal.header_size in
  if not (read_exact hdr 0 Marshal.header_size) then None
  else begin
    let dlen = Marshal.data_size hdr 0 in
    let payload = Bytes.create (Marshal.header_size + dlen) in
    Bytes.blit hdr 0 payload 0 Marshal.header_size;
    if not (read_exact payload Marshal.header_size dlen) then None
    else Some (Marshal.from_bytes payload 0)
  end

(* ------------------------------------------------------------------ *)
(* The attempt and the child loop                                      *)

let attempt (sub : Protocol.submit) ~recovery : Pool.attempt_outcome =
  let non_retryable tag detail =
    Pool.A_error
      { Protocol.e_tag = tag; e_path = None; e_retryable = false;
        e_detail = detail }
  in
  let run_pipeline ?path cfg source =
    match Pipeline.run cfg source with
    | Error e -> Pool.A_error (Protocol.error_of_gen_error ?path e)
    | Ok (artifact, warnings) -> (
        let report = artifact.Pipeline.report in
        let write out =
          Out_channel.with_open_text out (fun oc ->
              Out_channel.output_string oc report.Pipeline.text)
        in
        match Option.iter write sub.sub_out with
        | exception Sys_error msg ->
            Pool.A_error
              (Protocol.error_of_gen_error ?path:sub.sub_out (Pipeline.E_io msg))
        | () ->
            Pool.A_ok
              {
                Protocol.ok_statements = report.Pipeline.statements;
                ok_final_rsds = report.Pipeline.final_rsds;
                (* overwritten by the pool with the attempt's level *)
                ok_recovery = Pipeline.recovery_to_string recovery;
                ok_warnings =
                  List.map
                    (fun w ->
                      (Pipeline.warning_tag w, Pipeline.warning_to_string w))
                    warnings;
                ok_text =
                  (if sub.sub_emit_text then Some report.Pipeline.text
                   else None);
                ok_out = sub.sub_out;
              })
  in
  let cfg = { Pipeline.default with recovery; name = Some sub.sub_id } in
  match sub.sub_source with
  | Protocol.J_file path -> run_pipeline ~path cfg (Pipeline.From_file path)
  | Protocol.J_app { app; nranks; cls } -> (
      match Apps.Registry.find app with
      | None ->
          non_retryable "unknown_app"
            (Printf.sprintf "no registered application named %S" app)
      | Some a -> (
          match Apps.Params.cls_of_string cls with
          | None ->
              non_retryable "bad_class"
                (Printf.sprintf "unknown problem class %S (S|W|A|B|C)" cls)
          | Some cls ->
              let nranks = Apps.Registry.fit_nranks a ~wanted:nranks in
              run_pipeline cfg
                (Pipeline.From_app { nranks; app = a.program ~cls () })))

let child_loop rd wr : unit =
  let rec loop () =
    match (read_value_blocking rd : request option) with
    | None -> Unix._exit 0
    | Some { rq_sub; rq_recovery } ->
        let outcome =
          try attempt rq_sub ~recovery:rq_recovery
          with exn -> Pool.A_crashed (Printexc.to_string exn)
        in
        (try write_value wr (outcome : Pool.attempt_outcome)
         with _ -> Unix._exit 0);
        loop ()
  in
  loop ()

let spawn ~wid ~close_fds () =
  (* Flush before forking: the child inherits the parent's channel
     buffers, and must not replay half-written output. *)
  flush stdout;
  flush stderr;
  let req_r, req_w = Unix.pipe () in
  let res_r, res_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close req_w;
      Unix.close res_r;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        (close_fds ());
      (* fd 0/1 may be the stdio protocol stream: anything the pipeline
         prints must not corrupt it, and reads must not steal requests *)
      (try
         let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
         Unix.dup2 devnull Unix.stdin;
         Unix.dup2 devnull Unix.stdout;
         if devnull <> Unix.stdin && devnull <> Unix.stdout then
           Unix.close devnull
       with Unix.Unix_error _ -> ());
      child_loop req_r res_w;
      Unix._exit 0
  | pid ->
      Unix.close req_r;
      Unix.close res_w;
      { wid; pid; to_child = req_w; from_child = res_r;
        rbuf = Buffer.create 256; dead = false }

(* ------------------------------------------------------------------ *)
(* Parent side                                                         *)

let send t sub ~recovery =
  write_value t.to_child { rq_sub = sub; rq_recovery = recovery }

let read_step t =
  let chunk = Bytes.create 65536 in
  match Unix.read t.from_child chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Again
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EBADF), _, _) -> `Eof
  | 0 -> `Eof
  | n -> (
      Buffer.add_subbytes t.rbuf chunk 0 n;
      let len = Buffer.length t.rbuf in
      if len < Marshal.header_size then `Again
      else
        let data = Buffer.to_bytes t.rbuf in
        let total = Marshal.header_size + Marshal.data_size data 0 in
        if len < total then `Again
        else begin
          let outcome : Pool.attempt_outcome = Marshal.from_bytes data 0 in
          Buffer.clear t.rbuf;
          (* one reply per request; anything beyond is a protocol bug *)
          if len > total then
            Buffer.add_subbytes t.rbuf data total (len - total);
          `Reply outcome
        end)

let kill t =
  if not t.dead then begin
    t.dead <- true;
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
    (try Unix.close t.to_child with Unix.Unix_error _ -> ());
    try Unix.close t.from_child with Unix.Unix_error _ -> ()
  end
