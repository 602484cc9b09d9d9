type config = {
  socket : string option;
  listen : string option;
  stdio : bool;
  queue_limit : int;
  wpolicy : Pool.wpolicy;
  policy : Policy.t;
  seed : int;
  max_request_bytes : int;
  max_conns : int;
  max_inflight : int;
  idle_timeout_s : float option;
  metrics : Obs.Metrics.t option;
  log : string -> unit;
}

let default =
  {
    socket = None;
    listen = None;
    stdio = true;
    queue_limit = 64;
    wpolicy = { Pool.default_wpolicy with workers = 1 };
    policy = Policy.default;
    seed = 1;
    max_request_bytes = 1 lsl 20;
    max_conns = 64;
    max_inflight = 16;
    idle_timeout_s = None;
    metrics = None;
    log = ignore;
  }

(* One client: stdin/stdout or an accepted socket/TCP connection.
   Connections are blocking; [select] gates every read, so a read
   never blocks on an idle peer. *)
type conn = {
  c_in : Unix.file_descr;
  c_out : Unix.file_descr;
  c_name : string;
  c_rbuf : Buffer.t;  (** bytes read but not yet split into lines *)
  mutable c_eof : bool;
  mutable c_dead : bool;  (** write side failed; drop its responses *)
  mutable c_inflight : int;  (** accepted jobs not yet resolved *)
  mutable c_last : float;  (** last read activity, for idle timeout *)
}

type state = {
  cfg : config;
  pool : Pool.t;
  slots : Worker.t option array;
  stdio_conn : conn option;
  mutable conns : conn list;  (** accepted connections, newest first *)
  mutable listeners : (Unix.file_descr * string) list;
  (* Jobs complete out of submission order across workers, so terminal
     responses are routed by job id. *)
  routes : (string, conn) Hashtbl.t;
  mutable drain_waiters : conn list;
  mutable finished : bool;
  stop : bool ref;  (** set by SIGTERM/SIGINT *)
}

let mtr st = Pool.metrics st.pool

let write_response st conn (resp : Protocol.response) =
  if not conn.c_dead then begin
    let line = Protocol.response_to_line resp ^ "\n" in
    let bytes = Bytes.of_string line in
    let rec go off =
      if off < Bytes.length bytes then
        match Unix.write conn.c_out bytes off (Bytes.length bytes - off) with
        | n -> go (off + n)
        | exception
            Unix.Unix_error
              ((Unix.EPIPE | Unix.EBADF | Unix.ECONNRESET), _, _) ->
            conn.c_dead <- true;
            Obs.Metrics.inc (mtr st) "serve.orphaned";
            st.cfg.log
              (Printf.sprintf "client %s went away; dropping response"
                 conn.c_name)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    in
    go 0
  end
  else Obs.Metrics.inc (mtr st) "serve.orphaned"

(* Terminal responses go to the connection that submitted the job. *)
let route_response st (resp : Protocol.response) =
  match resp with
  | Protocol.Result_ok { id; _ }
  | Protocol.Result_error { id; _ }
  | Protocol.Cancelled { id } -> (
      match Hashtbl.find_opt st.routes id with
      | Some conn ->
          Hashtbl.remove st.routes id;
          conn.c_inflight <- conn.c_inflight - 1;
          write_response st conn resp
      | None ->
          Obs.Metrics.inc (mtr st) "serve.orphaned";
          st.cfg.log (Printf.sprintf "serve: no route for job %s" id))
  | resp -> (
      (* the pool only Responds with terminal shapes; fall back sanely *)
      match st.stdio_conn with
      | Some c -> write_response st c resp
      | None -> st.cfg.log "serve: unroutable response dropped")

let now () = Util.Clock.monotonic_s ()

(* Descriptors a freshly forked worker must not inherit: every client
   connection, every listener, and the other workers' pipes.  (Its own
   stdin/stdout are redirected to /dev/null by [Worker.spawn].) *)
let fds_to_close st =
  let conns = List.concat_map (fun c -> [ c.c_in ]) st.conns in
  let listeners = List.map fst st.listeners in
  let workers =
    Array.to_list st.slots
    |> List.concat_map (function Some w -> Worker.pipe_fds w | None -> [])
  in
  conns @ listeners @ workers

(* Perform the pool's actions against the real worker processes.  The
   recursion is bounded: Spawn feeds E_spawned which can Dispatch,
   whose send failure feeds E_died, which backs the slot off. *)
let rec perform_actions st acts = List.iter (perform_action st) acts

and perform_action st = function
  | Pool.Respond r -> route_response st r
  | Pool.Note m -> st.cfg.log m
  | Pool.Spawn { wid } -> spawn_slot st wid
  | Pool.Kill { wid } -> kill_slot st wid
  | Pool.Dispatch { wid; sub; recovery; _ } -> dispatch_slot st wid sub recovery

and spawn_slot st wid =
  kill_slot st wid;
  let w = Worker.spawn ~wid ~close_fds:(fun () -> fds_to_close st) () in
  st.slots.(wid) <- Some w;
  st.cfg.log (Printf.sprintf "pool: worker %d spawned pid=%d" wid (Worker.pid w));
  perform_actions st (Pool.handle st.pool ~now:(now ()) (Pool.E_spawned { wid }))

and kill_slot st wid =
  match st.slots.(wid) with
  | None -> ()
  | Some w ->
      Worker.kill w;
      st.slots.(wid) <- None

and dispatch_slot st wid sub recovery =
  match st.slots.(wid) with
  | None -> worker_died st wid "dispatched to a dead worker slot"
  | Some w -> (
      st.cfg.log
        (Printf.sprintf "pool: job %s -> worker %d pid=%d"
           sub.Protocol.sub_id wid (Worker.pid w));
      try Worker.send w sub ~recovery
      with _ -> worker_died st wid "write to worker failed")

and worker_died st wid detail =
  kill_slot st wid;
  perform_actions st (Pool.handle st.pool ~now:(now ()) (Pool.E_died { wid; detail }))

let handle_line st conn line =
  if String.trim line = "" then ()
  else
    match
      Protocol.parse_request ~default_policy:st.cfg.policy
        ~max_bytes:st.cfg.max_request_bytes line
    with
    | Error (id, reason) ->
        write_response st conn (Pool.reject st.pool ?id reason)
    | Ok (Protocol.Submit sub) ->
        if conn.c_inflight >= st.cfg.max_inflight then
          write_response st conn
            (Pool.reject st.pool ~id:sub.sub_id
               (Protocol.Inflight_limit { limit = st.cfg.max_inflight }))
        else begin
          let resp, acts = Pool.submit st.pool ~now:(now ()) sub in
          (match resp with
          | Protocol.Accepted _ ->
              Hashtbl.replace st.routes sub.sub_id conn;
              conn.c_inflight <- conn.c_inflight + 1
          | _ -> ());
          write_response st conn resp;
          perform_actions st acts
        end
    | Ok Protocol.Health -> write_response st conn (Pool.health st.pool)
    | Ok Protocol.Drain ->
        Pool.begin_drain st.pool;
        st.drain_waiters <- conn :: st.drain_waiters
    | Ok Protocol.Shutdown ->
        (* Cancel live jobs: each Cancelled goes to its submitter, the
           summary to the requester. *)
        let responses, acts = Pool.shutdown st.pool ~now:(now ()) in
        List.iter
          (fun r ->
            match r with
            | Protocol.Cancelled _ -> route_response st r
            | r -> write_response st conn r)
          responses;
        perform_actions st acts;
        st.finished <- true

(* Split [conn.c_rbuf] into complete lines and handle each. *)
let process_buffer st conn ~flush_partial =
  let data = Buffer.contents conn.c_rbuf in
  let n = String.length data in
  let rec go start =
    match String.index_from_opt data start '\n' with
    | Some i ->
        handle_line st conn (String.sub data start (i - start));
        go (i + 1)
    | None ->
        Buffer.clear conn.c_rbuf;
        if start < n then
          if flush_partial then
            (* EOF with an unterminated final line: treat it as a line *)
            handle_line st conn (String.sub data start (n - start))
          else Buffer.add_substring conn.c_rbuf data start (n - start)
  in
  go 0

let read_conn st conn =
  conn.c_last <- now ();
  let chunk = Bytes.create 65536 in
  match Unix.read conn.c_in chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EBADF), _, _) ->
      conn.c_eof <- true;
      process_buffer st conn ~flush_partial:true
  | 0 ->
      conn.c_eof <- true;
      process_buffer st conn ~flush_partial:true
  | n ->
      Buffer.add_subbytes conn.c_rbuf chunk 0 n;
      process_buffer st conn ~flush_partial:false

let accept_conn st lfd lname =
  match Unix.accept lfd with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | client, _ ->
      if List.length st.conns >= st.cfg.max_conns then begin
        let resp =
          Pool.reject st.pool (Protocol.Conn_limit { limit = st.cfg.max_conns })
        in
        let line = Protocol.response_to_line resp ^ "\n" in
        (try
           ignore
             (Unix.write client (Bytes.of_string line) 0 (String.length line))
         with Unix.Unix_error _ -> ());
        (try Unix.close client with Unix.Unix_error _ -> ());
        st.cfg.log
          (Printf.sprintf "serve: refused %s connection (cap %d)" lname
             st.cfg.max_conns)
      end
      else
        st.conns <-
          {
            c_in = client;
            c_out = client;
            c_name = lname;
            c_rbuf = Buffer.create 256;
            c_eof = false;
            c_dead = false;
            c_inflight = 0;
            c_last = now ();
          }
          :: st.conns

(* Drop connections that can neither send requests nor receive
   responses anymore; close idle ones past the timeout. *)
let prune_conns st tnow =
  let keep c =
    let waiter = List.memq c st.drain_waiters in
    let closed =
      c.c_dead || (c.c_eof && c.c_inflight = 0 && not waiter)
    in
    let idle_out =
      match st.cfg.idle_timeout_s with
      | Some limit
        when (not closed) && (not waiter)
             && c.c_inflight = 0
             && tnow -. c.c_last > limit ->
          Obs.Metrics.inc (mtr st) "serve.conn.idle_closed";
          st.cfg.log
            (Printf.sprintf "serve: closing idle %s connection" c.c_name);
          true
      | _ -> false
    in
    if closed || idle_out then begin
      (try Unix.close c.c_in with Unix.Unix_error _ -> ());
      false
    end
    else true
  in
  st.conns <- List.filter keep st.conns

let finish_drain st =
  let summary = Pool.drained_summary st.pool ~cancelled:0 in
  (match st.drain_waiters with
  | [] -> (
      (* drain was implied by EOF or a signal: summarize to stdio *)
      match st.stdio_conn with
      | Some conn -> write_response st conn summary
      | None -> ())
  | waiters ->
      List.iter (fun c -> write_response st c summary) (List.rev waiters));
  st.finished <- true

(* ------------------------------------------------------------------ *)
(* Listener setup                                                      *)

let unix_listener path =
  try
    if Sys.file_exists path then Sys.remove path;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    Ok fd
  with
  | Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "cannot listen on %s: %s" path (Unix.error_message e))
  | Sys_error msg -> Error ("cannot listen: " ^ msg)

let tcp_listener ~log spec =
  match String.rindex_opt spec ':' with
  | None -> Error (Printf.sprintf "--listen %s: expected HOST:PORT" spec)
  | Some i -> (
      let host = String.sub spec 0 i in
      let port_s = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt port_s with
      | None -> Error (Printf.sprintf "--listen %s: bad port %S" spec port_s)
      | Some port -> (
          let addr =
            if host = "" || host = "*" then Ok Unix.inet_addr_any
            else
              match Unix.inet_addr_of_string host with
              | a -> Ok a
              | exception _ -> (
                  match Unix.gethostbyname host with
                  | { Unix.h_addr_list; _ } when Array.length h_addr_list > 0
                    ->
                      Ok h_addr_list.(0)
                  | _ | (exception Not_found) ->
                      Error
                        (Printf.sprintf "--listen %s: cannot resolve %S" spec
                           host))
          in
          match addr with
          | Error _ as e -> e
          | Ok addr -> (
              try
                let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
                Unix.setsockopt fd Unix.SO_REUSEADDR true;
                Unix.bind fd (Unix.ADDR_INET (addr, port));
                Unix.listen fd 64;
                (match Unix.getsockname fd with
                | Unix.ADDR_INET (a, p) ->
                    log
                      (Printf.sprintf "serve: listening on %s:%d"
                         (Unix.string_of_inet_addr a) p)
                | _ -> ());
                Ok fd
              with Unix.Unix_error (e, _, _) ->
                Error
                  (Printf.sprintf "cannot listen on %s: %s" spec
                     (Unix.error_message e)))))

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)

let select_timeout st tnow =
  let pool_wake = Pool.next_wakeup st.pool in
  let idle_wake =
    match st.cfg.idle_timeout_s with
    | None -> None
    | Some limit ->
        List.fold_left
          (fun acc c ->
            if c.c_eof || c.c_dead || c.c_inflight > 0 then acc
            else Util.Clock.earliest acc (Some (c.c_last +. limit)))
          None st.conns
  in
  match Util.Clock.earliest pool_wake idle_wake with
  | None -> -1.
  | Some at -> Float.max 0. (at -. tnow)

let serve_loop st =
  while not st.finished do
    let tnow = now () in
    if !(st.stop) && not (Pool.draining st.pool) then begin
      st.cfg.log "serve: signal received; draining";
      Pool.begin_drain st.pool
    end;
    perform_actions st (Pool.tick st.pool ~now:tnow);
    prune_conns st tnow;
    (* stdio EOF with no listener means no more requests are coming —
       drain implicitly so piped clients get results *)
    (match st.stdio_conn with
    | Some c when c.c_eof && st.listeners = [] && not (Pool.draining st.pool)
      ->
        Pool.begin_drain st.pool
    | _ -> ());
    if Pool.draining st.pool && Pool.idle st.pool then finish_drain st
    else if not st.finished then begin
      let conn_of_fd = Hashtbl.create 16 in
      let fds = ref [] in
      (match st.stdio_conn with
      | Some c when not c.c_eof ->
          Hashtbl.replace conn_of_fd c.c_in c;
          fds := c.c_in :: !fds
      | _ -> ());
      List.iter
        (fun c ->
          if not c.c_eof then begin
            Hashtbl.replace conn_of_fd c.c_in c;
            fds := c.c_in :: !fds
          end)
        st.conns;
      List.iter (fun (fd, _) -> fds := fd :: !fds) st.listeners;
      Array.iter
        (function Some w -> fds := Worker.fd w :: !fds | None -> ())
        st.slots;
      match Unix.select !fds [] [] (select_timeout st tnow) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, _, _ ->
          List.iter
            (fun fd ->
              if st.finished then ()
              else
                match List.assoc_opt fd st.listeners with
                | Some lname -> accept_conn st fd lname
                | None -> (
                    let slot = ref None in
                    Array.iter
                      (function
                        | Some w when Worker.fd w = fd -> slot := Some w
                        | _ -> ())
                      st.slots;
                    match !slot with
                    | Some w -> (
                        let wid = Worker.wid w in
                        match Worker.read_step w with
                        | `Again -> ()
                        | `Eof -> worker_died st wid "worker process died"
                        | `Reply outcome ->
                            perform_actions st
                              (Pool.handle st.pool ~now:(now ())
                                 (Pool.E_result { wid; outcome }))
                        | exception _ ->
                            worker_died st wid "garbled worker reply")
                    | None -> (
                        match Hashtbl.find_opt conn_of_fd fd with
                        | Some conn -> read_conn st conn
                        | None -> ())))
            readable
    end
  done

let run cfg =
  (* A client closing its socket mid-write must not kill the server. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let stop = ref false in
  let old_term = ref None and old_int = ref None in
  (try
     old_term :=
       Some (Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true)));
     old_int :=
       Some (Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true)))
   with Invalid_argument _ | Sys_error _ -> ());
  let restore_signals () =
    (match !old_term with
    | Some b -> ( try Sys.set_signal Sys.sigterm b with _ -> ())
    | None -> ());
    match !old_int with
    | Some b -> ( try Sys.set_signal Sys.sigint b with _ -> ())
    | None -> ()
  in
  let pool =
    Pool.create ~queue_limit:cfg.queue_limit ~seed:cfg.seed ?metrics:cfg.metrics
      ~wpolicy:cfg.wpolicy ()
  in
  let listeners =
    let ( let* ) = Result.bind in
    let* unix =
      match cfg.socket with
      | None -> Ok []
      | Some path ->
          Result.map (fun fd -> [ (fd, "unix-socket") ]) (unix_listener path)
    in
    let* tcp =
      match cfg.listen with
      | None -> Ok []
      | Some spec ->
          Result.map (fun fd -> [ (fd, "tcp") ]) (tcp_listener ~log:cfg.log spec)
    in
    Ok (unix @ tcp)
  in
  match listeners with
  | Error msg ->
      restore_signals ();
      Error msg
  | Ok listeners ->
      let st =
        {
          cfg;
          pool;
          slots = Array.make cfg.wpolicy.Pool.workers None;
          stdio_conn =
            (if cfg.stdio then
               Some
                 {
                   c_in = Unix.stdin;
                   c_out = Unix.stdout;
                   c_name = "stdio";
                   c_rbuf = Buffer.create 256;
                   c_eof = false;
                   c_dead = false;
                   c_inflight = 0;
                   c_last = now ();
                 }
             else None);
          conns = [];
          listeners;
          routes = Hashtbl.create 64;
          drain_waiters = [];
          finished = false;
          stop;
        }
      in
      perform_actions st (Pool.boot st.pool);
      (try serve_loop st
       with exn -> cfg.log ("serve loop error: " ^ Printexc.to_string exn));
      (* kill workers, close sockets, remove the socket file *)
      Array.iteri (fun wid _ -> kill_slot st wid) st.slots;
      List.iter
        (fun c -> try Unix.close c.c_in with Unix.Unix_error _ -> ())
        st.conns;
      List.iter
        (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
        st.listeners;
      (match cfg.socket with
      | Some path -> ( try Sys.remove path with Sys_error _ -> ())
      | None -> ());
      restore_signals ();
      Ok (Pool.metrics st.pool)
