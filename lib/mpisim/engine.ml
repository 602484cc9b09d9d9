exception Deadlock of string
exception Mpi_error of string
exception Stalled of string

type ctx = { rank : int; nranks : int; world : Comm.t }

type outcome = {
  elapsed : float;
  finish_times : float array;
  events : int;
  messages : int;
  p2p_bytes : int;
  unexpected : int;
  flow_stalls : int;
  retries : int;
  timeouts : int;
  dropped : int;
}

type _ Effect.t += Mpi_call : Call.t -> Call.value Effect.t

let perform call =
  try Effect.perform (Mpi_call call)
  with Effect.Unhandled _ ->
    raise (Mpi_error "MPI call performed outside Engine.run")

(* ------------------------------------------------------------------ *)
(* Internal state                                                      *)

type fiber = (Call.value, unit) Effect.Deep.continuation

(* Message and posted-receive records (and the matching queues that hold
   them) live in {!Matchq}; [Mq.msg] travels the virtual wire, [Mq.posted]
   waits in a rank's receive queue. *)
module Mq = Matchq
module Itbl = Util.Int_table

(* An eager send whose injection is stalled by receiver flow control. *)
type parked = {
  q_src : int;
  q_tag : int;
  q_bytes : int;
  q_comm : int;
  q_call_time : float;
  q_send_req : int;
}

type wait_shape = W_send | W_recv | W_wait | W_waitall

(* A request lives in [st.reqs] from its call until its wait completes.
   Its completion time is written once; the status and the waiter start
   as the shared sentinels [dummy_status] and [no_waiter], so neither
   needs an option. *)
type req_state = {
  r_id : int;
  mutable r_done : bool;
  mutable r_done_at : float;
  mutable r_status : Call.status;
  mutable r_waiter : waiter;
}

and waiter = {
  w_rank : int;
  w_req : int; (* the request of a single-request wait; -1 for Waitall *)
  w_reqs : int array; (* Waitall's requests, in call order *)
  mutable w_remaining : int;
  mutable w_latest : float;
  w_block_time : float;
  w_shape : wait_shape;
}

(* Per-rank state holds no float: the rank's clock and the times its
   progress engine and inbound link are next free live in the float
   arrays of [state], so writing them allocates nothing. *)
type rank_state = {
  rs_rank : int;
  mutable rs_finished : bool;
  mutable rs_finalized : bool;
  mutable rs_call : Call.t;
      (* the call the rank is blocked in, parked by the effect handler;
         [no_call] while the rank runs or before it starts *)
  mutable rs_fiber : fiber option;
  rs_posted : Mq.Posted.t; (* post order *)
  rs_unexpected : Mq.Unexpected.t; (* arrival order *)
  mutable rs_buffered : int; (* bytes of reserved unexpected eager data *)
  rs_parked : parked Util.Deque.t; (* FIFO *)
}

(* One instance of a collective: the [c_slot]-th operation of the
   participant set [c_set]. *)
type coll_state = {
  c_comm : Comm.t;
  c_name : string;
  c_slot : int;
  c_set : part_set;
  mutable c_arrivals : (int * float * Call.op) list;
  mutable c_count : int;
      (* length of [c_arrivals]: completion is a counter compare, as in
         Align and Wildcard, so an arrival costs O(1) whatever the size *)
}

(* A participant set of one communicator: the whole communicator, or a
   neighborhood collective's declared set.  Disjoint sets on one
   communicator progress independently.  Each participant's k-th
   operation on the set joins instance (set, slot k). *)
and part_set = {
  ps_parts : int array;
      (* world ranks in declared order, built once per set and shared by
         its instances *)
  ps_next : int array; (* by position in [ps_parts]: the next slot *)
  ps_open : coll_state Itbl.t; (* instances not yet complete, by slot *)
}

(* Declared participant sets are keyed by their contents (local ranks),
   so equal arrays passed by different ranks meet in one set. *)
module Parts_tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b
  let hash (a : t) = Array.fold_left (fun h v -> (h * 31) + v) 0 a land max_int
end)

type comm_state = {
  cm_comm : Comm.t;
  cm_full : part_set; (* every member, in local-rank order *)
  cm_sets : part_set Parts_tbl.t; (* declared participant sets *)
}

(* The parked call of a rank that runs or has not started. *)
let no_call : Call.t =
  { op = Call.Wtime; comm = Comm.world 1; site = Util.Callsite.unknown }

type event =
  | E_start of int
  | E_resume of int * Call.value
  | E_deliver of Mq.msg (* at the event's time: eager data or RTS arrival *)
  | E_retransmit of Mq.msg * int  (* next transmission attempt, 0-based *)

(* The current virtual time, in a record of floats only, so advancing it
   does not box. *)
type vclock = { mutable now : float }

type state = {
  net : Netmodel.t;
  nranks : int;
  ranks : rank_state array;
  clock : float array; (* by rank: the rank's virtual clock *)
  proc_free : float array;
      (* by rank: when its message-progress engine is next available;
         arriving messages are processed serially *)
  nic_free : float array;
      (* by rank: when its inbound link is next free: transfers into one
         receiver serialize on the wire, so message bursts queue *)
  events : event Util.Pqueue.t;
  reqs : req_state Itbl.t;
  mutable next_req : int;
  mutable comms : comm_state array; (* by communicator id, [next_comm] used *)
  mutable next_comm : int;
  coll_alg : Coll_alg.t;
  hooks : Hooks.t array;
  fault : Fault.runtime option;
  max_events : int option;
  max_virtual_time : float option;
  obs : Obs.Sink.t;
  vt : vclock;
  mutable n_events : int;
  mutable n_msgs : int;
  mutable n_bytes : int;
  mutable n_unexpected : int;
  mutable n_stalls : int;
  mutable n_inflight_bytes : int; (* bytes injected but not yet delivered *)
}

let schedule st ~time ev = Util.Pqueue.add st.events ~time ev

(* Hooks are called in registration order by loops over an array: with
   no hooks nothing is fired and nothing allocated. *)
let[@inline] fire_enter st rank call =
  let hooks = st.hooks in
  if Array.length hooks > 0 then begin
    let time = st.clock.(rank) in
    for i = 0 to Array.length hooks - 1 do
      hooks.(i).Hooks.on_enter ~world_rank:rank ~time call
    done
  end

let fire_fault st ev =
  let hooks = st.hooks in
  for i = 0 to Array.length hooks - 1 do
    hooks.(i).Hooks.on_fault ~time:st.vt.now ev
  done

let[@inline] fire_return st rank time call v =
  let hooks = st.hooks in
  for i = 0 to Array.length hooks - 1 do
    hooks.(i).Hooks.on_return ~world_rank:rank ~time call v
  done

(* ------------------------------------------------------------------ *)
(* Observability sampling                                              *)

(* Engine virtual time is seconds; trace timestamps are microseconds. *)
let obs_ts t = t *. 1e6

(* With a live sink, queue depths are sampled every this many events. *)
let obs_sample_period = 256

(* Per-rank queue depths plus engine-wide totals, emitted as Chrome
   counter tracks.  Purely a function of simulation state at a virtual
   time, so sampled traces stay deterministic. *)
let obs_sample st =
  let ts = obs_ts st.vt.now in
  Array.iter
    (fun rs ->
      Obs.Sink.counter st.obs ~pid:Obs.Sink.engine_pid ~tid:rs.rs_rank ~ts
        "queues"
        [
          ("posted", float_of_int (Mq.Posted.length rs.rs_posted));
          ("unexpected", float_of_int (Mq.Unexpected.length rs.rs_unexpected));
          ("parked", float_of_int (Util.Deque.length rs.rs_parked));
          ("buffered_bytes", float_of_int rs.rs_buffered);
        ])
    st.ranks;
  let fault_series =
    match st.fault with
    | None -> []
    | Some f ->
        let fs = Fault.stats f in
        [
          ("retries", float_of_int fs.retries);
          ("timeouts", float_of_int fs.timeouts);
          ("dropped", float_of_int fs.dropped);
        ]
  in
  Obs.Sink.counter st.obs ~pid:Obs.Sink.engine_pid ~tid:0 ~ts "engine"
    ([
       ("inflight_bytes", float_of_int st.n_inflight_bytes);
       ("events", float_of_int st.n_events);
       ("messages", float_of_int st.n_msgs);
       ("unexpected_total", float_of_int st.n_unexpected);
       ("flow_stalls", float_of_int st.n_stalls);
     ]
    @ fault_series)

let comm_state st cid =
  if cid < 0 || cid >= st.next_comm then
    raise (Mpi_error (Printf.sprintf "unknown communicator id %d" cid));
  st.comms.(cid)

let comm_of st cid = (comm_state st cid).cm_comm

let register_comm st comm =
  let id = Comm.id comm in
  assert (id = st.next_comm);
  let cm =
    {
      cm_comm = comm;
      cm_full =
        {
          ps_parts = Comm.members comm;
          ps_next = Array.make (Comm.size comm) 0;
          ps_open = Itbl.create 4;
        };
      cm_sets = Parts_tbl.create 1;
    }
  in
  if id = Array.length st.comms then begin
    let grown = Array.make (max 8 (2 * id)) cm in
    Array.blit st.comms 0 grown 0 id;
    st.comms <- grown
  end;
  st.comms.(id) <- cm;
  st.next_comm <- id + 1

let new_comm st ~members =
  let comm = Comm.make ~id:st.next_comm ~members in
  register_comm st comm;
  comm

let dummy_status : Call.status =
  { actual_source = -1; actual_tag = -1; received_bytes = 0 }

let no_waiter =
  {
    w_rank = -1;
    w_req = -1;
    w_reqs = [||];
    w_remaining = 0;
    w_latest = 0.;
    w_block_time = 0.;
    w_shape = W_send;
  }

let new_req st =
  let id = st.next_req in
  st.next_req <- id + 1;
  let r =
    {
      r_id = id;
      r_done = false;
      r_done_at = 0.;
      r_status = dummy_status;
      r_waiter = no_waiter;
    }
  in
  Itbl.add st.reqs id r;
  r

let find_req st id =
  match Itbl.find st.reqs id with
  | r -> r
  | exception Not_found ->
      raise (Mpi_error (Printf.sprintf "unknown or freed request %d" id))

let status_of_req st id = (find_req st id).r_status

(* Resume value owed to a blocked Wait/Send/Recv once its requests finish. *)
let wait_value st shape ~req ~reqs : Call.value =
  match shape with
  | W_send -> V_unit
  | W_recv | W_wait -> V_status (status_of_req st req)
  | W_waitall -> V_statuses (Array.map (fun id -> status_of_req st id) reqs)

(* A request lives until its wait completes: the resume value is read
   first, then the waiter's requests are freed, so a run holds only the
   requests still in flight and a second wait on one is an [Mpi_error]. *)
let waiter_done st (w : waiter) =
  let v = wait_value st w.w_shape ~req:w.w_req ~reqs:w.w_reqs in
  if w.w_shape = W_waitall then Array.iter (Itbl.remove st.reqs) w.w_reqs
  else Itbl.remove st.reqs w.w_req;
  schedule st ~time:(Float.max w.w_block_time w.w_latest) (E_resume (w.w_rank, v))

let complete_req st (r : req_state) ~time =
  assert (not r.r_done);
  r.r_done <- true;
  r.r_done_at <- time;
  let w = r.r_waiter in
  if w != no_waiter then begin
    w.w_remaining <- w.w_remaining - 1;
    w.w_latest <- Float.max w.w_latest time;
    if w.w_remaining = 0 then waiter_done st w
  end

(* Block [rank]'s fiber until request [id] completes.  A request already
   complete (an eager send, say) resumes the rank at once, with no
   waiter. *)
let block_on_req st rank shape id =
  let r = find_req st id in
  let clock = st.clock.(rank) in
  if r.r_done then begin
    let v = wait_value st shape ~req:id ~reqs:[||] in
    Itbl.remove st.reqs id;
    schedule st ~time:(Float.max clock r.r_done_at) (E_resume (rank, v))
  end
  else begin
    if r.r_waiter != no_waiter then
      raise (Mpi_error (Printf.sprintf "request %d waited on twice" id));
    r.r_waiter <-
      {
        w_rank = rank;
        w_req = id;
        w_reqs = [||];
        w_remaining = 1;
        w_latest = clock;
        w_block_time = clock;
        w_shape = shape;
      }
  end

(* Block [rank]'s fiber until every request in [reqs] completes. *)
let block_on_reqs st rank reqs =
  let clock = st.clock.(rank) in
  let w =
    {
      w_rank = rank;
      w_req = -1;
      w_reqs = Array.of_list reqs;
      w_remaining = 0;
      w_latest = clock;
      w_block_time = clock;
      w_shape = W_waitall;
    }
  in
  let pending =
    List.fold_left
      (fun pending id ->
        let r = find_req st id in
        if r.r_done then begin
          w.w_latest <- Float.max w.w_latest r.r_done_at;
          pending
        end
        else begin
          if r.r_waiter != no_waiter then
            raise (Mpi_error (Printf.sprintf "request %d waited on twice" id));
          r.r_waiter <- w;
          pending + 1
        end)
      0 reqs
  in
  w.w_remaining <- pending;
  if pending = 0 then waiter_done st w

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)

let rank_lines st buf =
  Array.iter
    (fun rs ->
      if not rs.rs_finished then begin
        let call =
          if rs.rs_call == no_call then "<not started>"
          else
            let c = rs.rs_call in
            Format.asprintf "%a at %a" Call.pp_op c.op Util.Callsite.pp c.site
        in
        Buffer.add_string buf
          (Printf.sprintf
             "\n  rank %d at t=%.6fs blocked in %s (posted=%d unexpected=%d \
              parked=%d buffered=%dB)"
             rs.rs_rank st.clock.(rs.rs_rank) call
             (Mq.Posted.length rs.rs_posted)
             (Mq.Unexpected.length rs.rs_unexpected)
             (Util.Deque.length rs.rs_parked) rs.rs_buffered)
      end)
    st.ranks

(* The open collective instance on communicator [cid] that [rank] has
   arrived at, if any.  A rank blocks in every collective it calls, so
   there is at most one. *)
let pending_instance st rank cid =
  if cid < 0 || cid >= st.next_comm then None
  else begin
    let cm = st.comms.(cid) in
    let found = ref None in
    let scan set =
      Itbl.iter
        (fun _ (cs : coll_state) ->
          if List.exists (fun (w, _, _) -> w = rank) cs.c_arrivals then
            found := Some cs)
        set.ps_open
    in
    scan cm.cm_full;
    Parts_tbl.iter (fun _ set -> scan set) cm.cm_sets;
    !found
  end

(* Who is each unfinished rank actually waiting for?  Point-to-point calls
   name their peer directly; a rank parked in a collective waits for the
   members that have not reached its pending instance.  Peers that have
   already finished can never arrive — those are the [missing] set. *)
let wait_edges st =
  let finished w = w >= 0 && w < st.nranks && st.ranks.(w).rs_finished in
  let edges = ref [] in
  Array.iter
    (fun rs ->
      if not rs.rs_finished && rs.rs_call != no_call then
        let c = rs.rs_call in
        let what =
          Format.asprintf "%a at %a" Call.pp_op c.Call.op Util.Callsite.pp
            c.Call.site
        in
        let world_of l = Comm.world_of_local c.Call.comm l in
        let waiting_on =
          match c.Call.op with
          | Call.Recv { src = Call.Rank s; _ }
          | Call.Irecv { src = Call.Rank s; _ } ->
              [ world_of s ]
          | Call.Send { dst; _ } | Call.Isend { dst; _ } -> [ world_of dst ]
          | Call.Recv { src = Call.Any_source; _ }
          | Call.Irecv { src = Call.Any_source; _ }
          | Call.Wait _ | Call.Waitall _ | Call.Compute _ | Call.Wtime ->
              []
          | _ ->
              (* collective: comm members absent from the pending
                 instance this rank has arrived at *)
              let arrived w (cs : coll_state) =
                List.exists (fun (a, _, _) -> a = w) cs.c_arrivals
              in
              (match pending_instance st rs.rs_rank (Comm.id c.Call.comm) with
              | None -> []
              | Some cs ->
                  cs.c_set.ps_parts |> Array.to_list
                  |> List.filter (fun w -> not (arrived w cs)))
        in
        let missing = List.filter finished waiting_on in
        edges :=
          Util.Waitgraph.edge ~rank:rs.rs_rank ~what ~waiting_on ~missing
            ()
          :: !edges)
    st.ranks;
  List.rev !edges

let add_wait_graph st buf =
  match wait_edges st with
  | [] -> ()
  | edges -> Buffer.add_string buf ("\n" ^ Util.Waitgraph.format edges)

let deadlock_report st =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "simulation deadlock; stuck ranks:";
  rank_lines st buf;
  add_wait_graph st buf;
  Buffer.contents buf

let stalled_report st ~reason =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "simulation stalled: %s after %d events at t=%.6fs; \
                     unfinished ranks:" reason st.n_events st.vt.now);
  rank_lines st buf;
  add_wait_graph st buf;
  Buffer.contents buf

(* Per-transfer fault effects at departure time [depart]:
   (latency factor, bandwidth factor, additive jitter). *)
let wire_fault st ~depart =
  match st.fault with
  | None -> (1., 1., 0.)
  | Some f ->
      let lf, bf = Fault.degradation (Fault.plan f) ~now:depart in
      (lf, bf, Fault.draw_jitter f)

(* Inbound transfers serialize on the receiver's link. *)
let[@inline] wire_arrival st dst ~depart ~bytes =
  let net = st.net in
  let lat_f, bw_f, jitter = wire_fault st ~depart in
  let start =
    Float.max (depart +. (net.latency *. lat_f) +. jitter) st.nic_free.(dst)
  in
  let arrival = start +. (float_of_int bytes *. net.byte_time *. bw_f) in
  st.nic_free.(dst) <- arrival;
  arrival

(* Inject one transmission attempt of [m], departing at [depart].  Under
   fault injection the attempt may be lost: the sender then times out and
   retransmits with exponential backoff, and after [max_retries] lost
   retransmissions the run is declared {!Stalled} rather than hanging on a
   receive that can never complete.  [attempt] is 0 for the original
   transmission. *)
let transmit st (m : Mq.msg) ~depart ~attempt =
  let lost = match st.fault with Some f -> Fault.draw_drop f | None -> false in
  if lost then begin
    let f = Option.get st.fault in
    let fs = Fault.stats f in
    fs.dropped <- fs.dropped + 1;
    fire_fault st
      (Hooks.F_drop { src = m.m_src; dst = m.m_dst; bytes = m.m_bytes; attempt });
    let p = Fault.plan f in
    if attempt >= p.max_retries then begin
      (* The receiver is now waiting on a message that will never come;
         say exactly which pair and tag gave up, in wait-for-graph form. *)
      let doomed =
        Util.Waitgraph.edge ~rank:m.m_dst
          ~what:
            (Printf.sprintf "receive of %dB message (tag %d)" m.m_bytes
               m.m_tag)
          ~waiting_on:[ m.m_src ] ()
      in
      raise
        (Stalled
           (stalled_report st
              ~reason:
                (Printf.sprintf
                   "message %d->%d (%dB, tag %d) lost %d times; \
                    retransmission budget exhausted\n%s"
                   m.m_src m.m_dst m.m_bytes m.m_tag (attempt + 1)
                   (Util.Waitgraph.format
                      ~header:"undeliverable message:" [ doomed ]))))
    end
    else begin
      fs.timeouts <- fs.timeouts + 1;
      schedule st
        ~time:(depart +. Fault.timeout_after p ~attempt)
        (E_retransmit (m, attempt + 1))
    end
  end
  else begin
    (match st.fault with
    | Some f when attempt > 0 ->
        (Fault.stats f).retries <- (Fault.stats f).retries + 1;
        fire_fault st
          (Hooks.F_retransmit
             { src = m.m_src; dst = m.m_dst; bytes = m.m_bytes; attempt })
    | _ -> ());
    let arrival =
      match m.m_protocol with
      | Mq.Eager -> wire_arrival st m.m_dst ~depart ~bytes:m.m_bytes
      | Mq.Rendezvous ->
          (* only the RTS control message travels now; it does not occupy
             the receiver's inbound link *)
          let lat_f, _, jitter = wire_fault st ~depart in
          depart +. (st.net.latency *. lat_f) +. jitter
    in
    st.n_inflight_bytes <- st.n_inflight_bytes + m.m_bytes;
    schedule st ~time:arrival (E_deliver m)
  end

(* Drain flow-controlled senders after [bytes] were released at [time]. *)
let rec release_buffer st (d : rank_state) ~bytes ~time =
  d.rs_buffered <- d.rs_buffered - bytes;
  drain_parked st d ~time

and drain_parked st (d : rank_state) ~time =
  match Util.Deque.peek_front d.rs_parked with
  | None -> ()
  | Some q ->
      if d.rs_buffered + q.q_bytes <= st.net.unexpected_buffer_bytes then begin
        ignore (Util.Deque.pop_front d.rs_parked);
        d.rs_buffered <- d.rs_buffered + q.q_bytes;
        inject_parked st d q ~time ~reserved:true;
        drain_parked st d ~time
      end

and inject_parked st (d : rank_state) (q : parked) ~time ~reserved =
  let net = st.net in
  let ti =
    Float.max time (q.q_call_time +. net.overhead) +. net.resume_latency
  in
  transmit st
    {
      Mq.m_src = q.q_src;
      m_dst = d.rs_rank;
      m_tag = q.q_tag;
      m_bytes = q.q_bytes;
      m_comm = q.q_comm;
      m_protocol = Mq.Eager;
      m_send_req = q.q_send_req;
      m_reserved = reserved;
    }
    ~depart:ti ~attempt:0;
  complete_req st (find_req st q.q_send_req) ~time:ti

(* Message processing occupies the receiver's progress engine serially:
   completion = max(ready, proc_free) + overhead + bytes * rx_copy
   (+ the extra unexpected-queue copy when applicable). *)
let[@inline] rx_complete st dst ~ready ~bytes ~unexpected =
  let net = st.net in
  let cost =
    net.overhead
    +. (float_of_int bytes *. net.rx_copy_per_byte)
    +. (if unexpected then float_of_int bytes *. net.unexpected_copy_per_byte
        else 0.)
  in
  let tc = Float.max ready st.proc_free.(dst) +. cost in
  st.proc_free.(dst) <- tc;
  tc

(* Status seen by the receiver, with the source translated back into the
   receiving communicator's local numbering. *)
let recv_status st (m : Mq.msg) : Call.status =
  let comm = comm_of st m.m_comm in
  let local =
    match Comm.local_of_world_exn comm m.m_src with
    | l -> l
    | exception Not_found ->
        raise
          (Mpi_error
             (Printf.sprintf "sender %d not a member of communicator %d"
                m.m_src m.m_comm))
  in
  { actual_source = local; actual_tag = m.m_tag; received_bytes = m.m_bytes }

(* Every path that pairs a message with a posted receive funnels through
   here, so [on_p2p_match] fires exactly once per message, in matching
   order. *)
let complete_recv st (m : Mq.msg) recv_req ~time =
  let hooks = st.hooks in
  for i = 0 to Array.length hooks - 1 do
    hooks.(i).Hooks.on_p2p_match ~time ~src:m.m_src ~dst:m.m_dst ~tag:m.m_tag
      ~bytes:m.m_bytes ~comm:m.m_comm
  done;
  recv_req.r_status <- recv_status st m;
  complete_req st recv_req ~time

(* Message [m] meets the posted receive [p] at [ready]: when the message
   arrives at a posted receive, or when the receive finds it waiting.  An
   eager payload is processed from [ready], paying the copy out of the
   unexpected queue when it waited there ([unexpected]).  A rendezvous
   handshake completes at [ready]; then the payload moves, completing the
   send on arrival. *)
let[@inline] match_msg st (m : Mq.msg) (p : Mq.posted) ~ready ~unexpected =
  let recv_req = find_req st p.p_req in
  match m.m_protocol with
  | Mq.Eager ->
      let tc = rx_complete st m.m_dst ~ready ~bytes:m.m_bytes ~unexpected in
      (* the receive buffer holds the payload until it is processed *)
      if m.m_reserved then
        release_buffer st st.ranks.(m.m_dst) ~bytes:m.m_bytes ~time:tc;
      complete_recv st m recv_req ~time:tc
  | Mq.Rendezvous ->
      let data_arrival = wire_arrival st m.m_dst ~depart:ready ~bytes:m.m_bytes in
      complete_req st (find_req st m.m_send_req) ~time:data_arrival;
      let tc =
        rx_complete st m.m_dst ~ready:data_arrival ~bytes:m.m_bytes
          ~unexpected:false
      in
      complete_recv st m recv_req ~time:tc

(* A message has physically arrived at its destination, at the delivery
   event's time. *)
let deliver st (m : Mq.msg) =
  st.n_inflight_bytes <- st.n_inflight_bytes - m.m_bytes;
  let d = st.ranks.(m.m_dst) in
  match Mq.Posted.take d.rs_posted ~src:m.m_src ~tag:m.m_tag ~comm:m.m_comm with
  | Some p -> match_msg st m p ~ready:st.vt.now ~unexpected:false
  | None ->
      Mq.Unexpected.add d.rs_unexpected m;
      st.n_unexpected <- st.n_unexpected + 1

(* The receiver posts a receive: match the unexpected queue in arrival
   order (the simulator's deterministic wildcard policy), or un-stall a
   flow-controlled sender whose message this receive will consume. *)
let post_recv st rank (p : Mq.posted) =
  let d = st.ranks.(rank) in
  match Mq.Unexpected.take d.rs_unexpected p with
  | Some m -> match_msg st m p ~ready:p.p_time ~unexpected:true
  | None ->
      Mq.Posted.add d.rs_posted p;
      (* Liveness: if the message this receive is waiting for is parked at
         a flow-controlled sender, force its injection past the full
         buffer — it will match the posted receive, not the buffer. *)
      let parked = d.rs_parked in
      let n = Util.Deque.length parked and i = ref 0 and found = ref (-1) in
      while !found < 0 && !i < n do
        let q = Util.Deque.get parked !i in
        if Mq.accepts p ~src:q.q_src ~tag:q.q_tag ~comm:q.q_comm then found := !i
        else incr i
      done;
      if !found >= 0 then
        inject_parked st d (Util.Deque.remove_at parked !found) ~time:p.p_time
          ~reserved:false

(* ------------------------------------------------------------------ *)
(* Point-to-point calls                                                *)

(* A send returns when its request completes (blocking) or at once with
   the request (nonblocking, at [time]). *)
let[@inline] send_return st rank (req : req_state) ~blocking ~time =
  if blocking then block_on_req st rank W_send req.r_id
  else schedule st ~time (E_resume (rank, V_request req.r_id))

let do_send st rank (call : Call.t) ~blocking ~dst ~bytes ~tag =
  let net = st.net in
  let comm = call.comm in
  let dst_world = Comm.world_of_local comm dst in
  if dst_world = rank then
    raise (Mpi_error (Printf.sprintf "rank %d sending to itself" rank));
  let t0 = st.clock.(rank) in
  let req = new_req st in
  st.n_msgs <- st.n_msgs + 1;
  st.n_bytes <- st.n_bytes + bytes;
  if Netmodel.is_eager net ~bytes then begin
    let d = st.ranks.(dst_world) in
    let earlier_parked =
      let parked = d.rs_parked in
      let n = Util.Deque.length parked and i = ref 0 in
      while !i < n && (Util.Deque.get parked !i).q_src <> rank do
        incr i
      done;
      !i < n
    in
    (* a message that can never fit the buffer is admitted anyway once a
       matching receive is posted (it drains straight into the
       application); liveness depends on this *)
    let oversize = bytes > net.unexpected_buffer_bytes in
    let has_posted =
      Mq.Posted.mem d.rs_posted ~src:rank ~tag ~comm:(Comm.id comm)
    in
    if
      (not earlier_parked)
      && ((has_posted && oversize)
         || d.rs_buffered + bytes <= net.unexpected_buffer_bytes)
    then begin
      (* every eager payload occupies the receiver's buffer from injection
         until the receiver has processed it *)
      let reserved = true in
      d.rs_buffered <- d.rs_buffered + bytes;
      let ti = t0 +. net.overhead in
      transmit st
        {
          Mq.m_src = rank; m_dst = dst_world; m_tag = tag; m_bytes = bytes;
          m_comm = Comm.id comm; m_protocol = Mq.Eager;
          m_send_req = req.r_id; m_reserved = reserved;
        }
        ~depart:ti ~attempt:0;
      complete_req st req ~time:ti;
      send_return st rank req ~blocking ~time:ti
    end
    else begin
      (* Receiver's unexpected buffer is full (or ordering requires queueing
         behind an earlier stalled message): flow control stalls this send. *)
      st.n_stalls <- st.n_stalls + 1;
      Util.Deque.push_back d.rs_parked
        {
          q_src = rank; q_tag = tag; q_bytes = bytes;
          q_comm = Comm.id comm; q_call_time = t0; q_send_req = req.r_id;
        };
      send_return st rank req ~blocking ~time:(t0 +. net.overhead)
    end
  end
  else begin
    (* Rendezvous: only the RTS travels now. *)
    transmit st
      {
        Mq.m_src = rank; m_dst = dst_world; m_tag = tag; m_bytes = bytes;
        m_comm = Comm.id comm; m_protocol = Mq.Rendezvous;
        m_send_req = req.r_id; m_reserved = false;
      }
      ~depart:(t0 +. net.overhead) ~attempt:0;
    send_return st rank req ~blocking ~time:(t0 +. net.overhead)
  end

let do_recv st rank (call : Call.t) ~blocking ~src ~bytes:_ ~tag =
  let comm = call.comm in
  let t0 = st.clock.(rank) in
  let req = new_req st in
  let p_src =
    match (src : Call.source) with
    | Any_source -> None
    | Rank r ->
        let w = Comm.world_of_local comm r in
        if w = rank then
          raise (Mpi_error (Printf.sprintf "rank %d receiving from itself" rank));
        Some w
  in
  let p_tag = match (tag : Call.tag_match) with Any_tag -> None | Tag t -> Some t in
  let p =
    {
      Mq.p_req = req.r_id; p_src; p_tag; p_comm = Comm.id comm;
      p_time = t0 +. st.net.overhead;
    }
  in
  post_recv st rank p;
  if blocking then block_on_req st rank W_recv req.r_id
  else schedule st ~time:(t0 +. st.net.overhead) (E_resume (rank, V_request req.r_id))

(* ------------------------------------------------------------------ *)
(* Collectives                                                         *)

(* Invariant: a collective is finished only once every member has arrived,
   so its arrival list is non-empty wherever the cost and result are
   computed.  A violation is an engine bug; report it with enough context
   to debug rather than dying on a bare [Failure "hd"]. *)
let first_arrival (c : coll_state) =
  match c.c_arrivals with
  | a :: _ -> a
  | [] ->
      let members =
        c.c_set.ps_parts |> Array.to_list |> List.map string_of_int
        |> String.concat ","
      in
      raise
        (Mpi_error
           (Printf.sprintf
              "internal invariant violated: collective %s (communicator %d, \
               slot %d) completed with an empty arrival list; participants \
               {%s}"
              c.c_name (Comm.id c.c_comm) c.c_slot members))

(* A loop, not [Array.fold_left ( + )]: a v-collective sums a row per
   arrival, O(p) closure calls each at p ranks. *)
let sum (a : int array) =
  let s = ref 0 in
  for i = 0 to Array.length a - 1 do
    s := !s + a.(i)
  done;
  !s

(* The op of the arrival from [c]-local rank [root], or of the latest
   arrival when [root] has not arrived. *)
let op_of_root (c : coll_state) root =
  let rec find = function
    | [] ->
        let _, _, op = first_arrival c in
        op
    | (w, _, op) :: rest -> (
        match Comm.local_of_world_exn c.c_comm w with
        | l when l = root -> op
        | _ | (exception Not_found) -> find rest)
  in
  find c.c_arrivals

let coll_cost st (c : coll_state) =
  let net = st.net in
  let p = Comm.size c.c_comm in
  (* Representative op: the root's where rooted sizes matter, else any. *)
  let op_of_rank = op_of_root c in
  let (_, _, any_op) = first_arrival c in
  match any_op with
  | Barrier -> Netmodel.barrier_cost net ~p
  | Bcast { root; _ } -> (
      match op_of_rank root with
      | Bcast { bytes; _ } -> Netmodel.bcast_cost net ~p ~bytes
      | _ -> assert false)
  | Reduce { root; _ } -> (
      match op_of_rank root with
      | Reduce { bytes; _ } -> Netmodel.reduce_cost net ~p ~bytes
      | _ -> assert false)
  | Allreduce { bytes } -> Netmodel.allreduce_cost net ~p ~bytes
  | Gather { root; _ } -> (
      match op_of_rank root with
      | Gather { bytes_per_rank; _ } ->
          Netmodel.gather_cost net ~p ~total:((p - 1) * bytes_per_rank)
      | _ -> assert false)
  | Gatherv { root; _ } -> (
      match op_of_rank root with
      | Gatherv { bytes_from; _ } -> Netmodel.gather_cost net ~p ~total:(sum bytes_from)
      | _ -> assert false)
  | Scatter { root; _ } -> (
      match op_of_rank root with
      | Scatter { bytes_per_rank; _ } ->
          Netmodel.gather_cost net ~p ~total:((p - 1) * bytes_per_rank)
      | _ -> assert false)
  | Scatterv { root; _ } -> (
      match op_of_rank root with
      | Scatterv { bytes_to; _ } -> Netmodel.gather_cost net ~p ~total:(sum bytes_to)
      | _ -> assert false)
  | Allgather { bytes_per_rank } ->
      Netmodel.allgather_cost net ~p ~total:(p * bytes_per_rank)
  | Allgatherv { bytes_from } -> Netmodel.allgather_cost net ~p ~total:(sum bytes_from)
  | Alltoall { bytes_per_pair } ->
      Netmodel.alltoall_cost net ~p ~total:(p * bytes_per_pair)
  | Alltoallv _ ->
      (* Bottleneck rank's row determines the cost. *)
      let worst =
        List.fold_left
          (fun acc (_, _, op) ->
            match op with
            | Call.Alltoallv { bytes_to } -> max acc (sum bytes_to)
            | _ -> acc)
          0 c.c_arrivals
      in
      Netmodel.alltoall_cost net ~p ~total:worst
  | Reduce_scatter { bytes_per_rank } ->
      Netmodel.reduce_scatter_cost net ~p ~total:(sum bytes_per_rank)
  | Neighbor_alltoall _ | Neighbor_allgather _ ->
      (* Bottleneck caller: its degree and payload bound the exchange. *)
      List.fold_left
        (fun acc (_, _, op) ->
          match op with
          | Call.Neighbor_alltoall { neighbors; bytes_per_neighbor; _ } ->
              Float.max acc
                (Netmodel.neighbor_cost net ~degree:(Array.length neighbors)
                   ~bytes:bytes_per_neighbor)
          | Call.Neighbor_allgather { neighbors; bytes; _ } ->
              Float.max acc
                (Netmodel.neighbor_cost net
                   ~degree:(Array.length neighbors)
                   ~bytes)
          | _ -> acc)
        (Netmodel.neighbor_cost net ~degree:0 ~bytes:0)
        c.c_arrivals
  | Comm_split _ | Comm_dup | Finalize -> Netmodel.barrier_cost net ~p
  | Send _ | Isend _ | Recv _ | Irecv _ | Wait _ | Waitall _ | Compute _ | Wtime ->
      assert false

let split_comms st (c : coll_state) =
  (* color -> members ordered by (key, world rank) *)
  let by_color = Hashtbl.create 8 in
  List.iter
    (fun (w, _, op) ->
      match op with
      | Call.Comm_split { color; key } ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt by_color color) in
          Hashtbl.replace by_color color ((key, w) :: cur)
      | _ -> assert false)
    c.c_arrivals;
  let colors = Hashtbl.fold (fun color _ acc -> color :: acc) by_color [] in
  let colors = List.sort compare colors in
  let assignment = Hashtbl.create 8 in
  List.iter
    (fun color ->
      let members =
        Hashtbl.find by_color color |> List.sort compare |> List.map snd
        |> Array.of_list
      in
      let comm = new_comm st ~members in
      Array.iter (fun w -> Hashtbl.replace assignment w comm) members)
    colors;
  fun w -> Hashtbl.find assignment w

(* The representative op of a collective: the root's where rooted payload
   sizes matter (the root's [bytes] drives schedule expansion), else any
   arrival's. *)
let representative_op (c : coll_state) =
  let (_, _, any_op) = first_arrival c in
  match any_op with
  | Call.Bcast { root; _ } | Call.Reduce { root; _ } -> op_of_root c root
  | op -> op

(* Neighborhood collectives under a pluggable strategy: participants are
   indexed by position in the declared participant set; each arrival's
   neighbor list becomes a relative-offset array in that indexing.  When
   every participant declares the same offsets the schedule is the
   message-combining (isomorphic) form, otherwise the naive per-link
   expansion — {!Coll_alg.neighbor_schedule} decides. *)
let neighbor_times st (c : coll_state) =
  let comm = c.c_comm in
  let parts = c.c_set.ps_parts in
  let q = Array.length parts in
  let pos_of_world = Hashtbl.create q in
  Array.iteri (fun i w -> Hashtbl.replace pos_of_world w i) parts;
  let per_rank = Array.make q ([||], 0) in
  let start = Array.make q 0. in
  List.iter
    (fun (w, t, op) ->
      match Hashtbl.find_opt pos_of_world w with
      | None -> ()
      | Some i ->
          let neighbors, bytes =
            match op with
            | Call.Neighbor_alltoall { neighbors; bytes_per_neighbor; _ } ->
                (neighbors, bytes_per_neighbor)
            | Call.Neighbor_allgather { neighbors; bytes; _ } -> (neighbors, bytes)
            | _ -> ([||], 0)
          in
          let offsets =
            Array.map
              (fun nb ->
                let nb_world = Comm.world_of_local comm nb in
                match Hashtbl.find_opt pos_of_world nb_world with
                | Some j -> (j - i + q) mod q
                | None -> 0)
              neighbors
          in
          Array.sort compare offsets;
          per_rank.(i) <- (offsets, bytes);
          start.(i) <- t +. st.net.collective_dispatch)
    c.c_arrivals;
  let fin = Coll_alg.timings st.net (Coll_alg.neighbor_schedule ~per_rank) ~start in
  Some (fun w ->
      match Hashtbl.find_opt pos_of_world w with
      | Some i -> Some fin.(i)
      | None -> None)

(* Under a pluggable strategy, a lookup from world rank to schedule
   completion time, or [None] for the monolithic analytic path.
   Communicator management and [Finalize] always stay monolithic (they
   synchronize, they do not move data). *)
let coll_schedule_times st (c : coll_state) =
  match st.coll_alg with
  | `Monolithic -> None
  | sel -> (
      let (_, _, any_op) = first_arrival c in
      match any_op with
      | Call.Comm_split _ | Call.Comm_dup | Call.Finalize -> None
      | Call.Neighbor_alltoall _ | Call.Neighbor_allgather _ ->
          neighbor_times st c
      | _ -> (
          let p = Comm.size c.c_comm in
          let op = representative_op c in
          match Coll_alg.expand (Coll_alg.select sel ~op ~p) ~op ~p with
          | None -> None
          | Some sched ->
              (* Each rank enters the schedule when it arrives, paying the
                 dispatch cost once per logical collective. *)
              let start = Array.make p 0. in
              List.iter
                (fun (w, t, _) ->
                  match Comm.local_of_world c.c_comm w with
                  | Some l -> start.(l) <- t +. st.net.collective_dispatch
                  | None -> ())
                c.c_arrivals;
              let fin = Coll_alg.timings st.net sched ~start in
              Some
                (fun w ->
                  match Comm.local_of_world c.c_comm w with
                  | Some l -> Some fin.(l)
                  | None -> None)))

(* One completion event per logical collective, with its participants in
   arrival order; built only when a hook listens. *)
let fire_collective_complete st ~time (c : coll_state) =
  let hooks = st.hooks in
  if Array.length hooks > 0 then begin
    let participants =
      Array.of_list (List.rev_map (fun (w, _, _) -> w) c.c_arrivals)
    in
    let comm = Comm.id c.c_comm in
    for i = 0 to Array.length hooks - 1 do
      hooks.(i).Hooks.on_collective_complete ~time ~comm ~name:c.c_name
        ~participants
    done
  end

let finish_collective st (c : coll_state) =
  Itbl.remove c.c_set.ps_open c.c_slot;
  let t_all = ref 0. and rest = ref c.c_arrivals and more = ref true in
  while !more do
    match !rest with
    | (_, t, _) :: tl ->
        t_all := Float.max !t_all t;
        rest := tl
    | [] -> more := false
  done;
  let t_all = !t_all in
  let (_, _, any_op) = first_arrival c in
  let value_for =
    match any_op with
    | Call.Comm_split _ ->
        let lookup = split_comms st c in
        fun w -> Call.V_comm (lookup w)
    | Call.Comm_dup ->
        let comm = new_comm st ~members:(Comm.members c.c_comm) in
        fun _ -> Call.V_comm comm
    | Call.Finalize ->
        fun w ->
          st.ranks.(w).rs_finalized <- true;
          Call.V_unit
    | _ -> fun _ -> Call.V_unit
  in
  (* Whichever strategy runs, exactly one completion event fires for the
     logical collective, timestamped at its last rank's completion. *)
  match coll_schedule_times st c with
  | None ->
      let done_at = t_all +. coll_cost st c in
      List.iter
        (fun (w, _, _) -> schedule st ~time:done_at (E_resume (w, value_for w)))
        c.c_arrivals;
      fire_collective_complete st ~time:done_at c
  | Some fin_of ->
      let done_at =
        List.fold_left
          (fun acc (w, _, _) ->
            match fin_of w with Some t -> Float.max acc t | None -> acc)
          t_all c.c_arrivals
      in
      List.iter
        (fun (w, _, _) ->
          let at = match fin_of w with Some t -> t | None -> done_at in
          schedule st ~time:at (E_resume (w, value_for w)))
        c.c_arrivals;
      fire_collective_complete st ~time:done_at c

let mpi_error fmt = Printf.ksprintf (fun msg -> raise (Mpi_error msg)) fmt

(* [check_local_ranks ~rank ~name ~what comm a]: [a] names strictly
   increasing local ranks of [comm]. *)
let check_local_ranks ~rank ~name ~what comm a =
  let size = Comm.size comm in
  for i = 0 to Array.length a - 1 do
    let v = a.(i) in
    if v < 0 || v >= size then
      mpi_error
        "rank %d: %s %s names local rank %d outside communicator %d (size \
         %d)"
        rank name what v (Comm.id comm) size;
    if i > 0 && a.(i - 1) >= v then
      mpi_error "rank %d: %s %s must be strictly increasing" rank name what
  done

let index_of (a : int array) v =
  let i = ref 0 in
  while !i < Array.length a && a.(!i) <> v do
    incr i
  done;
  if !i < Array.length a then !i else -1

(* Validate a neighborhood collective's declared participant set for the
   calling rank (local rank [local]): strictly increasing
   communicator-local ranks, within the communicator, containing the
   caller; the neighbor list strictly increasing, a subset of the
   participant set, never the caller.  [[||]] participants mean the
   whole communicator. *)
let check_neighborhood ~rank ~local (call : Call.t) ~parts ~neighbors =
  let name = Call.op_name call.op in
  let whole = Array.length parts = 0 in
  if not whole then begin
    check_local_ranks ~rank ~name ~what:"participant set" call.comm parts;
    if index_of parts local < 0 then
      mpi_error
        "rank %d (local %d) calls %s but is not in its declared participant set"
        rank local name
  end;
  check_local_ranks ~rank ~name ~what:"neighbor list" call.comm neighbors;
  Array.iter
    (fun nb ->
      if nb = local then
        mpi_error "rank %d: %s neighbor list contains itself" rank name;
      if not (whole || index_of parts nb >= 0) then
        mpi_error
          "rank %d: %s neighbor %d is outside the declared participant set"
          rank name nb)
    neighbors

(* The declared participant set [parts] (local ranks) of communicator
   [cm], found by its contents, or made on the first arrival: its key is
   a copy, its world ranks are translated once. *)
let declared_set (cm : comm_state) parts =
  match Parts_tbl.find cm.cm_sets parts with
  | set -> set
  | exception Not_found ->
      let key = Array.copy parts in
      let set =
        {
          ps_parts = Array.map (Comm.world_of_local cm.cm_comm) key;
          ps_next = Array.make (Array.length key) 0;
          ps_open = Itbl.create 4;
        }
      in
      Parts_tbl.add cm.cm_sets key set;
      set

let no_parts : int array = [||]

let do_collective st rank (call : Call.t) =
  let comm = call.comm in
  let local =
    match Comm.local_of_world_exn comm rank with
    | l -> l
    | exception Not_found ->
        mpi_error "rank %d calling %s on communicator %d it is not in" rank
          (Call.op_name call.op) (Comm.id comm)
  in
  let cid = Comm.id comm in
  let parts =
    match call.op with
    | Call.Neighbor_alltoall { parts; neighbors; _ }
    | Call.Neighbor_allgather { parts; neighbors; _ } ->
        check_neighborhood ~rank ~local call ~parts ~neighbors;
        parts
    | _ -> no_parts
  in
  let cm = comm_state st cid in
  let whole = Array.length parts = 0 in
  let set = if whole then cm.cm_full else declared_set cm parts in
  let pos = if whole then local else index_of parts local in
  let slot = set.ps_next.(pos) in
  set.ps_next.(pos) <- slot + 1;
  let c =
    match Itbl.find set.ps_open slot with
    | c -> c
    | exception Not_found ->
        let c =
          {
            c_comm = comm;
            c_name = Call.op_name call.op;
            c_slot = slot;
            c_set = set;
            c_arrivals = [];
            c_count = 0;
          }
        in
        Itbl.add set.ps_open slot c;
        c
  in
  if c.c_name <> Call.op_name call.op then
    mpi_error
      "collective mismatch on communicator %d: rank %d calls %s at %s but \
       another rank called %s"
      cid rank (Call.op_name call.op)
      (Util.Callsite.to_string call.site)
      c.c_name;
  c.c_arrivals <- (rank, st.clock.(rank), call.op) :: c.c_arrivals;
  c.c_count <- c.c_count + 1;
  if c.c_count = Array.length set.ps_parts then finish_collective st c

(* ------------------------------------------------------------------ *)
(* Call dispatch                                                       *)

let handle_call st rank (k : fiber) =
  let rs = st.ranks.(rank) in
  let call = rs.rs_call in
  rs.rs_fiber <- Some k;
  fire_enter st rank call;
  match call.op with
  | Send { dst; bytes; tag } -> do_send st rank call ~blocking:true ~dst ~bytes ~tag
  | Isend { dst; bytes; tag } -> do_send st rank call ~blocking:false ~dst ~bytes ~tag
  | Recv { src; bytes; tag } -> do_recv st rank call ~blocking:true ~src ~bytes ~tag
  | Irecv { src; bytes; tag } -> do_recv st rank call ~blocking:false ~src ~bytes ~tag
  | Wait r -> block_on_req st rank W_wait r
  | Waitall rs_ -> block_on_reqs st rank rs_
  | Compute d ->
      if not (Float.is_finite d) || d < 0. then
        raise (Mpi_error "compute: duration must be finite and non-negative");
      let d =
        match st.fault with
        | Some f -> d *. Fault.compute_factor f ~rank
        | None -> d
      in
      schedule st ~time:(st.clock.(rank) +. d) (E_resume (rank, V_unit))
  | Wtime ->
      let now = st.clock.(rank) in
      schedule st ~time:now (E_resume (rank, V_time now))
  | Barrier | Bcast _ | Reduce _ | Allreduce _ | Gather _ | Gatherv _
  | Allgather _ | Allgatherv _ | Scatter _ | Scatterv _ | Alltoall _
  | Alltoallv _ | Reduce_scatter _ | Neighbor_alltoall _ | Neighbor_allgather _
  | Comm_split _ | Comm_dup | Finalize ->
      do_collective st rank call

(* ------------------------------------------------------------------ *)
(* Run loop                                                            *)

let run ?(hooks = []) ?(net = Netmodel.bluegene_l) ?fault ?max_events
    ?max_virtual_time ?(coll_alg : Coll_alg.t = `Monolithic)
    ?(obs = Obs.Sink.nil) ~nranks program =
  if nranks < 1 then raise (Mpi_error "run: nranks must be >= 1");
  (* With a live sink, transport incidents and collective completions are
     observed through the standard hook mechanism. *)
  let hooks = if obs.Obs.Sink.enabled then hooks @ [ Hooks.observer obs ] else hooks in
  (match max_events with
  | Some m when m <= 0 -> raise (Mpi_error "run: max_events must be positive")
  | _ -> ());
  (match max_virtual_time with
  | Some t when not (Float.is_finite t) || t <= 0. ->
      raise (Mpi_error "run: max_virtual_time must be positive and finite")
  | _ -> ());
  let fault =
    match fault with
    | Some plan when not (Fault.is_noop plan) -> Some (Fault.start plan)
    | _ -> None
  in
  let world = Comm.world nranks in
  let st =
    {
      net;
      nranks;
      ranks =
        Array.init nranks (fun rank ->
            {
              rs_rank = rank; rs_finished = false; rs_finalized = false;
              rs_call = no_call; rs_fiber = None;
              rs_posted = Mq.Posted.create ();
              rs_unexpected = Mq.Unexpected.create ();
              rs_buffered = 0;
              rs_parked = Util.Deque.create ~capacity:4 ();
            });
      clock = Array.make nranks 0.;
      proc_free = Array.make nranks 0.;
      nic_free = Array.make nranks 0.;
      events = Util.Pqueue.create ();
      reqs = Itbl.create 1024;
      next_req = 0;
      comms = [||];
      next_comm = 0;
      coll_alg;
      hooks = Array.of_list hooks;
      fault;
      max_events;
      max_virtual_time;
      obs;
      vt = { now = 0. };
      n_events = 0;
      n_msgs = 0;
      n_bytes = 0;
      n_unexpected = 0;
      n_stalls = 0;
      n_inflight_bytes = 0;
    }
  in
  register_comm st world;
  let start_fiber rank =
    let rs = st.ranks.(rank) in
    let body () =
      program { rank; nranks; world };
      if not rs.rs_finalized then
        raise
          (Mpi_error (Printf.sprintf "rank %d returned without MPI_Finalize" rank));
      rs.rs_finished <- true
    in
    (* One handler per rank: a call is parked in [rs_call] and handed to
       the same continuation consumer, so performing allocates neither an
       option nor a closure. *)
    let on_call = Some (fun (k : fiber) -> handle_call st rank k) in
    Effect.Deep.match_with body ()
      {
        retc = (fun () -> ());
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) :
               ((a, unit) Effect.Deep.continuation -> unit) option ->
            match eff with
            | Mpi_call call ->
                rs.rs_call <- call;
                on_call
            | _ -> None);
      }
  in
  let resume rank v =
    let rs = st.ranks.(rank) in
    let clock = Float.max st.clock.(rank) st.vt.now in
    st.clock.(rank) <- clock;
    let call = rs.rs_call in
    if call != no_call then fire_return st rank clock call v;
    rs.rs_call <- no_call;
    match rs.rs_fiber with
    | None -> raise (Mpi_error (Printf.sprintf "resume of idle rank %d" rank))
    | Some k ->
        rs.rs_fiber <- None;
        Effect.Deep.continue k v
  in
  for rank = 0 to nranks - 1 do
    schedule st ~time:0. (E_start rank)
  done;
  let events = st.events in
  while not (Util.Pqueue.is_empty events) do
    st.vt.now <- Util.Pqueue.min_time events;
    let ev = Util.Pqueue.pop_min events in
    st.n_events <- st.n_events + 1;
    (* Watchdog: a run that exceeds its budgets is reported as Stalled
       with a per-rank diagnostic instead of spinning forever. *)
    (match st.max_events with
    | Some budget when st.n_events > budget ->
        raise
          (Stalled
             (stalled_report st
                ~reason:
                  (Printf.sprintf "event budget exhausted (max_events = %d)"
                     budget)))
    | _ -> ());
    (match st.max_virtual_time with
    | Some budget when st.vt.now > budget ->
        raise
          (Stalled
             (stalled_report st
                ~reason:
                  (Printf.sprintf
                     "virtual-time budget exhausted (max_virtual_time = %gs)"
                     budget)))
    | _ -> ());
    (match ev with
    | E_start rank -> start_fiber rank
    | E_resume (rank, v) -> resume rank v
    | E_deliver m -> deliver st m
    | E_retransmit (m, attempt) -> transmit st m ~depart:st.vt.now ~attempt);
    if st.obs.Obs.Sink.enabled && st.n_events mod obs_sample_period = 0 then
      obs_sample st
  done;
  if Array.exists (fun rs -> not rs.rs_finished) st.ranks then
    raise (Deadlock (deadlock_report st));
  if st.obs.Obs.Sink.enabled then obs_sample st;
  let finish_times = Array.copy st.clock in
  let fstats =
    match st.fault with
    | Some f -> Fault.stats f
    | None -> { Fault.retries = 0; timeouts = 0; dropped = 0 }
  in
  {
    elapsed = Array.fold_left Float.max 0. finish_times;
    finish_times;
    events = st.n_events;
    messages = st.n_msgs;
    p2p_bytes = st.n_bytes;
    unexpected = st.n_unexpected;
    flow_stalls = st.n_stalls;
    retries = fstats.retries;
    timeouts = fstats.timeouts;
    dropped = fstats.dropped;
  }
