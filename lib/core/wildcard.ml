open Scalatrace

exception Potential_deadlock of string
exception Wildcard_error of string

(* A pending (unmatched) point-to-point operation instance. *)
type entry = {
  owner : int;
  peer : int option; (* None: wildcard receive; always Some on sends *)
  tag : int; (* -1 on receives: any tag *)
  comm : int;
  seq : int; (* position in the owner's program order *)
  ev : Event.t; (* physical RSD event, for resolution recording *)
}

(* Why [step] parked a rank; collectives park inside the walk. *)
type blocked_reason = B_send of entry | B_recv of entry | B_wait

(* Certificate ledger of one (src, dst, comm, tag) channel: program-order
   positions of the last send and the last receive matched on it. *)
type channel = { mutable last_send : int; mutable last_recv : int }

let matches ~(send : entry) ~(recv : entry) =
  recv.comm = send.comm
  && (recv.tag = -1 || recv.tag = send.tag)
  && match recv.peer with None -> true | Some p -> p = send.owner

let describe_entry what e =
  Printf.sprintf "%s by rank %d (peer %s, comm %d)" what
    e.owner
    (match e.peer with Some p -> string_of_int p | None -> "ANY")
    e.comm

type strategy = [ `Traversal | `Timed | `Auto ]

type verdict = Certified | Refused of string

let id_in (trace : Trace.t) =
  let leaf_id = Trace.leaf_index trace in
  fun e ->
    match leaf_id e with
    | Some i -> i
    | None -> raise (Wildcard_error "internal: event not part of the trace")

(* Phase 2 shared by both strategies: rewrite the trace, pinning each
   wildcard receive *instance* to its matched sender.  [queues] maps
   (leaf index, rank) to the senders in instance order.

   The rewrite is in place and local: RSDs whose instances all resolved to
   the same source just get their peer replaced; a loop that contains a
   wildcard RSD is unrolled and immediately recompressed, so alternating
   resolutions split the RSD (preserving per-sender message counts — the
   generated benchmark cannot hang on a count mismatch) while consistent
   ones fold back to the original structure. *)
let rebuild_resolved (trace : Trace.t) queues =
  let nranks = Trace.nranks trace in
  let id_of = id_in trace in
  let pop ~leaf ~rank =
    match Hashtbl.find_opt queues (leaf, rank) with
    | Some q -> (
        match !q with
        | src :: rest ->
            q := rest;
            src
        | [] ->
            raise
              (Wildcard_error "wildcard receive instance without a matched sender"))
    | None ->
        raise (Wildcard_error "wildcard receive never matched during traversal")
  in
  let rec has_wildcard nodes =
    List.exists
      (function
        | Tnode.Leaf e -> e.Event.peer = Event.P_any
        | Tnode.Loop { body; _ } -> has_wildcard body)
      nodes
  in
  (* Emit one instance of a wildcard RSD with this instance's sources. *)
  let resolve_instance (e : Event.t) =
    let leaf = id_of e in
    let obs =
      Util.Rank_set.fold (fun r acc -> (r, pop ~leaf ~rank:r) :: acc) e.Event.ranks []
      |> List.sort compare
    in
    let e' = Event.copy e in
    e'.Event.peer <- Event.P_map obs;
    Event.generalize ~nranks e';
    e'
  in
  let rec rewrite_into out nodes =
    List.iter
      (fun node ->
        match node with
        | Tnode.Leaf e ->
            if e.Event.peer = Event.P_any then
              Compress.push out (resolve_instance e)
            else Compress.push_node out (Tnode.copy node)
        | Tnode.Loop { count; body; _ } ->
            if has_wildcard body then
              (* unroll: each iteration consumes one resolution per
                 wildcard leaf per rank; the compressor folds consistent
                 iterations back together *)
              for _ = 1 to count do
                rewrite_into out body
              done
            else Compress.push_node out (Tnode.copy node))
      nodes
  in
  let out = Compress.create ~nranks () in
  rewrite_into out (Trace.nodes trace);
  Trace.with_nodes trace (Compress.contents out)

(* Phase 1, untimed: the paper's Algorithm 2 traversal.  Returns the
   resolution queues and, for the certificate (see [certify]), the reason
   the traversal's own matching cannot vouch for them, if any. *)
let traversal_resolve (trace : Trace.t) =
  let nranks = Trace.nranks trace in
  let walk = Traversal.walk ~fail:(fun msg -> Wildcard_error msg) trace in
  let blocked = Array.make nranks None in
  (* L1: each rank's own unmatched operations *)
  let n_pending = Array.make nranks 0 in
  (* L2: operations awaiting a match in posting order, indexed by the rank
     that must match them.  pending_sends.(d) are sends destined for d;
     pending_recvs.(r) are receives posted by r (so a send to r scans
     them). *)
  let pending_sends = Array.init nranks (fun _ -> Util.Deque.create ~capacity:4 ()) in
  let pending_recvs = Array.init nranks (fun _ -> Util.Deque.create ~capacity:4 ()) in
  (* RSD identity: structural hashing would conflate distinct-but-equal
     events, so leaves get explicit ids by physical identity. *)
  let id_of = id_in trace in
  (* Matching senders per (wildcard RSD, receiving rank), one per instance
     in match order, with the program-order position of the last matched
     instance.  Match order equals instance order because a pending
     receive and a compatible pending send never coexist; the position
     check turns that argument into a certificate condition. *)
  let resolutions : (int * int, int list ref * int ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let ledger : (int * int * int * int, channel) Hashtbl.t = Hashtbl.create 256 in
  let in_order = ref true in
  let push_resolution key (recv : entry) src =
    match Hashtbl.find_opt resolutions key with
    | Some (q, last) ->
        if recv.seq <= !last then in_order := false;
        q := src :: !q;
        last := recv.seq
    | None -> Hashtbl.replace resolutions key (ref [ src ], ref recv.seq)
  in
  (* Certificate condition 3: on every channel the k-th send in sender
     program order meets the k-th receive in receiver program order.  With
     every operation eventually matched, monotone positions on both sides
     are exactly that. *)
  let record_channel (send : entry) (recv : entry) =
    let key = (send.owner, recv.owner, send.comm, send.tag) in
    match Hashtbl.find_opt ledger key with
    | Some c ->
        if send.seq <= c.last_send || recv.seq <= c.last_recv then
          in_order := false;
        c.last_send <- send.seq;
        c.last_recv <- recv.seq
    | None -> Hashtbl.add ledger key { last_send = send.seq; last_recv = recv.seq }
  in
  let unblock r =
    blocked.(r) <- None;
    Traversal.resume walk r
  in
  (* [waiting] is the side that sat in L2; blocked owners whose condition
     is now satisfied resume past their blocking event. *)
  let do_match ~(waiting : entry) (send : entry) (recv : entry) =
    n_pending.(waiting.owner) <- n_pending.(waiting.owner) - 1;
    record_channel send recv;
    (if recv.ev.Event.peer = Event.P_any then
       push_resolution (id_of recv.ev, recv.owner) recv send.owner);
    let maybe_unblock owner (matched : entry) =
      match blocked.(owner) with
      | Some (B_send e | B_recv e) when e == matched -> unblock owner
      | Some B_wait when n_pending.(owner) = 0 -> unblock owner
      | _ -> ()
    in
    maybe_unblock send.owner send;
    maybe_unblock recv.owner recv
  in
  (* matched-count per (sender, wildcard receiver): used to balance
     wildcard matching across senders, mirroring the round-robin arrival
     pattern of wavefront codes *)
  let channel_counts : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let bump_channel src dst =
    Hashtbl.replace channel_counts (src, dst)
      (1 + Option.value ~default:0 (Hashtbl.find_opt channel_counts (src, dst)))
  in
  (* Matching attempts for a newly traversed op (the L2 lookup). *)
  let try_match_send (send : entry) =
    let dst = Option.get send.peer in
    match Util.Deque.remove_first (fun recv -> matches ~send ~recv) pending_recvs.(dst) with
    | Some recv ->
        if recv.peer = None then bump_channel send.owner recv.owner;
        do_match ~waiting:recv send recv;
        true
    | None -> false
  in
  let try_match_recv (recv : entry) =
    let queue = pending_sends.(recv.owner) in
    let candidate =
      match recv.peer with
      | Some _ -> Util.Deque.remove_first (fun send -> matches ~send ~recv) queue
      | None -> (
          (* wildcard: prefer the sender least used on this channel so
             far, breaking ties by pending order *)
          let best =
            Util.Deque.fold
              (fun best (send : entry) ->
                if not (matches ~send ~recv) then best
                else
                  let c =
                    Option.value ~default:0
                      (Hashtbl.find_opt channel_counts (send.owner, recv.owner))
                  in
                  match best with
                  | Some (_, bc) when bc <= c -> best
                  | _ -> Some (send, c))
              None queue
          in
          match best with
          | Some (send, _) -> Util.Deque.remove_first (fun s -> s == send) queue
          | None -> None)
    in
    match candidate with
    | Some send ->
        if recv.peer = None then bump_channel send.owner recv.owner;
        do_match ~waiting:send send recv;
        true
    | None -> false
  in
  let world_peer (e : Event.t) rank =
    match Event.peer_of e ~rank ~nranks with
    | Some p -> p
    | None ->
        raise
          (Wildcard_error
             (Printf.sprintf "rank %d: unresolvable peer in %s" rank
                (Event.kind_name e.kind)))
  in
  (* A rank's operation that is not a collective; [false] parks the rank
     until a match unblocks it. *)
  let step ~rank:r ~seq (e : Event.t) =
    let block reason =
      blocked.(r) <- Some reason;
      false
    in
    let post queue entry =
      Util.Deque.push_back queue entry;
      n_pending.(r) <- n_pending.(r) + 1
    in
    match e.kind with
    | Event.E_send | Event.E_isend ->
        let dst = world_peer e r in
        let entry =
          { owner = r; peer = Some dst; tag = e.tag; comm = e.comm; seq; ev = e }
        in
        if try_match_send entry then true
        else begin
          post pending_sends.(dst) entry;
          e.kind <> Event.E_send || block (B_send entry)
        end
    | Event.E_recv | Event.E_irecv ->
        (* wildcard RSDs keep matching as wildcards on every loop
           iteration; only the first match pins the recorded source *)
        let peer =
          match e.peer with
          | Event.P_any -> None
          | _ -> Some (world_peer e r)
        in
        let entry = { owner = r; peer; tag = e.tag; comm = e.comm; seq; ev = e } in
        if try_match_recv entry then true
        else begin
          post pending_recvs.(r) entry;
          e.kind <> Event.E_recv || block (B_recv entry)
        end
    | Event.E_wait | Event.E_waitall _ -> n_pending.(r) = 0 || block B_wait
    | _ -> raise (Wildcard_error "unhandled event kind in traversal")
  in
  let deadlock_message () =
    let at_collective = Hashtbl.create 8 in
    List.iter
      (fun (c : Traversal.collective) ->
        List.iter (fun (r, _) -> Hashtbl.replace at_collective r c) c.arrivals)
      (Traversal.pending walk);
    let buf = Buffer.create 256 in
    Buffer.add_string buf "potential deadlock: every unfinished rank is blocked:";
    for r = 0 to nranks - 1 do
      if not (Traversal.finished walk r) then begin
        let what =
          match (blocked.(r), Hashtbl.find_opt at_collective r) with
          | Some (B_send e), _ -> "blocking " ^ describe_entry "send" e
          | Some (B_recv e), _ -> "blocking " ^ describe_entry "receive" e
          | Some B_wait, _ ->
              Printf.sprintf "a wait on %d pending operations" n_pending.(r)
          | None, Some c ->
              Printf.sprintf "a collective on communicator %d (slot %d)" c.comm c.slot
          | None, None -> "<runnable>"
        in
        Buffer.add_string buf (Printf.sprintf "\n  rank %d blocked on %s" r what)
      end
    done;
    Buffer.contents buf
  in
  (* Scheduling is the walk's ({!Traversal.run}).  Matching unblocks ranks
     eagerly, so "every unfinished rank is blocked" is exactly the paper's
     sufficient deadlock condition: the traversal has returned to a blocked
     node with no unblocking event possible. *)
  if not (Traversal.run walk ~step ~complete:ignore) then
    raise (Potential_deadlock (deadlock_message ()));
  let refusal =
    if not !in_order then Some "a channel matched out of program order"
    else if Array.exists (fun n -> n > 0) n_pending then
      Some "operations left unmatched at the end of the traversal"
    else None
  in
  let queues = Hashtbl.create (Hashtbl.length resolutions) in
  Hashtbl.iter (fun k (q, _) -> Hashtbl.replace queues k (ref (List.rev !q))) resolutions;
  (queues, refusal)

(* Certificate condition 2: with MPI_ANY_TAG a receive is not bound to one
   channel.  Replay sends a negative tag as tag 0, which the traversal
   would not match the same way, so any negative p2p tag refuses. *)
let uses_negative_tag trace =
  let found = ref false in
  Tnode.iter_leaves
    (fun e -> if Event.is_p2p e.Event.kind && e.Event.tag < 0 then found := true)
    (Trace.nodes trace);
  !found

(* Soundness of [Certified]: with every source pinned and every tag
   concrete, MPI matching is per-channel FIFO and so independent of the
   schedule.  The ledger shows the traversal paired exactly those FIFO
   partners and left nothing unmatched, so it is one complete execution of
   the pinned program — under blocking rules at least as strict as the
   engine's: a blocking send waits for its match (rendezvous), a wait
   waits for all of the rank's pending operations, and every collective
   synchronizes all its members.  The engine never blocks where
   zero-buffer semantics would not (post_recv forces a parked matching
   send in), so [Replay.run] of the resolved trace completes too.  The
   exact-consumption check ties the rebuilt trace to that execution. *)
let certify trace =
  let queues, refusal = traversal_resolve trace in
  let resolved = rebuild_resolved trace queues in
  let verdict =
    if uses_negative_tag trace then
      Refused "a point-to-point event uses MPI_ANY_TAG or a negative tag"
    else
      match refusal with
      | Some reason -> Refused reason
      | None ->
          if Hashtbl.fold (fun _ q ok -> ok && !q = []) queues true then Certified
          else Refused "the rebuild left resolutions unconsumed"
  in
  (resolved, verdict)

let timed_resolve ?net (trace : Trace.t) =
  let result =
    try Replay.run ?net trace
    with Mpisim.Engine.Deadlock msg ->
      raise (Potential_deadlock ("replay of the traced execution hangs: " ^ msg))
  in
  let queues = Hashtbl.create 64 in
  List.iter
    (fun (key, srcs) -> Hashtbl.replace queues key (ref srcs))
    result.Replay.wildcard_matches;
  queues

let run ?(strategy = `Auto) ?net ?(on_fallback = fun _ -> ()) (trace : Trace.t) =
  match strategy with
  | `Traversal -> rebuild_resolved trace (fst (traversal_resolve trace))
  | `Timed -> rebuild_resolved trace (timed_resolve ?net trace)
  | `Auto -> (
      match certify trace with
      | exception Potential_deadlock msg ->
          (* The untimed traversal wedged.  Replaying the trace decides
             whether that is a genuine hazard: a hanging replay re-raises
             from timed_resolve; a completing one resolves the wildcards
             from an actual execution. *)
          on_fallback
            ("untimed traversal reported a potential deadlock; falling back \
              to timed resolution: " ^ msg);
          rebuild_resolved trace (timed_resolve ?net trace)
      | resolved, Certified -> resolved
      | resolved, Refused _ -> (
          (* Outside the certificate an assignment is acceptable only if
             the resolved trace actually executes. *)
          match Replay.run ?net resolved with
          | _ -> resolved
          | exception Mpisim.Engine.Deadlock _ ->
              on_fallback
                "untimed wildcard assignment failed replay validation; \
                 falling back to timed resolution";
              rebuild_resolved trace (timed_resolve ?net trace)))

let resolve_if_needed ?net ?on_fallback trace =
  if Trace.has_wildcards trace then (run ?net ?on_fallback trace, true)
  else (trace, false)
