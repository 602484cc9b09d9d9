open Scalatrace

exception Align_error of string

type policy = [ `Strict | `Best_effort ]

type stall = {
  st_edges : Util.Waitgraph.edge list;
  st_missing : int list;
}

exception Incomplete of stall

type outcome = {
  out : Trace.t;
  stall : stall option;
  cut_anchors : int option;
  dropped_events : int;
}

(* One RSD for the complete participant set, hoisted to a single call
   point (the smallest rank's site). *)
let merge_collective ({ comm; slot; members; arrivals; _ } : Traversal.collective) =
  let arrivals = List.sort (fun (a, _) (b, _) -> compare a b) arrivals in
  match arrivals with
  | [] ->
      raise
        (Align_error
           (Printf.sprintf
              "internal: collective on communicator %d (slot %d) completed \
               with no arrivals"
              comm slot))
  | (_, first) :: rest ->
      List.iter
        (fun (r, (e : Event.t)) ->
          if not (Event.kind_equal e.Event.kind first.Event.kind) then
            raise
              (Align_error
                 (Printf.sprintf
                    "collective mismatch on communicator %d (slot %d): rank %d \
                     calls %s but rank 0 of the group calls %s"
                    comm slot r (Event.kind_name e.kind)
                    (Event.kind_name first.kind))))
        rest;
      let n = List.length arrivals in
      let all_bytes = List.map (fun (_, (e : Event.t)) -> e.bytes) arrivals in
      let bytes =
        if List.for_all (fun b -> b = first.bytes) all_bytes then first.bytes
        else begin
          (* Rounded (half-up) mean, overflow-safe: accumulate quotients and
             remainders separately instead of summing the raw byte counts,
             which can exceed [max_int] on wide communicators. *)
          let q = ref 0 and r = ref 0 in
          List.iter
            (fun b ->
              q := !q + (b / n);
              r := !r + (b mod n))
            all_bytes;
          let mean = !q + (!r / n) in
          if 2 * (!r mod n) >= n then mean + 1 else mean
        end
      in
      (* [vec] and [parts] are never mutated, so the merged RSD shares
         them; arrivals at one RSD share its event, hence its [vec] *)
      let vec =
        if
          List.for_all
            (fun (_, (e : Event.t)) -> e.vec == first.vec || e.vec = first.vec)
            arrivals
        then first.vec
        else None
      in
      let peer =
        (* rooted collectives must agree on the root *)
        match first.peer with
        | Event.P_abs root ->
            List.iter
              (fun (r, (e : Event.t)) ->
                match e.peer with
                | Event.P_abs root' when root' = root -> ()
                | Event.P_map _ when e.kind = Event.E_comm_split -> ()
                | _ ->
                    if e.kind <> Event.E_comm_split then
                      raise
                        (Align_error
                           (Printf.sprintf
                              "root mismatch in %s on communicator %d (rank %d)"
                              (Event.kind_name e.kind) comm r)))
              arrivals;
            first.peer
        | p -> p
      in
      let dtime = Util.Histogram.create () in
      List.iter
        (fun (_, (e : Event.t)) -> Util.Histogram.merge_into dtime e.dtime)
        arrivals;
      {
        Event.site = first.site;
        kind = first.kind;
        peer;
        bytes;
        vec;
        tag = first.tag;
        comm = first.comm;
        parts = first.parts;
        dtime;
        ranks = members;
        hcache = 0;
      }

(* The wait-for graph when the walk ends with ranks unfinished: one edge
   per rank parked at a pending collective, naming the members whose
   arrival it still needs and — as [missing] — those that can never
   arrive because their stream ended.  With no such member, every parked
   rank waits on another parked rank: a cycle. *)
let stall_of walk =
  let edges =
    List.concat_map
      (fun (c : Traversal.collective) ->
        let absent = ref [] in
        for i = Array.length c.member_arr - 1 downto 0 do
          if not c.arrived.(i) then absent := c.member_arr.(i) :: !absent
        done;
        let absent = !absent in
        let dead = List.filter (Traversal.finished walk) absent in
        List.map
          (fun (r, (e : Event.t)) ->
            Util.Waitgraph.edge ~rank:r
              ~what:
                (Printf.sprintf "%s at %s (communicator %d, slot %d)"
                   (Event.kind_name e.kind)
                   (Util.Callsite.to_string e.site)
                   c.comm c.slot)
              ~waiting_on:absent ~missing:dead ())
          c.arrivals)
      (Traversal.pending walk)
  in
  match Util.Waitgraph.missing_ranks edges with
  | [] ->
      raise
        (Align_error
           "cyclic collective dependency across communicators (mismatched \
            collective ordering in the application)")
  | st_missing -> { st_edges = edges; st_missing }

let stall_message stall =
  Util.Waitgraph.format
    ~header:
      "alignment cannot complete: collective participants will never arrive \
       (trace truncated?)"
    stall.st_edges

(* Algorithm 1 on the shared walk ({!Traversal.run}): an event that is
   not a collective is emitted as its rank reaches it, a collective once,
   merged, when its last member arrives.  The walk ends by construction,
   and ends with ranks unfinished only at a cycle or at *dead waits* — a
   parked collective whose missing member's stream already ended.  Under
   [`Strict] a dead wait raises; under [`Best_effort] the output is cut
   back to the last channel-balanced world frontier (see {!Frontier}). *)
let run_policy ?(policy : policy = `Strict) (trace : Trace.t) =
  let rebuild =
    Traversal.rebuild_create ~nranks:(Trace.nranks trace) ~comms:(Trace.comms trace)
  in
  let walk = Traversal.walk ~fail:(fun msg -> Align_error msg) trace in
  let finished =
    Traversal.run walk
      ~step:(fun ~rank ~seq:_ e ->
        Traversal.emit_single rebuild ~rank e;
        true)
      ~complete:(fun c ->
        Traversal.emit_group rebuild ~ranks:c.members (merge_collective c))
  in
  let stall = if finished then None else Some (stall_of walk) in
  match (stall, policy) with
  | Some st, `Strict -> raise (Incomplete st)
  | Some st, `Best_effort ->
      let out, anchors = Frontier.cut ~rebuild () in
      {
        out;
        stall = Some st;
        cut_anchors = Some anchors;
        dropped_events = Trace.event_count trace - Trace.event_count out;
      }
  | None, _ ->
      let out = Traversal.rebuild_finish rebuild in
      if policy = `Best_effort && not (Frontier.balanced out) then
        (* no collective ever went unanswered, but a p2p conversation was
           cut mid-flight (pure point-to-point truncation) *)
        let out', anchors = Frontier.cut ~rebuild () in
        {
          out = out';
          stall = None;
          cut_anchors = Some anchors;
          dropped_events = Trace.event_count trace - Trace.event_count out';
        }
      else { out; stall = None; cut_anchors = None; dropped_events = 0 }

let run trace =
  try (run_policy ~policy:`Strict trace).out
  with Incomplete st -> raise (Align_error (stall_message st))

let align_if_needed trace =
  if Trace.has_unaligned_collectives trace then (run trace, true)
  else (trace, false)
