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

(* A collective wait is keyed by (communicator, participant key, slot)
   ({!Traversal.participants}), so disjoint participant groups on one
   communicator advance independently instead of mis-accounting each
   other's arrival bitmap. *)
type coll_key = int * int array * int

type node_state = {
  rank : int;
  mutable cursor : Traversal.cursor;
  mutable finished : bool;
  mutable blocked : coll_key option;
  coll_seq : (int * int array, int) Hashtbl.t;
      (* (comm, participant key) -> next slot *)
}

(* Collective-wait state is indexed so the hot per-arrival operations are
   sublinear in the communicator size: arrivals are marked in a bool array
   over the sorted member list (completion is an O(1) counter compare, not
   [List.length] vs [cardinal]), and the smallest not-yet-arrived member is
   found by a monotone scan pointer that advances O(members) in total per
   wait instead of O(members) per probe. *)
type coll_wait = {
  members : Util.Rank_set.t;
  member_arr : int array; (* members, ascending *)
  arrived : bool array; (* by [member_arr] position *)
  partial : bool; (* declared participant set, not the whole communicator *)
  mutable n_arrived : int;
  mutable scan : int; (* all positions < scan have arrived *)
  mutable arrivals : (int * Event.t * Traversal.cursor) list;
      (* rank, event, cursor past the event *)
}

let make_wait ?(partial = false) members =
  let member_arr = Array.of_list (Util.Rank_set.to_list members) in
  {
    members;
    member_arr;
    arrived = Array.make (Array.length member_arr) false;
    partial;
    n_arrived = 0;
    scan = 0;
    arrivals = [];
  }

(* Position of [r] in [w.member_arr], or [None] for a non-member. *)
let member_pos w r =
  let arr = w.member_arr in
  let rec go lo hi =
    if lo > hi then None
    else
      let mid = (lo + hi) / 2 in
      if arr.(mid) = r then Some mid
      else if arr.(mid) < r then go (mid + 1) hi
      else go lo (mid - 1)
  in
  go 0 (Array.length arr - 1)

let record_arrival (key : coll_key) w rank event after =
  let comm, _, slot = key in
  (match member_pos w rank with
  | Some pos ->
      if not w.arrived.(pos) then begin
        w.arrived.(pos) <- true;
        w.n_arrived <- w.n_arrived + 1
      end
  | None ->
      if w.partial then
        raise
          (Align_error
             (Printf.sprintf
                "rank %d arrives at %s on communicator %d (slot %d) but is \
                 outside the declared participant set {%s}"
                rank
                (Event.kind_name event.Event.kind)
                comm slot
                (String.concat ","
                   (List.map string_of_int (Array.to_list w.member_arr)))))
      else
        raise
          (Align_error
             (Printf.sprintf
                "rank %d reaches a collective on communicator %d (slot %d) but \
                 is not a member of that communicator"
                rank comm slot)));
  w.arrivals <- (rank, event, after) :: w.arrivals

(* One RSD for the complete participant set, hoisted to a single call
   point (the smallest rank's site). *)
let merge_collective (key : coll_key) arrivals members =
  let comm, _, slot = key in
  let arrivals = List.sort (fun (a, _, _) (b, _, _) -> compare a b) arrivals in
  match arrivals with
  | [] ->
      raise
        (Align_error
           (Printf.sprintf
              "internal: collective on communicator %d (slot %d) completed \
               with no arrivals"
              comm slot))
  | (_, first, _) :: rest ->
      List.iter
        (fun (r, (e : Event.t), _) ->
          if not (Event.kind_equal e.Event.kind first.Event.kind) then
            raise
              (Align_error
                 (Printf.sprintf
                    "collective mismatch on communicator %d (slot %d): rank %d \
                     calls %s but rank 0 of the group calls %s"
                    comm slot r (Event.kind_name e.kind)
                    (Event.kind_name first.kind)));
          if Event.is_p2p e.kind then
            raise (Align_error "internal: p2p event in collective merge"))
        rest;
      let n = List.length arrivals in
      let all_bytes = List.map (fun (_, (e : Event.t), _) -> e.bytes) arrivals in
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
            (fun (_, (e : Event.t), _) -> e.vec == first.vec || e.vec = first.vec)
            arrivals
        then first.vec
        else None
      in
      let peer =
        (* rooted collectives must agree on the root *)
        match first.peer with
        | Event.P_abs root ->
            List.iter
              (fun (r, (e : Event.t), _) ->
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
        (fun (_, (e : Event.t), _) -> Util.Histogram.merge_into dtime e.dtime)
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

(* The wait-for graph at a stall: one edge per rank parked at a pending
   collective, naming the members whose arrival it still needs and — as
   [missing] — those that can never arrive because their stream ended. *)
let stall_of_waits waits states =
  let edges = ref [] in
  Hashtbl.iter
    (fun ((comm, _, slot) : coll_key) (w : coll_wait) ->
      let absent = ref [] in
      for i = Array.length w.member_arr - 1 downto 0 do
        if not w.arrived.(i) then absent := w.member_arr.(i) :: !absent
      done;
      let absent = !absent in
      let dead = List.filter (fun r -> states.(r).finished) absent in
      List.iter
        (fun (r, (e : Event.t), _) ->
          edges :=
            Util.Waitgraph.edge ~rank:r
              ~what:
                (Printf.sprintf "%s at %s (communicator %d, slot %d)"
                   (Event.kind_name e.kind)
                   (Util.Callsite.to_string e.site)
                   comm slot)
              ~waiting_on:absent ~missing:dead ()
            :: !edges)
        w.arrivals)
    waits;
  let edges = !edges in
  { st_edges = edges; st_missing = Util.Waitgraph.missing_ranks edges }

let stall_message stall =
  Util.Waitgraph.format
    ~header:
      "alignment cannot complete: collective participants will never arrive \
       (trace truncated?)"
    stall.st_edges

(* Algorithm 1 with a safety net: the traversal carries an iteration
   budget (it is linear in the event count when the trace is well-formed,
   so the budget only trips on internal errors) and detects *dead waits*
   — a parked collective whose missing member's stream already ended —
   instead of spinning on them.  Under [`Strict] a dead wait raises; under
   [`Best_effort] the traversal stops and the output is cut back to the
   last channel-balanced world frontier (see {!Frontier}). *)
let run_policy ?(policy : policy = `Strict) (trace : Trace.t) =
  let nranks = Trace.nranks trace in
  let comms = Trace.comms trace in
  let members_of cid =
    match List.assoc_opt cid comms with
    | Some m -> m
    | None -> raise (Align_error (Printf.sprintf "unknown communicator %d" cid))
  in
  let projections = Trace.projections trace in
  let states =
    Array.init nranks (fun rank ->
        {
          rank;
          cursor = Traversal.start projections.(rank);
          finished = false;
          blocked = None;
          coll_seq = Hashtbl.create 8;
        })
  in
  let waits : (coll_key, coll_wait) Hashtbl.t = Hashtbl.create 64 in
  let rebuild = Traversal.rebuild_create ~nranks ~comms in
  let next_unfinished from =
    let rec go i tried =
      if tried >= nranks then None
      else
        let r = (from + i) mod nranks in
        if not states.(r).finished then Some r else go (i + 1) (tried + 1)
    in
    go 0 0
  in
  (* Smallest group member that has not yet arrived at the collective.
     Arrivals are permanent for the lifetime of a wait, so the scan
     pointer only moves forward: total cost O(members) per wait rather
     than O(members) per probe. *)
  let next_missing key =
    let w = Hashtbl.find waits key in
    let nmem = Array.length w.member_arr in
    while w.scan < nmem && w.arrived.(w.scan) do
      w.scan <- w.scan + 1
    done;
    if w.scan < nmem then w.member_arr.(w.scan) else assert false
  in
  (* Jump over nodes blocked on other collectives.  [`Run r] — r can make
     progress; [`Dead] — the chain reached a rank whose stream already
     ended, so the wait can never complete; cycles mean mismatched
     collective ordering in the application and always raise. *)
  let resolve_runnable start =
    let rec go r seen =
      let s = states.(r) in
      match s.blocked with
      | None -> if s.finished then `Dead else `Run r
      | Some key ->
          if List.mem r seen then
            raise
              (Align_error
                 "cyclic collective dependency across communicators (mismatched \
                  collective ordering in the application)")
          else go (next_missing key) (r :: seen)
    in
    go start []
  in
  let finish_collective key =
    let w = Hashtbl.find waits key in
    Hashtbl.remove waits key;
    let merged = merge_collective key w.arrivals w.members in
    Traversal.emit_group rebuild ~ranks:w.members merged;
    List.iter
      (fun (r, _, after) ->
        states.(r).blocked <- None;
        states.(r).cursor <- after)
      w.arrivals;
    (* resume at the first (smallest) node blocked on this collective *)
    List.fold_left (fun acc (r, _, _) -> min acc r) max_int w.arrivals
  in
  (* Linear in events for well-formed traces; generous slack for the
     park/resume bookkeeping.  Tripping it means an internal invariant
     broke — better a typed error than a hang. *)
  let budget = ref ((2 * Trace.event_count trace) + (16 * nranks) + 64) in
  let stall = ref None in
  let current = ref (Some 0) in
  while !current <> None && !stall = None do
    decr budget;
    if !budget < 0 then
      raise (Align_error "internal: alignment exceeded its traversal budget");
    let r = Option.get !current in
    let s = states.(r) in
    let continue_at step =
      match step with
      | Some (`Run r') -> current := Some r'
      | Some `Dead -> stall := Some (stall_of_waits waits states)
      | None -> current := None
    in
    match Traversal.peek s.cursor with
    | None ->
        s.finished <- true;
        continue_at (Option.map resolve_runnable (next_unfinished r))
    | Some (e, after) ->
        if not (Event.is_collective e.kind) then begin
          Traversal.emit_single rebuild ~rank:r e;
          s.cursor <- after
        end
        else begin
          let parts = Traversal.participants e in
          let seq_key = (e.comm, parts) in
          let slot =
            Option.value ~default:0 (Hashtbl.find_opt s.coll_seq seq_key)
          in
          Hashtbl.replace s.coll_seq seq_key (slot + 1);
          let key = (e.comm, parts, slot) in
          let w =
            match Hashtbl.find_opt waits key with
            | Some w -> w
            | None ->
                let w =
                  match e.Event.parts with
                  | Some ps ->
                      make_wait ~partial:true
                        (Util.Rank_set.of_list (Array.to_list ps))
                  | None -> make_wait (members_of e.comm)
                in
                Hashtbl.replace waits key w;
                w
          in
          record_arrival key w r e after;
          if w.n_arrived = Array.length w.member_arr then
            current := Some (finish_collective key)
          else begin
            s.blocked <- Some key;
            continue_at (Some (resolve_runnable (next_missing key)))
          end
        end
  done;
  match (!stall, policy) with
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
