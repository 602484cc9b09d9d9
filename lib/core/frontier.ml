open Scalatrace

(* Consistent-cut selection for degraded-mode generation.

   A salvaged trace can end mid-conversation: a send whose matching recv
   was lost with the receiver's truncated stream would make the generated
   benchmark hang at replay.  The cut rule: truncate every rank to the
   last world-spanning collective anchor ("globally consistent frontier"
   — after a world collective all ranks are provably at the same program
   point), then *verify* the cut by channel accounting — per
   (src, dst, tag, comm), loop-weighted send and recv counts must cover
   each other, with MPI wildcards handled conservatively.  If a frontier
   fails the check (e.g. a conversation straddles the collective), probe
   the next-earlier one. *)

(* Per-destination channel ledger.  Tag [-1] encodes MPI_ANY_TAG and a
   wildcard source is tracked separately, mirroring the event model. *)
type ledger = {
  sends : (int * int, int ref) Hashtbl.t; (* (src, tag) -> n *)
  r_exact : (int * int, int ref) Hashtbl.t; (* (src, tag) -> n *)
  r_src_any : (int, int ref) Hashtbl.t; (* tag -> n, src wildcard *)
  r_tag_any : (int, int ref) Hashtbl.t; (* src -> n, tag wildcard *)
  mutable r_any : int; (* both wildcard *)
}

let fresh_ledger () =
  {
    sends = Hashtbl.create 8;
    r_exact = Hashtbl.create 8;
    r_src_any = Hashtbl.create 4;
    r_tag_any = Hashtbl.create 4;
    r_any = 0;
  }

let bump tbl key n =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := !r + n
  | None -> Hashtbl.replace tbl key (ref n)

let balanced (trace : Trace.t) =
  let nranks = Trace.nranks trace in
  let ledgers : (int * int, ledger) Hashtbl.t = Hashtbl.create 16 in
  let ledger_for ~dst ~comm =
    match Hashtbl.find_opt ledgers (dst, comm) with
    | Some l -> l
    | None ->
        let l = fresh_ledger () in
        Hashtbl.replace ledgers (dst, comm) l;
        l
  in
  (* loop-weighted channel counts, one visit per RSD per participant *)
  let rec walk mult nodes =
    List.iter
      (fun node ->
        match node with
        | Tnode.Loop { count; body; _ } -> walk (mult * count) body
        | Tnode.Leaf (e : Event.t) -> (
            match e.kind with
            | Event.E_send | Event.E_isend ->
                Util.Rank_set.iter
                  (fun src ->
                    match Event.peer_of e ~rank:src ~nranks with
                    | Some dst ->
                        bump (ledger_for ~dst ~comm:e.comm).sends (src, e.tag)
                          mult
                    | None -> ())
                  e.ranks
            | Event.E_recv | Event.E_irecv ->
                Util.Rank_set.iter
                  (fun dst ->
                    let l = ledger_for ~dst ~comm:e.comm in
                    match e.peer with
                    | Event.P_any ->
                        if e.tag < 0 then l.r_any <- l.r_any + mult
                        else bump l.r_src_any e.tag mult
                    | _ -> (
                        match Event.peer_of e ~rank:dst ~nranks with
                        | Some src ->
                            if e.tag < 0 then bump l.r_tag_any src mult
                            else bump l.r_exact (src, e.tag) mult
                        | None -> ()))
                  e.ranks
            | _ -> ()))
      nodes
  in
  walk 1 (Trace.nodes trace);
  (* Greedy cover, most-specific receives first.  The order is a
     heuristic (full credit assignment is bipartite matching); a false
     negative only makes the caller cut one anchor earlier, which is
     always safe. *)
  let check_ledger l =
    let ok = ref true in
    Hashtbl.iter
      (fun (src, tag) r ->
        match Hashtbl.find_opt l.sends (src, tag) with
        | Some s when !s >= !r -> s := !s - !r
        | _ -> ok := false)
      l.r_exact;
    let drain_matching pred need =
      let left = ref need in
      Hashtbl.iter
        (fun key s ->
          if !left > 0 && pred key && !s > 0 then begin
            let take = min !s !left in
            s := !s - take;
            left := !left - take
          end)
        l.sends;
      if !left > 0 then ok := false
    in
    Hashtbl.iter (fun src r -> drain_matching (fun (s, _) -> s = src) !r) l.r_tag_any;
    Hashtbl.iter (fun tag r -> drain_matching (fun (_, t) -> t = tag) !r) l.r_src_any;
    if l.r_any > 0 then drain_matching (fun _ -> true) l.r_any;
    Hashtbl.iter (fun _ s -> if !s > 0 then ok := false) l.sends;
    !ok
  in
  Hashtbl.fold (fun _ l acc -> acc && check_ledger l) ledgers true

let cut b ~comms =
  let rec probe k =
    let t = Merge.finish ~upto_world_anchor:k b ~comms in
    if k <= 0 || balanced t then (t, k) else probe (k - 1)
  in
  probe (Merge.world_anchors b)
