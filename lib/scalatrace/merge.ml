(* Merge one rank's node list into the global list.

   Greedy alignment: walk the incoming list; for each node, scan the
   not-yet-consumed part of the global list (up to [lookahead] nodes) for
   the first equivalent node; merge into it, emitting any skipped global
   nodes unchanged.  If none matches, the incoming node is inserted at the
   current position.  Both orders are preserved, so the per-rank
   projections of the result equal the inputs.

   A probe is cheap: [Tnode.equiv] compares structural hashes before
   anything else, so a candidate that does not match is rejected in O(1)
   and the scan costs O(lookahead) integer compares per incoming node at
   worst (DESIGN §7, "Inter-rank merge"). *)

let lookahead = 256

let merge_into_global ~nranks global incoming =
  let rec find_match n candidates depth =
    match candidates with
    | [] -> None
    | g :: rest ->
        if Tnode.equiv g n then Some depth
        else if depth + 1 >= lookahead then None
        else find_match n rest (depth + 1)
  in
  let rec go acc global incoming =
    match incoming with
    | [] -> List.rev_append acc global
    | n :: in_rest -> (
        match find_match n global 0 with
        | Some depth ->
            (* consume global nodes up to and including the match *)
            let rec consume acc global d =
              match (global, d) with
              | g :: g_rest, 0 ->
                  Tnode.absorb ~nranks ~into:g n;
                  (g :: acc, g_rest)
              | g :: g_rest, d -> consume (g :: acc) g_rest (d - 1)
              | [], _ -> assert false
            in
            let acc, g_rest = consume acc global depth in
            go acc g_rest in_rest
        | None -> go (n :: acc) global in_rest)
  in
  go [] global incoming

(* absorb mutates the nodes it merges, so each segment is deep-copied
   just before it is folded in — peak extra memory is one segment's working
   copy (plus whatever the copy contributed to the global), not a second
   copy of every input.  An empty segment (a rank with nothing since its
   last anchor) is skipped without a fold. *)
let merge_node_lists ~nranks segments =
  List.fold_left
    (fun global -> function
      | [] -> global
      | seg -> merge_into_global ~nranks global (List.map Tnode.copy seg))
    [] segments

(* ------------------------------------------------------------------ *)

(* The builder.  An anchor closes its participants' open segments: they
   become the anchor's [pre], merged just before it at finish time, so
   the global order keeps every rank's order. *)

type item = {
  anchor : Event.t; (* carries its full participant set *)
  pre : Tnode.t list list; (* participants' segments since their last anchor *)
}

type t = {
  nranks : int;
  streams : Compress.t array; (* each rank's open segment *)
  mutable items : item list; (* latest first *)
}

let create ~nranks =
  { nranks; streams = Array.init nranks (fun _ -> Compress.create ~nranks ()); items = [] }

let push b ~rank e = Compress.push b.streams.(rank) e
let stream b rank = Compress.contents b.streams.(rank)

let anchor b (e : Event.t) =
  let pre =
    Util.Rank_set.fold
      (fun rank acc ->
        let seg = stream b rank in
        b.streams.(rank) <- Compress.create ~nranks:b.nranks ();
        if seg = [] then acc else seg :: acc)
      e.ranks []
  in
  b.items <- { anchor = e; pre } :: b.items

let is_world b { anchor; _ } = Util.Rank_set.cardinal anchor.Event.ranks = b.nranks

let world_anchors b =
  List.fold_left (fun n it -> if is_world b it then n + 1 else n) 0 b.items

(* The items up to and including the [k]-th world anchor: every rank is
   provably at the same program point right after a world collective, so
   cutting there leaves all send/recv channels balanced. *)
let rec upto b k = function
  | it :: rest when k > 0 -> it :: upto b (if is_world b it then k - 1 else k) rest
  | _ -> []

(* Segments are merged and pushed through one compressor, so structure
   that only becomes foldable after merging still folds; peers are
   generalized once, on the finished nodes.  [merge_node_lists] copies
   the segments and anchors are copied here, so the builder is left
   unchanged. *)
let build ~nranks ~comms items open_segments =
  let out = Compress.create ~nranks () in
  let flush segments =
    List.iter (Compress.push_node out) (merge_node_lists ~nranks segments)
  in
  List.iter
    (fun { anchor; pre } ->
      flush pre;
      Compress.push_node out (Tnode.Leaf (Event.copy anchor)))
    items;
  flush open_segments;
  let nodes =
    Tnode.map_leaves
      (fun e ->
        Event.generalize ~nranks e;
        e)
      (Compress.contents out)
  in
  Trace.make ~nranks ~comms ~nodes

let finish ?upto_world_anchor b ~comms =
  let items = List.rev b.items in
  let items, open_segments =
    match upto_world_anchor with
    | Some k -> (upto b k items, [])
    | None -> (items, List.init b.nranks (stream b))
  in
  build ~nranks:b.nranks ~comms items open_segments

let merge ~nranks ~comms streams = build ~nranks ~comms [] (Array.to_list streams)
