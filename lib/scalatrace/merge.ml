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
   copy of every input. *)
let merge_node_lists ~nranks segments =
  List.fold_left
    (fun global seg -> merge_into_global ~nranks global (List.map Tnode.copy seg))
    [] segments

let merge ~nranks ~comms locals =
  let global = merge_node_lists ~nranks (Array.to_list locals) in
  let global = Tnode.map_leaves (fun e -> Event.generalize ~nranks e; e) global in
  (* A final compression pass can fold rank-uniform structure that only
     becomes foldable after merging. *)
  let global = Compress.compress_list ~nranks global in
  Trace.make ~nranks ~comms ~nodes:global
