(* The recursive per-rank projection, one walk of the trace per rank,
   kept verbatim as the oracle {!Scalatrace.Trace.projections} is checked
   against (the [fastpath] suite's "projections equal project" tests):
   the subsequence visible to [rank], leaves whose participant set
   contains it, loop bodies filtered recursively and empty loops
   dropped. *)

open Scalatrace
open Tnode

let rec project nodes ~rank =
  List.filter_map
    (fun n ->
      match n with
      | Leaf e -> if Util.Rank_set.mem rank e.Event.ranks then Some n else None
      | Loop { count; body; _ } -> (
          match project body ~rank with
          | [] -> None
          | body -> Some (loop ~count body)))
    nodes

(* Rank [rank]'s event-node sequence in trace [t]. *)
let of_trace t ~rank = project (Trace.nodes t) ~rank
