(* The RSD comparisons as they were before the monomorphic fast paths:
   polymorphic [=] on kinds, peers, count vectors and rank sets, and rank
   set operations through rank lists.  Kept as the oracle that
   {!Scalatrace.Event}, {!Scalatrace.Tnode} and {!Util.Rank_set} are
   checked against (the [fastpath] suite).  None of them looks at a hash,
   so a hash that broke its contract shows up as a disagreement. *)

open Scalatrace

let same_vec a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> x = y
  | _ -> false

let peer_class = function
  | Event.P_any -> `Any
  | Event.P_none -> `None
  | Event.P_abs _ | Event.P_rel _ | Event.P_map _ -> `Concrete

let mergeable (a : Event.t) (b : Event.t) =
  Util.Callsite.compare a.site b.site = 0
  && a.kind = b.kind && a.bytes = b.bytes && a.tag = b.tag && a.comm = b.comm
  && same_vec a.vec b.vec
  && same_vec a.parts b.parts
  && peer_class a.peer = peer_class b.peer

let kind_equal (a : Event.kind) b = a = b
let peer_equal (a : Event.peer) b = a = b

(* The interval form is canonical, so set equality was structural. *)
let rank_set_equal (a : Util.Rank_set.t) b = a = b

let rank_set_union a b =
  Util.Rank_set.of_list (Util.Rank_set.to_list a @ Util.Rank_set.to_list b)

let rank_set_compare a b =
  compare (Util.Rank_set.to_list a) (Util.Rank_set.to_list b)

let rec equiv_ranks a b =
  match (a, b) with
  | Tnode.Leaf x, Tnode.Leaf y ->
      mergeable x y && rank_set_equal x.ranks y.ranks && peer_equal x.peer y.peer
  | Tnode.Loop la, Tnode.Loop lb ->
      la.count = lb.count
      && List.length la.body = List.length lb.body
      && List.for_all2 equiv_ranks la.body lb.body
  | Tnode.Leaf _, Tnode.Loop _ | Tnode.Loop _, Tnode.Leaf _ -> false

let observations (e : Event.t) ~nranks =
  match e.peer with
  | Event.P_none | Event.P_any -> []
  | Event.P_abs a -> Util.Rank_set.fold (fun r acc -> (r, a) :: acc) e.ranks []
  | Event.P_rel d ->
      Util.Rank_set.fold
        (fun r acc -> (r, (r + d + nranks) mod nranks) :: acc)
        e.ranks []
  | Event.P_map m -> m

let absorb ~nranks ~(into : Event.t) (e : Event.t) =
  Util.Histogram.merge_into into.dtime e.dtime;
  (match (into.peer, e.peer) with
  | Event.P_none, Event.P_none | Event.P_any, Event.P_any -> ()
  | pa, pb when pa = pb -> ()
  | _ ->
      let merged = observations e ~nranks @ observations into ~nranks in
      into.peer <- (if merged = [] then into.peer else Event.P_map merged));
  into.ranks <- rank_set_union into.ranks e.ranks
