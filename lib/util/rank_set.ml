(* Sorted list of disjoint strided intervals.  Invariants:
   - for each interval, stride >= 1, first <= last,
     and (last - first) mod stride = 0;
   - a singleton interval is stored with stride = 1;
   - intervals are sorted by [first] and never "adjacent-mergeable":
     the normalizing smart constructors below re-establish this. *)

type interval = { first : int; last : int; stride : int }

type t = interval list

let empty = []
let is_empty t = t = []

let interval_mem r { first; last; stride } =
  r >= first && r <= last && (r - first) mod stride = 0

let interval_card { first; last; stride } = ((last - first) / stride) + 1

let singleton r = [ { first = r; last = r; stride = 1 } ]

let range ?(stride = 1) first last =
  if stride <= 0 then invalid_arg "Rank_set.range: stride <= 0";
  if last < first then invalid_arg "Rank_set.range: last < first";
  let last = first + ((last - first) / stride * stride) in
  if first = last then singleton first else [ { first; last; stride } ]

let all n = if n <= 0 then empty else range 0 (n - 1)

(* Merge an ascending, duplicate-free list of ranks into strided intervals
   greedily: extend the current run while the stride is constant. *)
let of_sorted_ranks ranks =
  let close first prev stride acc =
    if first = prev then { first; last = prev; stride = 1 } :: acc
    else { first; last = prev; stride } :: acc
  in
  let rec go acc first prev stride = function
    | [] -> List.rev (close first prev stride acc)
    | r :: rest ->
        if stride = 0 then go acc first r (r - prev) rest
        else if r - prev = stride then go acc first r stride rest
        else if first = prev then go acc first r (r - prev) rest
        else go (close first prev stride acc) r r 0 rest
  in
  match ranks with [] -> [] | r :: rest -> go [] r r 0 rest

let to_list t =
  List.concat_map
    (fun { first; last; stride } ->
      let rec up r acc = if r > last then List.rev acc else up (r + stride) (r :: acc) in
      up first [])
    t

let of_list ranks = of_sorted_ranks (List.sort_uniq compare ranks)

(* Most set operations fall back to rank lists; sets in traces are small in
   interval count, and these operations run at trace-processing time, not in
   the simulator's hot path. *)
let lift2 f a b = of_sorted_ranks (f (to_list a) (to_list b))

let mem r t = List.exists (interval_mem r) t

(* [append_rank t r]: add [r], known to lie past every element of [t],
   without materializing rank lists.  Only the final interval can change,
   and the result is exactly what [of_sorted_ranks] would build for the
   extended sequence: a fresh stride forms against a trailing singleton, a
   matching stride extends the trailing run, anything else opens a new
   singleton.  This is the hot path of inter-node merging, where a node's
   rank set grows in ascending rank order — one absorb per rank — and a
   list-based union would make that O(p^2) per RSD. *)
let rec append_rank t r =
  match t with
  | [] -> singleton r
  | [ ({ first; last; stride } as iv) ] ->
      if first = last then [ { first; last = r; stride = r - first } ]
      else if r = last + stride then [ { iv with last = r } ]
      else [ iv; { first = r; last = r; stride = 1 } ]
  | iv :: rest -> iv :: append_rank rest r

let union a b =
  let merge la lb =
    let rec go acc la lb =
      match (la, lb) with
      | [], l | l, [] -> List.rev_append acc l
      | x :: xs, y :: ys ->
          if x < y then go (x :: acc) xs lb
          else if y < x then go (y :: acc) la ys
          else go (x :: acc) xs ys
    in
    go [] la lb
  in
  match (a, b) with
  | [], t | t, [] -> t
  | _ when a == b -> a
  | _, [ { first = r; last = r'; _ } ] when r = r' ->
      let m = List.fold_left (fun acc iv -> Int.max acc iv.last) min_int a in
      if r > m then append_rank a r
      else if r = m then a
      else lift2 merge a b
  | _ -> lift2 merge a b

let inter a b =
  let isect la lb =
    let rec go acc la lb =
      match (la, lb) with
      | [], _ | _, [] -> List.rev acc
      | x :: xs, y :: ys ->
          if x < y then go acc xs lb
          else if y < x then go acc la ys
          else go (x :: acc) xs ys
    in
    go [] la lb
  in
  lift2 isect a b

let diff a b =
  let sub la lb =
    let rec go acc la lb =
      match (la, lb) with
      | [], _ -> List.rev acc
      | l, [] -> List.rev_append acc l
      | x :: xs, y :: ys ->
          if x < y then go (x :: acc) xs lb
          else if y < x then go acc la ys
          else go acc xs ys
    in
    go [] la lb
  in
  lift2 sub a b

let add r t = union (singleton r) t
let remove r t = diff t (singleton r)

let cardinal t = List.fold_left (fun n iv -> n + interval_card iv) 0 t

(* The interval representation is canonical — every constructor funnels
   through [of_sorted_ranks] or builds the form it would ([append_rank],
   [range], [singleton]) — so set equality is structural equality, O(#intervals)
   instead of O(cardinal), compared field by field without the polymorphic
   [=]. *)
let rec equal (a : t) (b : t) =
  a == b
  ||
  match (a, b) with
  | [], [] -> true
  | x :: xs, y :: ys ->
      x.first = y.first && x.last = y.last && x.stride = y.stride
      && equal xs ys
  | _ -> false

let subset a b = is_empty (diff a b)

let min_elt = function [] -> None | iv :: _ -> Some iv.first

let max_elt t =
  List.fold_left (fun acc iv -> match acc with
      | None -> Some iv.last
      | Some m -> Some (max m iv.last))
    None t

let iter f t = List.iter f (to_list t)
let fold f t init = List.fold_left (fun acc r -> f r acc) init (to_list t)
let for_all p t = List.for_all p (to_list t)
let exists p t = List.exists p (to_list t)
let filter p t = of_sorted_ranks (List.filter p (to_list t))
let map f t = of_list (List.map f (to_list t))

let interval_count t = List.length t
let intervals t = List.map (fun { first; last; stride } -> (first, last, stride)) t

let pp ppf t =
  let pp_iv ppf { first; last; stride } =
    if first = last then Format.fprintf ppf "%d" first
    else if stride = 1 then Format.fprintf ppf "%d-%d" first last
    else Format.fprintf ppf "%d-%d:%d" first last stride
  in
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",") pp_iv)
    t

let to_string t = Format.asprintf "%a" pp t

let compare a b = if a == b then 0 else compare (to_list a) (to_list b)
