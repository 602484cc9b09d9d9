type t = Leaf of Event.t | Loop of loop
and loop = { count : int; body : t list; l_len : int; l_hash : int }

let hash = function
  | Leaf e -> Event.hash e
  | Loop l -> Hashtbl.hash ((l.l_hash * 1_000_003) + l.count)

let loop ~count body =
  let l_len, l_hash =
    List.fold_left (fun (n, h) node -> (n + 1, (h * 31) + hash node)) (0, 17) body
  in
  Loop { count; body; l_len; l_hash }

let rec equiv_gen leaf_eq a b =
  match (a, b) with
  | Leaf x, Leaf y -> leaf_eq x y
  | Loop la, Loop lb ->
      (* l_hash equality is necessary for equivalence (the hash covers only
         fields equivalence compares), so a mismatch rejects in O(1);
         l_len guards the for_all2. *)
      la.count = lb.count && la.l_len = lb.l_len && la.l_hash = lb.l_hash
      && List.for_all2 (equiv_gen leaf_eq) la.body lb.body
  | Leaf _, Loop _ | Loop _, Leaf _ -> false

let equiv a b = equiv_gen Event.mergeable a b

let equiv_ranks a b =
  let leaf_eq x y =
    Event.mergeable x y
    && Util.Rank_set.equal x.Event.ranks y.Event.ranks
    && Event.peer_equal x.Event.peer y.Event.peer
  in
  equiv_gen leaf_eq a b

let rec absorb ~nranks ~into n =
  match (into, n) with
  | Leaf x, Leaf y -> Event.absorb ~nranks ~into:x y
  | Loop la, Loop lb -> List.iter2 (fun a b -> absorb ~nranks ~into:a b) la.body lb.body
  | _ -> invalid_arg "Tnode.absorb: structure mismatch"

let rec copy = function
  | Leaf e -> Leaf (Event.copy e)
  | Loop l -> Loop { l with body = List.map copy l.body }

let rec rsd_count_node = function
  | Leaf _ -> 1
  | Loop { body; _ } -> List.fold_left (fun acc n -> acc + rsd_count_node n) 0 body

let rsd_count nodes = List.fold_left (fun acc n -> acc + rsd_count_node n) 0 nodes

let rec event_count_node = function
  | Leaf e -> Util.Rank_set.cardinal e.Event.ranks
  | Loop { count; body; _ } ->
      count * List.fold_left (fun acc n -> acc + event_count_node n) 0 body

let event_count nodes = List.fold_left (fun acc n -> acc + event_count_node n) 0 nodes

let rec event_count_for_node ~rank = function
  | Leaf e -> if Util.Rank_set.mem rank e.Event.ranks then 1 else 0
  | Loop { count; body; _ } ->
      count
      * List.fold_left (fun acc n -> acc + event_count_for_node ~rank n) 0 body

let event_count_for nodes ~rank =
  List.fold_left (fun acc n -> acc + event_count_for_node ~rank n) 0 nodes

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

(* One walk for every rank.  [top.(r)] is the innermost frame rank r has
   open: its projected nodes so far.  A rank opens a frame for a loop
   when its first leaf inside the loop is seen, saving the enclosing
   frame in [saved.(r)], so a loop costs only the ranks that occur in it
   and a rank that never occurs in a loop gets no (empty) copy of it.
   Node lists are walked backwards, so every frame is built in order and
   none is reversed. *)
let projections nodes ~nranks =
  let top = Array.make nranks []
  and saved = Array.make nranks [] (* enclosing frames, innermost first *)
  and depth = Array.make nranks 0 (* loops rank r has a frame open in *) in
  (* [path]: for each enclosing loop, innermost first, the ranks with a
     frame open in it.  Rank r's frames cover the outermost loops of the
     path, so the [missing] innermost ones are opened, outermost first. *)
  let rec open_frames r path missing =
    if missing > 0 then
      match path with
      | touched :: outer ->
          open_frames r outer (missing - 1);
          touched := r :: !touched;
          saved.(r) <- top.(r) :: saved.(r);
          top.(r) <- []
      | [] -> assert false
  in
  let add_leaf path d n r =
    if depth.(r) < d then begin
      open_frames r path (d - depth.(r));
      depth.(r) <- d
    end;
    top.(r) <- n :: top.(r)
  in
  let close_loop count r =
    match saved.(r) with
    | parent :: outer ->
        top.(r) <- loop ~count top.(r) :: parent;
        saved.(r) <- outer;
        depth.(r) <- depth.(r) - 1
    | [] -> assert false
  in
  let rec walk path d nodes =
    List.iter
      (function
        | Leaf e as n ->
            List.iter
              (fun (first, last, stride) ->
                (* ranks outside [0, nranks) are in no projection *)
                let r = ref first in
                while !r <= last && !r < nranks do
                  if !r >= 0 then add_leaf path d n !r;
                  r := !r + stride
                done)
              (Util.Rank_set.intervals e.Event.ranks)
        | Loop { count; body; _ } ->
            let touched = ref [] in
            walk (touched :: path) (d + 1) body;
            List.iter (close_loop count) !touched)
      (List.rev nodes)
  in
  walk [] 0 nodes;
  top

let rec iter_leaves f nodes =
  List.iter
    (function Leaf e -> f e | Loop { body; _ } -> iter_leaves f body)
    nodes

let rec map_leaves f nodes =
  List.map
    (function
      | Leaf e -> Leaf (f e)
      | Loop { count; body; _ } -> loop ~count (map_leaves f body))
    nodes

let rec pp ppf = function
  | Leaf e -> Format.fprintf ppf "@[<h>RSD %a@]" Event.pp e
  | Loop { count; body; _ } ->
      Format.fprintf ppf "@[<v 2>PRSD x%d {@,%a@]@,}" count pp_body body

and pp_body ppf body =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp ppf body

let pp_list ppf nodes = pp_body ppf nodes
