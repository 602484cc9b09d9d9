(* The list-based tail compressor, kept verbatim as the differential
   oracle for the array-backed {!Scalatrace.Compress}: same signature,
   same trial order, output must be byte-identical on every stream. *)

open Scalatrace

type t = {
  window : int;
  nranks : int;
  pows : int array; (* 31^k, for the rolling-hash window filters *)
  mutable rev : Tnode.t list; (* most recent node first *)
  mutable len : int; (* length of [rev], maintained incrementally *)
  mutable s_nodes : Tnode.t array; (* scratch: newest nodes, index 0 = newest *)
  s_pref : int array; (* scratch: prefix sums of hash(k) * 31^k *)
}

let create ?(window = 64) ~nranks () =
  if window < 1 then invalid_arg "Compress.create: window < 1";
  let m = (2 * window) + 1 in
  let pows = Array.make (m + 1) 1 in
  for k = 1 to m do
    pows.(k) <- pows.(k - 1) * 31
  done;
  {
    window;
    nranks;
    pows;
    rev = [];
    len = 0;
    s_nodes = [||]; (* sized lazily: Array.make needs a witness node *)
    s_pref = Array.make (m + 1) 0;
  }

(* [split_at n l] = (first n elements, rest); callers guarantee
   [List.length l >= n] via the running [len]. *)
let split_at n l =
  let rec go acc n l =
    if n = 0 then (List.rev acc, l)
    else
      match l with
      | [] -> invalid_arg "Compress.split_at: list too short"
      | x :: rest -> go (x :: acc) (n - 1) rest
  in
  go [] n l

(* Both sides always have the same length here; equiv_ranks itself is
   hash-prefiltered, so a mismatch costs one integer compare per node. *)
let equiv_lists a b = List.for_all2 Tnode.equiv_ranks a b

(* Rule A: the w nodes just appended repeat the body of the PRSD right
   before them -> bump its iteration count.  Precondition: len >= w + 1. *)
let try_extend t w =
  let tail_rev, rest = split_at w t.rev in
  match rest with
  | Tnode.Loop ({ body; l_len; _ } as l) :: older when l_len = w ->
      let tail = List.rev tail_rev in
      if equiv_lists body tail then begin
        List.iter2 (fun into n -> Tnode.absorb ~nranks:t.nranks ~into n) body tail;
        (* body unchanged structurally: reuse the cached l_len/l_hash *)
        t.rev <- Tnode.Loop { l with count = l.count + 1 } :: older;
        t.len <- t.len - w;
        true
      end
      else false
  | _ -> false

(* Rule B: the last 2w nodes are two equivalent halves -> new 2-iteration
   PRSD.  Precondition: len >= 2w. *)
let try_fold t w =
  let tail_rev, older = split_at (2 * w) t.rev in
  let newer_rev, earlier_rev = split_at w tail_rev in
  let newer = List.rev newer_rev and earlier = List.rev earlier_rev in
  if equiv_lists earlier newer then begin
    List.iter2
      (fun into n -> Tnode.absorb ~nranks:t.nranks ~into n)
      earlier newer;
    t.rev <- Tnode.loop ~count:2 earlier :: older;
    t.len <- t.len - (2 * w) + 1;
    true
  end
  else false

(* Filtered window scan.  The naive scan costs O(window^2) list walking
   per push even when nothing folds — superlinear on traces whose tails
   are long runs of distinct behaviours (the NPB MG cliff).  Instead the
   newest min(len, 2*window+1) nodes are snapshotted once per round into
   scratch arrays, and each candidate window runs an O(1) rolling-hash
   filter before the O(w) structural comparison:

   - extend at w requires rev.(w) to be a Loop of body length w whose
     [l_hash] equals [17*31^w + sum h(k)*31^k over k < w] — the same fold
     {!Tnode.loop} computed, so equal bodies imply equal values;
   - fold at w requires the newest w node hashes to equal the w before
     them elementwise, i.e. [pref(2w) - pref(w) = pref(w) * 31^w] over
     prefix sums of [h(k) * 31^k].

   [Tnode.equiv_ranks a b] implies [Tnode.hash a = Tnode.hash b] (the
   hashes cover only fields equivalence compares), so no filter ever
   rejects a window the full check would accept: output is byte-identical
   to the unfiltered scan, at O(window) per push instead of O(window^2). *)
let compress_tail t =
  if t.len > 1 then begin
    let m = (2 * t.window) + 1 in
    if Array.length t.s_nodes = 0 then t.s_nodes <- Array.make m (List.hd t.rev);
    let nodes = t.s_nodes and pref = t.s_pref and pows = t.pows in
    let rec round () =
      let limit = min t.len m in
      (let rec fill i l =
         if i < limit then
           match l with
           | x :: rest ->
               nodes.(i) <- x;
               fill (i + 1) rest
           | [] -> assert false
       in
       fill 0 t.rev);
      for i = 0 to limit - 1 do
        pref.(i + 1) <- pref.(i) + (Tnode.hash nodes.(i) * pows.(i))
      done;
      let extend_possible w =
        w < limit
        &&
        match nodes.(w) with
        | Tnode.Loop { l_len; l_hash; _ } ->
            l_len = w && l_hash = (17 * pows.(w)) + pref.(w)
        | Tnode.Leaf _ -> false
      in
      let fold_possible w = pref.(2 * w) - pref.(w) = pref.(w) * pows.(w) in
      let rec try_windows w =
        if w > t.window || w > t.len - 1 then false
        else if extend_possible w && try_extend t w then true
        else if t.len >= 2 * w && fold_possible w && try_fold t w then true
        else try_windows (w + 1)
      in
      if try_windows 1 then round ()
    in
    round ()
  end

let push_node t n =
  t.rev <- n :: t.rev;
  t.len <- t.len + 1;
  compress_tail t

let push t e = push_node t (Tnode.Leaf e)

let contents t = List.rev t.rev

let compress_list ?window ~nranks nodes =
  let t = create ?window ~nranks () in
  List.iter (push_node t) nodes;
  contents t
