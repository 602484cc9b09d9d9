(* The tail lives in a growable oldest-first array with a parallel prefix
   hash, so every window filter is O(1) integer arithmetic:

     pre.(0) = 0        pre.(i+1) = 31 * pre.(i) + Tnode.hash nodes.(i)

     seg a b = pre.(b) - pre.(a) * 31^(b-a)
             = sum over a <= i < b of  hash nodes.(i) * 31^(b-1-i)

   The identity is a ring identity, so it holds exactly in wrap-around
   [int] arithmetic (modulo 2^63); 31 is odd, hence invertible modulo
   2^63, so no weight 31^k collapses to zero and the filter keeps its
   discrimination.  [seg a b] is the fold {!Tnode.loop} computes for a
   body of nodes.(a .. b-1), less its [17 * 31^(b-a)] seed.

   Only windows that can succeed are tried, and two chains find them:

   - fold at w needs nodes.(n-1-w) equivalent to the top nodes.(n-1),
     hence of equal hash: [same] links each slot to the next lower slot
     of its hash bucket;
   - extend at w needs a loop at slot j = n-1-w with [l_len = w], i.e. a
     loop that is due at tail length [j + l_len + 1 = n]: [due] links each
     such loop to the next lower loop of its due-length bucket.

   Buckets are direct-mapped (index [land mask], one bucket per slot of
   capacity).  A fold walk screens each slot with the segment hashes of
   the two halves, which a slot of another hash in the same bucket fails
   like any unequal halves; an extend walk checks the exact due length.
   Slots enter and leave the tail in stack order (a fold or an extend
   truncates, then places its loop on top), so a slot's bucket head is
   always the highest live slot of the bucket: linking the new top and
   unlinking the old one are both O(1) array writes. *)

type t = {
  window : int;
  nranks : int;
  pows : int array; (* 31^k for k <= window, shared by every compressor *)
  mutable nodes : Tnode.t array; (* oldest first; slots >= len are vacant *)
  mutable pre : int array; (* pre.(i) = prefix hash of nodes.(0 .. i-1) *)
  mutable len : int;
  mutable same : int array; (* next lower slot in this slot's hash bucket *)
  mutable same_head : int array; (* hash bucket -> its highest slot, or -1 *)
  mutable due : int array; (* next lower loop in this loop's due bucket *)
  mutable due_head : int array; (* due-length bucket -> highest loop, or -1 *)
}

let default_window = 256

(* Vacated slots point here, so absorbed events can be collected. *)
let vacant = Tnode.loop ~count:0 []

let shared_pows = ref [| 1 |]

let pows_upto k =
  let p = !shared_pows in
  if k < Array.length p then p
  else begin
    let n = Int.max (k + 1) (2 * Array.length p) in
    let q = Array.make n 1 in
    for i = 1 to n - 1 do
      q.(i) <- q.(i - 1) * 31
    done;
    shared_pows := q;
    q
  end

(* The arrays stay empty until the first push: the wildcard traversal
   creates one compressor per rank per collective anchor. *)
let create ?(window = default_window) ~nranks () =
  if window < 1 then invalid_arg "Compress.create: window < 1";
  { window; nranks; pows = pows_upto window; nodes = [||];
    pre = [||]; len = 0; same = [||]; same_head = [||]; due = [||];
    due_head = [||] }

let seg t a b = t.pre.(b) - (t.pre.(a) * t.pows.(b - a))

(* [Tnode.hash nodes.(i)], recovered from [pre] *)
let slot_hash t i = t.pre.(i + 1) - (31 * t.pre.(i))

let mask t = Array.length t.same_head - 1

(* A loop can be extended at w = l_len only when 1 <= l_len <= window;
   then it is due at tail length [due_len]. *)
let due_len t i =
  match t.nodes.(i) with
  | Tnode.Loop { l_len; _ } when l_len >= 1 && l_len <= t.window -> i + l_len + 1
  | _ -> -1

(* Slot [i] is the new top: chain it in front of its buckets. *)
let link t i =
  let b = slot_hash t i land mask t in
  t.same.(i) <- t.same_head.(b);
  t.same_head.(b) <- i;
  let d = due_len t i in
  if d >= 0 then begin
    let b = d land mask t in
    t.due.(i) <- t.due_head.(b);
    t.due_head.(b) <- i
  end

(* Slot [i] is the top, hence the head of both its buckets. *)
let unlink t i =
  t.same_head.(slot_hash t i land mask t) <- t.same.(i);
  let d = due_len t i in
  if d >= 0 then t.due_head.(d land mask t) <- t.due.(i)

(* Push [n] on top of the tail.  A node's hash enters [pre] once, here. *)
let place t n =
  let i = t.len in
  t.nodes.(i) <- n;
  t.pre.(i + 1) <- (31 * t.pre.(i)) + Tnode.hash n;
  link t i;
  t.len <- i + 1

(* Drop the tail from [len] on, top first; vacated slots are overwritten. *)
let truncate t len =
  for i = t.len - 1 downto len do
    unlink t i;
    t.nodes.(i) <- vacant
  done;
  t.len <- len

(* The structural checks and the candidate walks are top-level functions,
   not local closures: a closure would be allocated on every round. *)

(* [body] is equivalent, node by node, to the nodes from index [i] on. *)
let rec equiv_from t i = function
  | [] -> true
  | b :: rest -> Tnode.equiv_ranks b t.nodes.(i) && equiv_from t (i + 1) rest

(* nodes [a + j] and [b + j] are equivalent for every j in [k, w) *)
let rec halves_equiv t a b w k =
  k >= w
  || Tnode.equiv_ranks t.nodes.(a + k) t.nodes.(b + k)
     && halves_equiv t a b w (k + 1)

(* Rule A: the w nodes just appended repeat the body of the PRSD right
   before them -> bump its iteration count.  Precondition: len >= w + 1.
   The filter: nodes.(n-w-1) must be a Loop of body length w whose
   [l_hash] is [17*31^w + seg (n-w) n]. *)
let try_extend t w =
  let n = t.len in
  match t.nodes.(n - w - 1) with
  | Tnode.Loop ({ body; l_len; l_hash; _ } as l)
    when l_len = w && l_hash = (17 * t.pows.(w)) + seg t (n - w) n ->
      if equiv_from t (n - w) body then begin
        List.iteri
          (fun k into -> Tnode.absorb ~nranks:t.nranks ~into t.nodes.(n - w + k))
          body;
        truncate t (n - w - 1);
        (* body unchanged structurally: reuse the cached l_len/l_hash, but
           the count is part of the node's hash, so place it again *)
        place t (Tnode.Loop { l with count = l.count + 1 });
        true
      end
      else false
  | _ -> false

(* Rule B: the last 2w nodes are two equivalent halves -> new 2-iteration
   PRSD.  Precondition: len >= 2w, and the halves passed the segment
   screen of [fold_from]. *)
let try_fold t w =
  let n = t.len in
  let a = n - (2 * w) and b = n - w in
  if halves_equiv t a b w 0 then begin
    for k = 0 to w - 1 do
      Tnode.absorb ~nranks:t.nranks ~into:t.nodes.(a + k) t.nodes.(b + k)
    done;
    let l = Tnode.loop ~count:2 (List.init w (fun k -> t.nodes.(a + k))) in
    truncate t a;
    place t l;
    true
  end
  else false

(* The highest slot at or below [s] on the top's hash chain that is a fold
   candidate: w = n-1-s is within the window, 2w <= n, and the two halves
   pass the screen that equal halves pass, [seg (n-2w) (n-w) = seg (n-w) n].
   w grows as the walk descends, so the first w out of range ends it.  The
   screen runs here, in the walk, because most candidates fail it. *)
let rec fold_from t s =
  if s < 0 then -1
  else
    let n = t.len in
    let w = n - 1 - s in
    if w > t.window || 2 * w > n then -1
    else if seg t (n - (2 * w)) (n - w) = seg t (n - w) n then s
    else fold_from t t.same.(s)

(* The highest loop at or below slot [j] on the due chain that is due now.
   A loop is registered only with l_len <= window, so none below slot
   n-1-window can be. *)
let rec due_from t j =
  if j < 0 || t.len - 1 - j > t.window then -1
  else if due_len t j = t.len then j
  else due_from t t.due.(j)

(* Candidates in ascending w, i.e. descending slot, extend before fold at
   the same w: the order of a scan over w = 1..window.  Every window the
   chains skip fails the structural check ([Tnode.equiv_ranks a b] implies
   equal hashes), so the first success is the scan's. *)
let rec try_candidates t f e =
  if f < 0 && e < 0 then false
  else if e >= f then
    try_extend t (t.len - 1 - e) || try_candidates t f (due_from t t.due.(e))
  else try_fold t (t.len - 1 - f) || try_candidates t (fold_from t t.same.(f)) e

let round t =
  try_candidates t
    (fold_from t t.same.(t.len - 1))
    (due_from t t.due_head.(t.len land mask t))

let grow t =
  let cap = Int.max 8 (2 * t.len) in
  let nodes = Array.make cap vacant and pre = Array.make (cap + 1) 0 in
  Array.blit t.nodes 0 nodes 0 t.len;
  Array.blit t.pre 0 pre 0 (Array.length t.pre);
  t.nodes <- nodes;
  t.pre <- pre;
  t.same <- Array.make cap (-1);
  t.same_head <- Array.make cap (-1);
  t.due <- Array.make cap (-1);
  t.due_head <- Array.make cap (-1);
  (* the masks changed: rebuild the chains bottom up, in stack order *)
  for i = 0 to t.len - 1 do
    link t i
  done

let push_node t n =
  if t.len = Array.length t.nodes then grow t;
  place t n;
  while round t do
    ()
  done

let push t e = push_node t (Tnode.Leaf e)

let contents t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.nodes.(i) :: acc) in
  go (t.len - 1) []

let compress_list ?window ~nranks nodes =
  let t = create ?window ~nranks () in
  List.iter (push_node t) nodes;
  contents t
