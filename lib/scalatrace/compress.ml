(* The tail lives in a growable oldest-first array with a parallel prefix
   hash, so every window filter is O(1) integer arithmetic:

     pre.(0) = 0        pre.(i+1) = 31 * pre.(i) + Tnode.hash nodes.(i)

     seg a b = pre.(b) - pre.(a) * 31^(b-a)
             = sum over a <= i < b of  hash nodes.(i) * 31^(b-1-i)

   The identity is a ring identity, so it holds exactly in wrap-around
   [int] arithmetic (modulo 2^63); 31 is odd, hence invertible modulo
   2^63, so no weight 31^k collapses to zero and the filter keeps its
   discrimination.  [seg a b] is the fold {!Tnode.loop} computes for a
   body of nodes.(a .. b-1), less its [17 * 31^(b-a)] seed. *)

type t = {
  window : int;
  nranks : int;
  foldable : Event.t -> bool;
  pows : int array; (* 31^k for k <= window, shared by every compressor *)
  mutable nodes : Tnode.t array; (* oldest first; slots >= len are vacant *)
  mutable pre : int array; (* pre.(i) = prefix hash of nodes.(0 .. i-1) *)
  mutable len : int;
}

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

let create ?(window = 64) ?(foldable = fun _ -> true) ~nranks () =
  if window < 1 then invalid_arg "Compress.create: window < 1";
  { window; nranks; foldable; pows = pows_upto window; nodes = [||];
    pre = [| 0 |]; len = 0 }

(* A node's hash enters [pre] once, when the node is placed. *)
let place t i n =
  t.nodes.(i) <- n;
  t.pre.(i + 1) <- (31 * t.pre.(i)) + Tnode.hash n

let seg t a b = t.pre.(b) - (t.pre.(a) * t.pows.(b - a))

let rec all_foldable t = function
  | Tnode.Leaf e -> t.foldable e
  | Tnode.Loop { body; _ } -> List.for_all (all_foldable t) body

let rec foldable_from t i hi =
  i >= hi || (all_foldable t t.nodes.(i) && foldable_from t (i + 1) hi)

(* The structural checks and the window scan are top-level functions, not
   local closures: a closure would be allocated on every window tried. *)

(* [body] is equivalent, node by node, to the nodes from index [i] on. *)
let rec equiv_from t i = function
  | [] -> true
  | b :: rest -> Tnode.equiv_ranks b t.nodes.(i) && equiv_from t (i + 1) rest

(* nodes [a + j] and [b + j] are equivalent for every j in [k, w) *)
let rec halves_equiv t a b w k =
  k >= w
  || Tnode.equiv_ranks t.nodes.(a + k) t.nodes.(b + k)
     && halves_equiv t a b w (k + 1)

(* Drop the tail from [len] on: overwrite the vacated slots. *)
let truncate t len =
  Array.fill t.nodes len (t.len - len) vacant;
  t.len <- len

(* Rule A: the w nodes just appended repeat the body of the PRSD right
   before them -> bump its iteration count.  Precondition: len >= w + 1.
   The filter: nodes.(n-w-1) must be a Loop of body length w whose
   [l_hash] is [17*31^w + seg (n-w) n]. *)
let try_extend t w =
  let n = t.len in
  match t.nodes.(n - w - 1) with
  | Tnode.Loop ({ body; l_len; l_hash; _ } as l)
    when l_len = w && l_hash = (17 * t.pows.(w)) + seg t (n - w) n ->
      if equiv_from t (n - w) body && foldable_from t (n - w) n then begin
        List.iteri
          (fun k into -> Tnode.absorb ~nranks:t.nranks ~into t.nodes.(n - w + k))
          body;
        (* body unchanged structurally: reuse the cached l_len/l_hash, but
           the count is part of the node's hash, so place it again *)
        place t (n - w - 1) (Tnode.Loop { l with count = l.count + 1 });
        truncate t (n - w);
        true
      end
      else false
  | _ -> false

(* Rule B: the last 2w nodes are two equivalent halves -> new 2-iteration
   PRSD.  Precondition: len >= 2w.  The filter: equal halves have equal
   segment hashes, [seg (n-2w) (n-w) = seg (n-w) n]. *)
let try_fold t w =
  let n = t.len in
  let a = n - (2 * w) and b = n - w in
  if
    seg t a b = seg t b n
    && halves_equiv t a b w 0
    && foldable_from t a b && foldable_from t b n
  then begin
    for k = 0 to w - 1 do
      Tnode.absorb ~nranks:t.nranks ~into:t.nodes.(a + k) t.nodes.(b + k)
    done;
    place t a (Tnode.loop ~count:2 (List.init w (fun k -> t.nodes.(a + k))));
    truncate t (a + 1);
    true
  end
  else false

(* Window scan: w = 1..window, extend before fold, restart after any
   success.  [Tnode.equiv_ranks a b] implies [Tnode.hash a = Tnode.hash b]
   (the hashes cover only fields equivalence compares), so no filter ever
   rejects a window the structural check would accept: output is the same
   as an unfiltered scan, at O(window) integer work per round. *)
let rec try_windows t w =
  if w > t.window || w > t.len - 1 then false
  else if try_extend t w then true
  else if t.len >= 2 * w && try_fold t w then true
  else try_windows t (w + 1)

let grow t =
  let cap = Int.max 8 (2 * t.len) in
  let nodes = Array.make cap vacant and pre = Array.make (cap + 1) 0 in
  Array.blit t.nodes 0 nodes 0 t.len;
  Array.blit t.pre 0 pre 0 (t.len + 1);
  t.nodes <- nodes;
  t.pre <- pre

let push_node t n =
  if t.len = Array.length t.nodes then grow t;
  place t t.len n;
  t.len <- t.len + 1;
  while try_windows t 1 do
    ()
  done

let push t e = push_node t (Tnode.Leaf e)

let contents t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.nodes.(i) :: acc) in
  go (t.len - 1) []

let compress_list ?window ?foldable ~nranks nodes =
  let t = create ?window ?foldable ~nranks () in
  List.iter (push_node t) nodes;
  contents t
