(* Binary min-heap keyed by (time, seq), its keys unboxed.

   Heap position i holds the key [times.(i)], [seqs.(i)] and the slot
   [slots.(i)] where the entry's value lives in [values]; a value never
   moves while its entry is in the heap, so sifting writes only floats and
   ints.  Sifting moves entries into a hole instead of swapping them.
   Freed slots are kept on the [free] stack and hold [empty], so a popped
   value is not reachable from the queue.  [values] is an [Obj.t] array
   made with an immediate, never a flat float array, so a value of any
   type (floats included) is stored as the pointer it is. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable values : Obj.t array;
  mutable free : int array;
  mutable n_free : int;
  mutable size : int;
  mutable next_seq : int;
}

let empty = Obj.repr ()

let create () =
  let cap = 16 in
  {
    times = Array.make cap 0.;
    seqs = Array.make cap 0;
    slots = Array.make cap 0;
    values = Array.make cap empty;
    free = Array.make cap 0;
    n_free = 0;
    size = 0;
    next_seq = 0;
  }

let is_empty t = t.size = 0
let length t = t.size

let grow t =
  let cap = Array.length t.times in
  let extend a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.times <- extend t.times 0.;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.values <- extend t.values empty;
  t.free <- extend t.free 0

let add t ~time v =
  if not (Float.is_finite time) then invalid_arg "Pqueue.add: non-finite time";
  if t.size = Array.length t.times then grow t;
  (* every slot below [size + n_free] has been used; with none free, the
     live entries hold exactly the slots below [size] *)
  let slot =
    if t.n_free > 0 then begin
      t.n_free <- t.n_free - 1;
      t.free.(t.n_free)
    end
    else t.size
  in
  t.values.(slot) <- Obj.repr v;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  (* sift up: the new key carries the largest seq, so it rises only past
     strictly later times *)
  let i = ref t.size and rising = ref true in
  t.size <- t.size + 1;
  while !rising && !i > 0 do
    let parent = (!i - 1) / 2 in
    if time < times.(parent) then begin
      times.(!i) <- times.(parent);
      seqs.(!i) <- seqs.(parent);
      slots.(!i) <- slots.(parent);
      i := parent
    end
    else rising := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

(* Re-insert the entry at position [n] (the last one) into the hole at the
   root of a heap of [n] entries. *)
let sift_down t n =
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let time = times.(n) and seq = seqs.(n) and slot = slots.(n) in
  let i = ref 0 and settled = ref false in
  while not !settled do
    let l = (2 * !i) + 1 in
    if l >= n then settled := true
    else begin
      let r = l + 1 in
      let c =
        if
          r < n
          && (times.(r) < times.(l)
             || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
        then r
        else l
      in
      if times.(c) < time || (times.(c) = time && seqs.(c) < seq) then begin
        times.(!i) <- times.(c);
        seqs.(!i) <- seqs.(c);
        slots.(!i) <- slots.(c);
        i := c
      end
      else settled := true
    end
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

let min_time t =
  if t.size = 0 then invalid_arg "Pqueue.min_time: empty queue";
  Array.unsafe_get t.times 0

let pop_min t =
  if t.size = 0 then invalid_arg "Pqueue.pop_min: empty queue";
  let slot = t.slots.(0) in
  let v = t.values.(slot) in
  t.values.(slot) <- empty;
  t.free.(t.n_free) <- slot;
  t.n_free <- t.n_free + 1;
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then sift_down t n;
  Obj.obj v

let pop t =
  if t.size = 0 then None
  else
    let time = min_time t in
    Some (time, pop_min t)

let peek_time t = if t.size = 0 then None else Some (min_time t)
