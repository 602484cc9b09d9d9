(* Growable ring buffer.  [head] indexes the oldest element; the [len]
   live elements occupy buf.((head + i) land (capacity - 1)), the
   capacity a power of two.  Elements are stored as they are: [buf] is an
   [Obj.t] array made with an immediate, never a flat float array, and a
   slot that holds no element holds [empty], so popped values do not leak
   through the array. *)

type 'a t = {
  mutable buf : Obj.t array;
  mutable head : int;
  mutable len : int;
}

let empty = Obj.repr ()

let create ?(capacity = 16) () =
  let rec pow2 c = if c >= capacity then c else pow2 (2 * c) in
  { buf = Array.make (pow2 1) empty; head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

(* physical index of the element [i] places from the front *)
let index t i = (t.head + i) land (Array.length t.buf - 1)

let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (2 * cap) empty in
  for i = 0 to t.len - 1 do
    buf.(i) <- t.buf.(index t i)
  done;
  t.buf <- buf;
  t.head <- 0

let push_back t x =
  if t.len = Array.length t.buf then grow t;
  t.buf.(index t t.len) <- Obj.repr x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Deque.get: index out of range";
  Obj.obj t.buf.(index t i)

let pop_front t =
  if t.len = 0 then None
  else begin
    let x = t.buf.(t.head) in
    t.buf.(t.head) <- empty;
    t.head <- index t 1;
    t.len <- t.len - 1;
    Some (Obj.obj x)
  end

let peek_front t = if t.len = 0 then None else Some (get t 0)

let remove_at t i =
  let x = get t i in
  (* close the gap from the shorter side *)
  if i < t.len / 2 then begin
    for j = i downto 1 do
      t.buf.(index t j) <- t.buf.(index t (j - 1))
    done;
    t.buf.(t.head) <- empty;
    t.head <- index t 1
  end
  else begin
    for j = i to t.len - 2 do
      t.buf.(index t j) <- t.buf.(index t (j + 1))
    done;
    t.buf.(index t (t.len - 1)) <- empty
  end;
  t.len <- t.len - 1;
  x

let find_index pred t =
  let rec go i = if i >= t.len then None else if pred (get t i) then Some i else go (i + 1) in
  go 0

let find_first pred t = Option.map (get t) (find_index pred t)

let exists pred t = find_index pred t <> None

let remove_first pred t =
  match find_index pred t with None -> None | Some i -> Some (remove_at t i)

let iter f t =
  for i = 0 to t.len - 1 do
    f (get t i)
  done

let fold f acc t =
  let acc = ref acc in
  iter (fun x -> acc := f !acc x) t;
  !acc

let to_list t = List.rev (fold (fun acc x -> x :: acc) [] t)

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) empty;
  t.head <- 0;
  t.len <- 0
