(* Growable ring buffer.  [head] indexes the oldest element; the [len]
   live elements occupy buf.[(head + i) mod cap].  Empty slots hold
   [dummy] so popped values do not leak through the array. *)

type 'a t = {
  mutable buf : 'a option array;
  mutable head : int;
  mutable len : int;
}

let create ?(capacity = 16) () =
  { buf = Array.make (max 1 capacity) None; head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (2 * cap) None in
  for i = 0 to t.len - 1 do
    buf.(i) <- t.buf.((t.head + i) mod cap)
  done;
  t.buf <- buf;
  t.head <- 0

let push_back t x =
  if t.len = Array.length t.buf then grow t;
  t.buf.((t.head + t.len) mod Array.length t.buf) <- Some x;
  t.len <- t.len + 1

let pop_front t =
  if t.len = 0 then None
  else begin
    let x = t.buf.(t.head) in
    t.buf.(t.head) <- None;
    t.head <- (t.head + 1) mod Array.length t.buf;
    t.len <- t.len - 1;
    x
  end

let peek_front t = if t.len = 0 then None else t.buf.(t.head)

let get t i = Option.get t.buf.((t.head + i) mod Array.length t.buf)

let find_index pred t =
  let rec go i = if i >= t.len then None else if pred (get t i) then Some i else go (i + 1) in
  go 0

let find_first pred t = Option.map (get t) (find_index pred t)

let exists pred t = find_index pred t <> None

let remove_first pred t =
  match find_index pred t with
  | None -> None
  | Some i ->
      let cap = Array.length t.buf in
      let x = get t i in
      (* close the gap from the shorter side *)
      if i < t.len / 2 then begin
        for j = i downto 1 do
          t.buf.((t.head + j) mod cap) <- t.buf.((t.head + j - 1) mod cap)
        done;
        t.buf.(t.head) <- None;
        t.head <- (t.head + 1) mod cap
      end
      else begin
        for j = i to t.len - 2 do
          t.buf.((t.head + j) mod cap) <- t.buf.((t.head + j + 1) mod cap)
        done;
        t.buf.((t.head + t.len - 1) mod cap) <- None
      end;
      t.len <- t.len - 1;
      Some x

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
  Array.fill t.buf 0 (Array.length t.buf) None;
  t.head <- 0;
  t.len <- 0
