(* The system clock can be stepped backwards (NTP, manual adjustment);
   budgets and deadlines must not.  Latch the high-water mark so the
   reported time is non-decreasing within the process. *)
let last = ref neg_infinity

let monotonic_s () =
  let t = Unix.gettimeofday () in
  if t > !last then last := t;
  !last

let earliest a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some x, Some y -> Some (Float.min x y)
