(* Order statistics for run summaries and run-set comparison. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles by the "exclusive" method of Python's
   statistics.quantiles(xs, n=4), so that spreads printed here are the
   ones the benchmark contract is checked with. *)
let quartiles xs =
  let a = sorted xs in
  match Array.length a with
  | 0 -> (nan, nan, nan)
  | 1 -> (a.(0), a.(0), a.(0))
  | ld ->
      let m = ld + 1 in
      let q i =
        let j = max 1 (min (ld - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
        /. 4.
      in
      (q 1, q 2, q 3)

(* Nearest-rank percentile, [q] in (0, 1]. *)
let percentile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let sum xs = List.fold_left ( +. ) 0. xs
