(* The five statistics every trace format stores per RSD, in one
   all-float record.  OCaml stores it flat: updating a field writes the
   unboxed double in place, so neither [add] nor [merge_into] allocates,
   and a summary is 6 words.  The count is a float too (a mixed record
   would box every float field); it is exact up to 2^53, which [of_stats]
   enforces for counts read back from a file. *)
type t = {
  mutable n : float;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  mutable first : float;
}

let create () =
  { n = 0.; sum = 0.; min_v = infinity; max_v = neg_infinity; first = 0. }

let add t x =
  if not (Float.is_finite x) || x < 0. then
    invalid_arg "Histogram.add: sample must be finite and non-negative";
  if t.n = 0. then t.first <- x;
  t.n <- t.n +. 1.;
  t.sum <- t.sum +. x;
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x

let count t = int_of_float t.n
let sum t = t.sum
let min_value t = if t.n = 0. then 0. else t.min_v
let max_value t = if t.n = 0. then 0. else t.max_v
let mean t = if t.n = 0. then 0. else t.sum /. t.n
let first_sample t = t.first

let of_stats ~count ~sum ~min ~max ~first =
  let ok x = Float.is_finite x && x >= 0. in
  let consistent =
    if count = 0 then sum = 0. && min = 0. && max = 0. && first = 0.
    else min <= first && first <= max
  in
  if count < 0 || count > 1 lsl 53
     || not (ok sum && ok min && ok max && ok first && consistent)
  then
    invalid_arg
      "Histogram.of_stats: need 0 <= count <= 2^53, sum/min/max/first \
       finite and non-negative, and min <= first <= max (all 0 when empty)";
  if count = 0 then create ()
  else { n = float_of_int count; sum; min_v = min; max_v = max; first }

let merge_into t other =
  if other.n > 0. then begin
    if t.n = 0. then t.first <- other.first;
    t.n <- t.n +. other.n;
    t.sum <- t.sum +. other.sum;
    if other.min_v < t.min_v then t.min_v <- other.min_v;
    if other.max_v > t.max_v then t.max_v <- other.max_v
  end

let copy t =
  { n = t.n; sum = t.sum; min_v = t.min_v; max_v = t.max_v; first = t.first }

let pp ppf t =
  Format.fprintf ppf "{n=%d mean=%.3es min=%.3es max=%.3es}"
    (count t) (mean t) (min_value t) (max_value t)
