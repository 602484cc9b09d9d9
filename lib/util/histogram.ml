(* Exponential buckets: bucket i covers [base * r^i, base * r^(i+1)) with
   base = 1 ns and ratio r = 2^(1/2), giving ~4% worst-case relative error
   on reconstructed means over a 1ns .. >1e9s range with 128 buckets. *)

let n_buckets = 128
let base = 1e-9
let log_ratio = 0.5 *. log 2.

(* Only the occupied bucket range is stored: [buckets.(k)] counts bucket
   [blo + k], both ends are nonzero, and an empty summary holds [||].
   Every recorded MPI call owns one summary and most hold a single
   sample, so a dense 128-slot array per summary would dominate the
   memory of a trace.

   The float statistics live in their own all-float record, which OCaml
   stores flat: updating a field writes the unboxed double in place,
   where a float field of a mixed record would allocate a fresh box on
   every [add] and [merge_into]. *)
type stats = {
  mutable sum : float;
  mutable sumsq : float;
  mutable min_v : float;
  mutable max_v : float;
  mutable first : float;
}

type t = {
  mutable count : int;
  s : stats;
  mutable blo : int; (* bucket index of [buckets.(0)]; unused when empty *)
  mutable buckets : int array; (* bucket 0 additionally holds all x < base *)
}

let create () =
  { count = 0;
    s = { sum = 0.; sumsq = 0.; min_v = infinity; max_v = neg_infinity;
          first = 0. };
    blo = 0; buckets = [||] }

(* Widen the stored range to cover buckets [lo..hi]. *)
let widen t lo hi =
  let n = Array.length t.buckets in
  if n = 0 then begin
    t.blo <- lo;
    t.buckets <- Array.make (hi - lo + 1) 0
  end
  else if lo < t.blo || hi >= t.blo + n then begin
    let nlo = Int.min lo t.blo and nhi = Int.max hi (t.blo + n - 1) in
    let b = Array.make (nhi - nlo + 1) 0 in
    Array.blit t.buckets 0 b (t.blo - nlo) n;
    t.blo <- nlo;
    t.buckets <- b
  end

let bump t i n =
  widen t i i;
  let k = i - t.blo in
  t.buckets.(k) <- t.buckets.(k) + n

let bucket_index x =
  if x < base then 0
  else
    let i = int_of_float (log (x /. base) /. log_ratio) in
    if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i

(* Midpoint (geometric mean) of bucket i, used for reconstruction. *)
let bucket_mid i = base *. exp ((float_of_int i +. 0.5) *. log_ratio)

let add t x =
  if not (Float.is_finite x) || x < 0. then
    invalid_arg "Histogram.add: sample must be finite and non-negative";
  let s = t.s in
  if t.count = 0 then s.first <- x;
  t.count <- t.count + 1;
  s.sum <- s.sum +. x;
  s.sumsq <- s.sumsq +. (x *. x);
  if x < s.min_v then s.min_v <- x;
  if x > s.max_v then s.max_v <- x;
  bump t (bucket_index x) 1

let count t = t.count
let sum t = t.s.sum
let min_value t = if t.count = 0 then 0. else t.s.min_v
let max_value t = if t.count = 0 then 0. else t.s.max_v
let mean t = if t.count = 0 then 0. else t.s.sum /. float_of_int t.count

let variance t =
  if t.count = 0 then 0.
  else
    let m = mean t in
    let v = (t.s.sumsq /. float_of_int t.count) -. (m *. m) in
    if v < 0. then 0. else v

let first_sample t = t.s.first

let rest_mean t =
  if t.count <= 1 then mean t
  else (t.s.sum -. t.s.first) /. float_of_int (t.count - 1)

(* Buckets outside the stored range are empty: below it the running count
   stays 0 (< target, since q > 0), above it the count never grows again,
   so the walk over the range decides exactly as a walk over all 128. *)
let quantile t q =
  if t.count = 0 then 0.
  else if q <= 0. then min_value t
  else if q >= 1. then max_value t
  else begin
    let target = q *. float_of_int t.count in
    let n = Array.length t.buckets in
    let rec find k seen =
      if k >= n then max_value t
      else
        let seen' = seen +. float_of_int t.buckets.(k) in
        if seen' >= target then bucket_mid (t.blo + k) else find (k + 1) seen'
    in
    let v = find 0 0. in
    Float.min (Float.max v (min_value t)) (max_value t)
  end

let draw t ~u =
  if t.count = 0 then 0.
  else
    let u = if u < 0. then 0. else if u >= 1. then Float.pred 1. else u in
    quantile t u

let of_stats ~count ~sum ~min ~max ~first =
  let ok x = Float.is_finite x && x >= 0. in
  if count < 0 || not (ok sum && ok min && ok max && ok first) then
    invalid_arg
      "Histogram.of_stats: count must be >= 0 and sum/min/max/first finite \
       and non-negative";
  let t = create () in
  if count > 0 then begin
    let s = t.s in
    t.count <- count;
    s.sum <- sum;
    let mean = sum /. float_of_int count in
    s.sumsq <- float_of_int count *. mean *. mean;
    s.min_v <- min;
    s.max_v <- max;
    s.first <- first;
    bump t (bucket_index mean) count
  end;
  t

let merge_into t other =
  if other.count > 0 then begin
    let s = t.s and o = other.s in
    if t.count = 0 then s.first <- o.first;
    t.count <- t.count + other.count;
    s.sum <- s.sum +. o.sum;
    s.sumsq <- s.sumsq +. o.sumsq;
    if o.min_v < s.min_v then s.min_v <- o.min_v;
    if o.max_v > s.max_v then s.max_v <- o.max_v;
    let ob = other.buckets and olo = other.blo in
    let n = Array.length ob in
    widen t olo (olo + n - 1);
    let off = olo - t.blo in
    for k = 0 to n - 1 do
      t.buckets.(off + k) <- t.buckets.(off + k) + ob.(k)
    done
  end

(* Both blocks are copied: a copy sharing [s] would see every later
   [add] on the original. *)
let copy t =
  let s = t.s in
  { t with
    s = { sum = s.sum; sumsq = s.sumsq; min_v = s.min_v; max_v = s.max_v;
          first = s.first };
    buckets = Array.copy t.buckets }

let pp ppf t =
  Format.fprintf ppf "{n=%d mean=%.3es min=%.3es max=%.3es}"
    t.count (mean t) (min_value t) (max_value t)
