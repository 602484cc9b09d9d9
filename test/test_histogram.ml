open Util

let t name f = Alcotest.test_case name `Quick f
let feq = Alcotest.(check (float 1e-9))
(* bucketed quantiles are accurate to one bucket width (~20%) *)
let feq_rel msg a b =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %g ~ %g" msg a b)
    true
    (Float.abs (a -. b) <= 0.2 *. Float.max 1e-12 (Float.abs a))

let unit_tests =
  [
    t "empty" (fun () ->
        let h = Histogram.create () in
        Alcotest.(check int) "count" 0 (Histogram.count h);
        feq "mean" 0. (Histogram.mean h);
        feq "min" 0. (Histogram.min_value h);
        feq "max" 0. (Histogram.max_value h));
    t "single sample" (fun () ->
        let h = Histogram.create () in
        Histogram.add h 0.5;
        Alcotest.(check int) "count" 1 (Histogram.count h);
        feq "mean" 0.5 (Histogram.mean h);
        feq "first" 0.5 (Histogram.first_sample h);
        feq "variance" 0. (Histogram.variance h));
    t "mean/min/max exact" (fun () ->
        let h = Histogram.create () in
        List.iter (Histogram.add h) [ 1.0; 2.0; 3.0; 6.0 ];
        feq "mean" 3.0 (Histogram.mean h);
        feq "min" 1.0 (Histogram.min_value h);
        feq "max" 6.0 (Histogram.max_value h);
        feq "sum" 12.0 (Histogram.sum h));
    t "first vs rest" (fun () ->
        let h = Histogram.create () in
        List.iter (Histogram.add h) [ 10.0; 1.0; 1.0; 1.0 ];
        feq "first" 10.0 (Histogram.first_sample h);
        feq "rest" 1.0 (Histogram.rest_mean h));
    t "rejects negative" (fun () ->
        let h = Histogram.create () in
        Alcotest.check_raises "neg"
          (Invalid_argument "Histogram.add: sample must be finite and non-negative")
          (fun () -> Histogram.add h (-1.0)));
    t "rejects nan" (fun () ->
        let h = Histogram.create () in
        Alcotest.check_raises "nan"
          (Invalid_argument "Histogram.add: sample must be finite and non-negative")
          (fun () -> Histogram.add h Float.nan));
    t "merge combines counts and extremes" (fun () ->
        let a = Histogram.create () and b = Histogram.create () in
        List.iter (Histogram.add a) [ 1.0; 2.0 ];
        List.iter (Histogram.add b) [ 0.5; 4.0 ];
        Histogram.merge_into a b;
        Alcotest.(check int) "count" 4 (Histogram.count a);
        feq "min" 0.5 (Histogram.min_value a);
        feq "max" 4.0 (Histogram.max_value a);
        feq "first (kept)" 1.0 (Histogram.first_sample a));
    t "merge into empty takes first" (fun () ->
        let a = Histogram.create () and b = Histogram.create () in
        Histogram.add b 2.0;
        Histogram.merge_into a b;
        feq "first" 2.0 (Histogram.first_sample a));
    t "quantile bounds" (fun () ->
        let h = Histogram.create () in
        List.iter (Histogram.add h) [ 0.001; 0.002; 0.004; 0.008 ];
        feq "q0" 0.001 (Histogram.quantile h 0.);
        feq "q1" 0.008 (Histogram.quantile h 1.);
        let med = Histogram.quantile h 0.5 in
        Alcotest.(check bool) "median in range" true (med >= 0.001 && med <= 0.008));
    t "copy independent" (fun () ->
        let h = Histogram.create () in
        Histogram.add h 1.0;
        let c = Histogram.copy h in
        Histogram.add h 100.0;
        Histogram.add c 0.5;
        Alcotest.(check int) "copy count" 2 (Histogram.count c);
        feq "copy sum" 1.5 (Histogram.sum c);
        feq "copy min" 0.5 (Histogram.min_value c);
        feq "copy max" 1.0 (Histogram.max_value c);
        feq "copy variance" 0.0625 (Histogram.variance c);
        Alcotest.(check int) "original count" 2 (Histogram.count h);
        feq "original sum" 101.0 (Histogram.sum h);
        feq "original min" 1.0 (Histogram.min_value h);
        feq "original max" 100.0 (Histogram.max_value h);
        feq "original quantile" 100.0 (Histogram.quantile h 1.));
    t "draw within range" (fun () ->
        let h = Histogram.create () in
        List.iter (Histogram.add h) [ 0.01; 0.02; 0.03 ];
        List.iter
          (fun u ->
            let v = Histogram.draw h ~u in
            Alcotest.(check bool) "in range" true (v >= 0.01 && v <= 0.03))
          [ 0.0; 0.3; 0.7; 0.99 ]);
    t "one-sample footprint" (fun () ->
        (* one summary per recorded MPI call: a single sample must not pay
           for all 128 buckets *)
        let h = Histogram.create () in
        Histogram.add h 3e-6;
        let words = Obj.reachable_words (Obj.repr h) in
        Alcotest.(check bool)
          (Printf.sprintf "%d words <= 13" words) true (words <= 13));
    t "of_stats rejects corrupt statistics" (fun () ->
        let ok = Histogram.of_stats ~count:0 ~sum:0. ~min:0. ~max:0. ~first:0. in
        Alcotest.(check int) "empty accepted" 0 (Histogram.count ok);
        List.iter
          (fun (what, count, sum, min, max, first) ->
            Alcotest.(check bool) what true
              (match Histogram.of_stats ~count ~sum ~min ~max ~first with
              | _ -> false
              | exception Invalid_argument _ -> true))
          [ ("negative count", -5, 1., 1., 1., 1.);
            ("nan sum", 2, Float.nan, 1., 1., 1.);
            ("negative sum", 2, -1., 1., 1., 1.);
            ("infinite sum", 2, infinity, 1., 1., 1.);
            ("negative min", 2, 2., -1., 1., 1.);
            ("nan max", 2, 2., 1., Float.nan, 1.);
            ("infinite first", 2, 2., 1., 1., infinity) ]);
    t "mean reconstruction error small" (fun () ->
        (* bucketing must reconstruct quantiles within ~5% *)
        let h = Histogram.create () in
        for i = 1 to 1000 do
          Histogram.add h (float_of_int i *. 1e-6)
        done;
        feq_rel "median" 500e-6 (Histogram.quantile h 0.5));
  ]

(* The dense 128-bucket summary the occupied-range representation
   replaced, kept as the differential oracle: the same bucket counts, so
   every observable must agree bit for bit. *)
module Dense = struct
  let n_buckets = 128
  let base = 1e-9
  let log_ratio = 0.5 *. log 2.

  type t = { mutable count : int; mutable sum : float; mutable sumsq : float;
             mutable min_v : float; mutable max_v : float; mutable first : float;
             buckets : int array }

  let create () =
    { count = 0; sum = 0.; sumsq = 0.; min_v = infinity; max_v = neg_infinity;
      first = 0.; buckets = Array.make n_buckets 0 }

  let bucket_index x =
    if x < base then 0
    else
      let i = int_of_float (log (x /. base) /. log_ratio) in
      if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i

  let add t x =
    if t.count = 0 then t.first <- x;
    t.count <- t.count + 1;
    t.sum <- t.sum +. x;
    t.sumsq <- t.sumsq +. (x *. x);
    if x < t.min_v then t.min_v <- x;
    if x > t.max_v then t.max_v <- x;
    let i = bucket_index x in
    t.buckets.(i) <- t.buckets.(i) + 1

  let min_value t = if t.count = 0 then 0. else t.min_v
  let max_value t = if t.count = 0 then 0. else t.max_v
  let mean t = if t.count = 0 then 0. else t.sum /. float_of_int t.count

  let variance t =
    if t.count = 0 then 0.
    else
      let m = mean t in
      Float.max 0. ((t.sumsq /. float_of_int t.count) -. (m *. m))

  let quantile t q =
    if t.count = 0 then 0.
    else if q <= 0. then min_value t
    else if q >= 1. then max_value t
    else
      let target = q *. float_of_int t.count in
      let rec find i seen =
        if i >= n_buckets then max_value t
        else
          let seen' = seen +. float_of_int t.buckets.(i) in
          if seen' >= target then base *. exp ((float_of_int i +. 0.5) *. log_ratio)
          else find (i + 1) seen'
      in
      Float.min (Float.max (find 0 0.) (min_value t)) (max_value t)

  let draw t ~u =
    if t.count = 0 then 0.
    else quantile t (if u < 0. then 0. else if u >= 1. then Float.pred 1. else u)

  let of_stats ~count ~sum ~min ~max ~first =
    let t = create () in
    if count > 0 then begin
      let mean = sum /. float_of_int count in
      t.count <- count; t.sum <- sum; t.min_v <- min; t.max_v <- max;
      t.first <- first; t.sumsq <- float_of_int count *. mean *. mean;
      t.buckets.(bucket_index mean) <- count
    end;
    t

  let merge_into t o =
    if o.count > 0 then begin
      if t.count = 0 then t.first <- o.first;
      t.count <- t.count + o.count;
      t.sum <- t.sum +. o.sum;
      t.sumsq <- t.sumsq +. o.sumsq;
      if o.min_v < t.min_v then t.min_v <- o.min_v;
      if o.max_v > t.max_v then t.max_v <- o.max_v;
      Array.iteri (fun i n -> t.buckets.(i) <- t.buckets.(i) + n) o.buckets
    end

  let copy t = { t with buckets = Array.copy t.buckets }
end

(* Random op sequences over a pool of summaries, replayed on both sides.
   Samples span every bucket regime: exact zero, below the 1 ns base,
   the interior, and beyond the last bucket. *)
type op =
  | Create
  | Add of int * float
  | Merge of int * int
  | Copy of int
  | Of_stats of int * float * float * float * float

let gen_value =
  QCheck.Gen.(
    oneof
      [ return 0.;
        float_bound_inclusive 1e-9;
        map (fun e -> 10. ** e) (float_range (-10.) 11.);
        map (fun k -> Float.of_int k *. 1e-6) (int_range 1 50) ])

let gen_op =
  QCheck.Gen.(
    frequency
      [ (1, return Create);
        (6, map2 (fun i x -> Add (i, x)) nat gen_value);
        (3, map2 (fun i j -> Merge (i, j)) nat nat);
        (1, map (fun i -> Copy i) nat);
        (1, map2 (fun c (s, a, b, f) -> Of_stats (c, s, a, b, f))
              (int_range 0 20) (quad gen_value gen_value gen_value gen_value)) ])

let show_op = function
  | Create -> "create"
  | Add (i, x) -> Printf.sprintf "add %d %h" i x
  | Merge (i, j) -> Printf.sprintf "merge %d %d" i j
  | Copy i -> Printf.sprintf "copy %d" i
  | Of_stats (c, s, a, b, f) -> Printf.sprintf "of_stats %d %h %h %h %h" c s a b f

let qs = [ 0.05; 0.25; 0.5; 0.75; 0.95 ]
let us = [ -0.5; 0.; 0.1; 0.33; 0.5; 0.9; 0.999; 1. ]

let observe_new h =
  let open Histogram in
  [ float_of_int (count h); sum h; min_value h; max_value h; first_sample h;
    mean h; variance h ]
  @ List.map (quantile h) qs
  @ List.map (fun u -> draw h ~u) us

let observe_dense (h : Dense.t) =
  [ float_of_int h.count; h.sum; Dense.min_value h; Dense.max_value h; h.first;
    Dense.mean h; Dense.variance h ]
  @ List.map (Dense.quantile h) qs
  @ List.map (fun u -> Dense.draw h ~u) us

let replay ops =
  let pool = ref [ (Histogram.create (), Dense.create ()) ] in
  let pick i = List.nth !pool (i mod List.length !pool) in
  let push p = pool := !pool @ [ p ] in
  List.iter
    (function
      | Create -> push (Histogram.create (), Dense.create ())
      | Add (i, x) ->
          let h, d = pick i in
          Histogram.add h x;
          Dense.add d x
      | Merge (i, j) ->
          let h, d = pick i and h', d' = pick j in
          Histogram.merge_into h h';
          Dense.merge_into d d'
      | Copy i ->
          let h, d = pick i in
          push (Histogram.copy h, Dense.copy d)
      | Of_stats (count, sum, min, max, first) ->
          push
            ( Histogram.of_stats ~count ~sum ~min ~max ~first,
              Dense.of_stats ~count ~sum ~min ~max ~first ))
    ops;
  List.for_all
    (fun (h, d) ->
      List.for_all2
        (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
        (observe_new h) (observe_dense d))
    !pool

let differential =
  QCheck.Test.make ~name:"occupied-range buckets match the dense reference"
    ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 1 40) gen_op))
    replay

let gen_samples =
  QCheck.(list_of_size (Gen.int_range 1 50) (map (fun f -> Float.abs f +. 1e-9) float))

let props =
  List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260705 |]))
    [
      QCheck.Test.make ~name:"mean = sum/count" ~count:200 gen_samples (fun l ->
          let h = Histogram.create () in
          List.iter (Histogram.add h) l;
          let n = List.length l in
          Float.abs
            ((Histogram.sum h /. float_of_int n) -. Histogram.mean h)
          < 1e-9);
      QCheck.Test.make ~name:"merge mean = pooled mean" ~count:200
        (QCheck.pair gen_samples gen_samples) (fun (a, b) ->
          let ha = Histogram.create () and hb = Histogram.create () in
          List.iter (Histogram.add ha) a;
          List.iter (Histogram.add hb) b;
          Histogram.merge_into ha hb;
          let pooled =
            List.fold_left ( +. ) 0. (a @ b) /. float_of_int (List.length a + List.length b)
          in
          Float.abs (Histogram.mean ha -. pooled) <= 1e-9 *. (1. +. pooled));
      QCheck.Test.make ~name:"self-merge preserves mean" ~count:100 gen_samples
        (fun l ->
          let h = Histogram.create () in
          List.iter (Histogram.add h) l;
          let m = Histogram.mean h in
          Histogram.merge_into h (Histogram.copy h);
          Float.abs (Histogram.mean h -. m) <= 1e-9 *. (1. +. m));
      QCheck.Test.make ~name:"quantiles monotone" ~count:100 gen_samples (fun l ->
          let h = Histogram.create () in
          List.iter (Histogram.add h) l;
          Histogram.quantile h 0.25 <= Histogram.quantile h 0.75);
      differential;
    ]

let suite = unit_tests @ props
