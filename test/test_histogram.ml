open Util

let t name f = Alcotest.test_case name `Quick f
let feq = Alcotest.(check (float 1e-9))

(* min <= mean <= max, up to the rounding of the running sum *)
let mean_in_range h =
  let slack = 1e-12 *. Histogram.max_value h in
  Histogram.min_value h -. slack <= Histogram.mean h
  && Histogram.mean h <= Histogram.max_value h +. slack

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
        feq "first" 0.5 (Histogram.first_sample h));
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
        feq "rest" 1.0
          ((Histogram.sum h -. Histogram.first_sample h)
          /. float_of_int (Histogram.count h - 1)));
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
        feq "min" 0.001 (Histogram.min_value h);
        feq "max" 0.008 (Histogram.max_value h);
        Alcotest.(check bool) "mean in range" true (mean_in_range h));
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
        Alcotest.(check int) "original count" 2 (Histogram.count h);
        feq "original sum" 101.0 (Histogram.sum h);
        feq "original min" 1.0 (Histogram.min_value h);
        feq "original max" 100.0 (Histogram.max_value h));
    t "draw within range" (fun () ->
        let h = Histogram.create () in
        List.iter (Histogram.add h) [ 0.01; 0.02; 0.03 ];
        Alcotest.(check bool) "mean in range" true (mean_in_range h));
    t "one-sample footprint" (fun () ->
        (* one summary per recorded MPI call: the five statistics stored
           flat, no box per field *)
        let h = Histogram.create () in
        Histogram.add h 3e-6;
        let words = Obj.reachable_words (Obj.repr h) in
        Alcotest.(check bool)
          (Printf.sprintf "%d words <= 6" words) true (words <= 6));
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
            ("infinite first", 2, 2., 1., 1., infinity);
            (* statistics no summary can have *)
            ("empty with a sum", 0, 5., 1., 2., 3.);
            ("empty with a first sample", 0, 0., 0., 0., 1.);
            ("min above max", 2, 1., 5., 1., 0.);
            ("first above max", 2, 4., 1., 3., 9.);
            ("first below min", 2, 4., 1., 3., 0.5);
            ("count above 2^53", (1 lsl 53) + 1, 1., 0., 1., 0.) ];
        let top =
          Histogram.of_stats ~count:(1 lsl 53) ~sum:1. ~min:0. ~max:1. ~first:0.
        in
        Alcotest.(check int) "2^53 accepted exactly" (1 lsl 53) (Histogram.count top));
    t "mean reconstruction error small" (fun () ->
        (* the mean is the exact sum / count: nothing is reconstructed *)
        let h = Histogram.create () and sum = ref 0. in
        for i = 1 to 1000 do
          let x = float_of_int i *. 1e-6 in
          Histogram.add h x;
          sum := !sum +. x
        done;
        Alcotest.(check (float 0.)) "mean" (!sum /. 1000.) (Histogram.mean h);
        Alcotest.(check (float 1e-15)) "500.5 us" 500.5e-6 (Histogram.mean h));
  ]

(* The five-number summary as plain fields with an int count, the
   differential model: every query must agree with it bit for bit, and
   [of_stats] must refuse exactly the statistics it refuses. *)
module Model = struct
  type t = { mutable count : int; mutable sum : float; mutable min_v : float;
             mutable max_v : float; mutable first : float }

  let create () =
    { count = 0; sum = 0.; min_v = infinity; max_v = neg_infinity; first = 0. }

  let add t x =
    if t.count = 0 then t.first <- x;
    t.count <- t.count + 1;
    t.sum <- t.sum +. x;
    if x < t.min_v then t.min_v <- x;
    if x > t.max_v then t.max_v <- x

  let min_value t = if t.count = 0 then 0. else t.min_v
  let max_value t = if t.count = 0 then 0. else t.max_v
  let mean t = if t.count = 0 then 0. else t.sum /. float_of_int t.count

  (* [None] where {!Histogram.of_stats} must raise *)
  let of_stats ~count ~sum ~min ~max ~first =
    if count = 0 then
      if sum = 0. && min = 0. && max = 0. && first = 0. then Some (create ())
      else None
    else if min <= first && first <= max then
      Some { count; sum; min_v = min; max_v = max; first }
    else None

  let merge_into t o =
    if o.count > 0 then begin
      if t.count = 0 then t.first <- o.first;
      t.count <- t.count + o.count;
      t.sum <- t.sum +. o.sum;
      if o.min_v < t.min_v then t.min_v <- o.min_v;
      if o.max_v > t.max_v then t.max_v <- o.max_v
    end

  let copy t = { t with count = t.count }
end

(* Random op sequences over a pool of summaries, replayed on both sides.
   Samples span exact zero, tiny, huge and microsecond-scale values. *)
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

let observe h =
  let open Histogram in
  [ float_of_int (count h); sum h; min_value h; max_value h; first_sample h;
    mean h ]

let observe_model (m : Model.t) =
  [ float_of_int m.count; m.sum; Model.min_value m; Model.max_value m; m.first;
    Model.mean m ]

let replay ops =
  let pool = ref [ (Histogram.create (), Model.create ()) ] in
  let pick i = List.nth !pool (i mod List.length !pool) in
  let push p = pool := !pool @ [ p ] in
  let agree =
    List.for_all
      (function
        | Create ->
            push (Histogram.create (), Model.create ());
            true
        | Add (i, x) ->
            let h, m = pick i in
            Histogram.add h x;
            Model.add m x;
            true
        | Merge (i, j) ->
            let h, m = pick i and h', m' = pick j in
            Histogram.merge_into h h';
            Model.merge_into m m';
            true
        | Copy i ->
            let h, m = pick i in
            push (Histogram.copy h, Model.copy m);
            true
        | Of_stats (count, sum, min, max, first) -> (
            match
              ( Histogram.of_stats ~count ~sum ~min ~max ~first,
                Model.of_stats ~count ~sum ~min ~max ~first )
            with
            | h, Some m ->
                push (h, m);
                true
            | _, None -> false
            | exception Invalid_argument _ ->
                Model.of_stats ~count ~sum ~min ~max ~first = None))
      ops
  in
  agree
  && List.for_all
       (fun (h, m) ->
         List.for_all2
           (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
           (observe h) (observe_model m))
       !pool

let differential =
  QCheck.Test.make ~name:"five-number summaries match the reference model"
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
          mean_in_range h);
      differential;
    ]

let suite = unit_tests @ props
