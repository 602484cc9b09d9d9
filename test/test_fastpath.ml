(* Differential tests for the allocation-free RSD fast paths: monomorphic
   and physical-equality comparisons in {!Event}, {!Tnode} and
   {!Util.Rank_set}, tuple-free hashes, and the one-walk
   {!Trace.projections}.  {!Event_ref} holds the polymorphic definitions
   they replaced.

   Random event pairs relate field by field: the second event shares the
   first one's value, holds a structurally equal but distinct copy, or
   draws its own.  So every comparison meets shared, equal and unequal
   operands: call sites that are the same record, an equal record or
   another; count vectors that are [None], one array, or equal arrays;
   rank sets that are one shared singleton, fresh equal singletons, or
   multi-interval sets. *)

open Scalatrace

let t name f = Alcotest.test_case name `Quick f

type rel = Shared | Copied | Fresh

let gen_rel =
  QCheck.Gen.frequency
    [ (2, QCheck.Gen.return Shared); (2, QCheck.Gen.return Copied);
      (1, QCheck.Gen.return Fresh) ]

let constant_kinds =
  Event.
    [ E_send; E_isend; E_recv; E_irecv; E_wait; E_barrier; E_bcast; E_reduce;
      E_allreduce; E_gather; E_gatherv; E_allgather; E_allgatherv; E_scatter;
      E_scatterv; E_alltoall; E_alltoallv; E_reduce_scatter;
      E_neighbor_alltoall; E_neighbor_allgather; E_comm_split; E_comm_dup;
      E_finalize ]

let gen_kind =
  QCheck.Gen.(
    frequency
      [ (2, oneofl constant_kinds);
        (1, map (fun n -> Event.E_waitall n) (int_range 0 3)) ])

let gen_peer =
  QCheck.Gen.(
    frequency
      [ (1, return Event.P_none);
        (1, return Event.P_any);
        (2, map (fun r -> Event.P_abs r) (int_range 0 7));
        (2, map (fun d -> Event.P_rel d) (int_range 0 7));
        (2, map (fun m -> Event.P_map m)
              (list_size (int_range 1 3) (pair (int_range 0 7) (int_range 0 7))))
      ])

let gen_vec =
  QCheck.Gen.(
    frequency
      [ (1, return None);
        (2, map (fun l -> Some (Array.of_list l)) (list_size (int_range 0 4) (int_range 0 3))) ])

(* singletons, strided ranges, and arbitrary (multi-interval) sets *)
let gen_ranks =
  QCheck.Gen.(
    frequency
      [ (2, map Util.Rank_set.singleton (int_range 0 7));
        (1, map2 (fun a n -> Util.Rank_set.range ~stride:2 a (a + (2 * n)))
              (int_range 0 7) (int_range 0 3));
        (2, map Util.Rank_set.of_list (list_size (int_range 1 6) (int_range 0 15))) ])

let sites =
  [ Util.Callsite.synthetic "a"; Util.Callsite.synthetic "b";
    Util.Callsite.make ("f.ml", 3, 4, 5); Util.Callsite.make ~label:"x" ("f.ml", 3, 4, 5) ]

(* structurally equal, physically distinct copies *)
let copy_site s = Util.Callsite.decode (Util.Callsite.encode s)
let copy_kind = function Event.E_waitall n -> Event.E_waitall n | k -> k

let copy_peer = function
  | Event.P_abs r -> Event.P_abs r
  | Event.P_rel d -> Event.P_rel d
  | Event.P_map m -> Event.P_map (List.map (fun (r, p) -> (r, p)) m)
  | (Event.P_none | Event.P_any) as p -> p

let copy_ranks s = Util.Rank_set.of_list (Util.Rank_set.to_list s)

let pick rel ~same ~copy ~fresh =
  match rel with Shared -> same | Copied -> copy same | Fresh -> fresh

let event ~site ~kind ~peer ~bytes ~tag ~comm ~vec ~parts ~ranks =
  let dtime = Util.Histogram.create () in
  Util.Histogram.add dtime 1e-6;
  { Event.site; kind; peer; bytes; vec; tag; comm; parts; dtime; ranks; hcache = 0 }

let gen_pair =
  QCheck.Gen.(
    let* site = oneofl sites and* kind = gen_kind and* peer = gen_peer
    and* bytes = int_range 0 2 and* tag = int_range 0 1 and* comm = int_range 0 1
    and* vec = gen_vec and* parts = gen_vec and* ranks = gen_ranks in
    let* site' = oneofl sites and* kind' = gen_kind and* peer' = gen_peer
    and* bytes' = int_range 0 2 and* tag' = int_range 0 1 and* comm' = int_range 0 1
    and* vec' = gen_vec and* parts' = gen_vec and* ranks' = gen_ranks in
    let* r_site = gen_rel and* r_kind = gen_rel and* r_peer = gen_rel
    and* r_bytes = gen_rel and* r_tag = gen_rel and* r_comm = gen_rel
    and* r_vec = gen_rel and* r_parts = gen_rel and* r_ranks = gen_rel in
    (* a fresh kind for a waitall is a waitall of another count: the pair
       a kind comparison that ignored the count would call equal *)
    let kind' =
      match kind with
      | Event.E_waitall n when r_kind = Fresh -> Event.E_waitall (n + 1)
      | _ -> kind'
    in
    let int rel x x' = pick rel ~same:x ~copy:Fun.id ~fresh:x' in
    return
      ( event ~site ~kind ~peer ~bytes ~tag ~comm ~vec ~parts ~ranks,
        event
          ~site:(pick r_site ~same:site ~copy:copy_site ~fresh:site')
          ~kind:(pick r_kind ~same:kind ~copy:copy_kind ~fresh:kind')
          ~peer:(pick r_peer ~same:peer ~copy:copy_peer ~fresh:peer')
          ~bytes:(int r_bytes bytes bytes') ~tag:(int r_tag tag tag')
          ~comm:(int r_comm comm comm')
          ~vec:(pick r_vec ~same:vec ~copy:(Option.map Array.copy) ~fresh:vec')
          ~parts:(pick r_parts ~same:parts ~copy:(Option.map Array.copy) ~fresh:parts')
          ~ranks:(pick r_ranks ~same:ranks ~copy:copy_ranks ~fresh:ranks') ))

let print_pair (a, b) =
  Format.asprintf "@[<v>%a site %s@,%a site %s@]" Event.pp a
    (Util.Callsite.encode a.Event.site) Event.pp b (Util.Callsite.encode b.Event.site)

let arb_pair = QCheck.make ~print:print_pair gen_pair

let sign c = compare c 0

(* Every fast path agrees with its oracle on one pair, and equivalence
   implies equal hashes. *)
let agree (a, b) =
  let la = Tnode.Leaf a and lb = Tnode.Leaf b in
  let loop n = Tnode.loop ~count:3 [ n; Tnode.Leaf a ] in
  let ra = a.Event.ranks and rb = b.Event.ranks in
  let mergeable = Event.mergeable a b in
  mergeable = Event_ref.mergeable a b
  && ((not mergeable) || Event.hash a = Event.hash b)
  && Event.kind_equal a.kind b.kind = Event_ref.kind_equal a.kind b.kind
  && Event.peer_equal a.peer b.peer = Event_ref.peer_equal a.peer b.peer
  && List.for_all
       (fun (x, y) ->
         let equiv = Tnode.equiv_ranks x y in
         equiv = Event_ref.equiv_ranks x y
         && ((not equiv) || Tnode.hash x = Tnode.hash y))
       [ (la, lb); (loop la, loop lb); (la, loop lb) ]
  && Util.Rank_set.equal ra rb = Event_ref.rank_set_equal ra rb
  && Util.Rank_set.union ra rb = Event_ref.rank_set_union ra rb
  && Util.Rank_set.union ra ra = Event_ref.rank_set_union ra ra
  && sign (Util.Rank_set.compare ra rb) = sign (Event_ref.rank_set_compare ra rb)

(* [absorb] on copies of the pair gives the oracle's peer, participants
   and statistics. *)
let absorb_agrees (a, b) =
  (not (Event.mergeable a b))
  ||
  let into = Event.copy a and into_ref = Event.copy a in
  Event.absorb ~nranks:8 ~into (Event.copy b);
  Event_ref.absorb ~nranks:8 ~into:into_ref (Event.copy b);
  into.peer = into_ref.peer && into.ranks = into_ref.ranks
  && Util.Histogram.count into.dtime = Util.Histogram.count into_ref.dtime

let pair_props =
  List.map
    (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20261018 |]))
    [ QCheck.Test.make ~name:"event fast paths agree with the oracle" ~count:3000
        arb_pair agree;
      QCheck.Test.make ~name:"absorb agrees with the oracle" ~count:1000 arb_pair
        absorb_agrees ]

(* [projections] must be [project] for every rank: the same node shapes
   and the very same leaf nodes. *)
let rec same_node a b =
  match (a, b) with
  | Tnode.Leaf _, Tnode.Leaf _ -> a == b
  | Tnode.Loop la, Tnode.Loop lb ->
      la.count = lb.count && la.l_len = lb.l_len && la.l_hash = lb.l_hash
      && List.length la.body = List.length lb.body
      && List.for_all2 same_node la.body lb.body
  | _ -> false

let check_projections ~what trace =
  let all = Trace.projections trace in
  Alcotest.(check int) (what ^ ": one per rank") (Trace.nranks trace) (Array.length all);
  Array.iteri
    (fun rank got ->
      let want = Trace.project trace ~rank in
      Alcotest.(check bool)
        (Printf.sprintf "%s rank %d" what rank)
        true
        (List.length got = List.length want && List.for_all2 same_node got want))
    all

let leaf ranks = Tnode.Leaf (event ~site:(List.hd sites) ~kind:Event.E_barrier
    ~peer:Event.P_none ~bytes:0 ~tag:0 ~comm:0 ~vec:None ~parts:None ~ranks)

let projection_tests =
  [ t "projections equal project on nested loops" (fun () ->
        let r = Util.Rank_set.of_list in
        (* rank 3 occurs only in the inner loop, rank 2 only after it, and
           rank 9 lies outside the trace *)
        let nodes =
          [ leaf (r [ 0; 1 ]);
            Tnode.loop ~count:4
              [ leaf (r [ 0 ]);
                Tnode.loop ~count:2 [ leaf (r [ 1; 3 ]); leaf (r [ 0; 3; 9 ]) ];
                leaf (r [ 2 ]) ];
            Tnode.loop ~count:0 [ leaf (r [ 1 ]) ];
            leaf (Util.Rank_set.all 4) ]
        in
        check_projections ~what:"nested"
          (Trace.make ~nranks:4 ~comms:[ (0, Util.Rank_set.all 4) ] ~nodes));
    t "projections equal project on registry and random traces" (fun () ->
        List.iter
          (fun (app : Apps.Registry.app) ->
            let nranks = Apps.Registry.fit_nranks app ~wanted:16 in
            let trace, _ =
              Tracer.trace_run ~nranks (app.program ~cls:Apps.Params.S ())
            in
            check_projections ~what:app.name trace)
          Apps.Registry.all;
        for seed = 0 to 59 do
          let prog =
            Check.Gen.generate_with
              ~mode:(if seed mod 2 = 0 then `Mixed else `Neighbor)
              ~seed
          in
          let nranks = prog.Check.Gen.nranks in
          let trace, _ = Tracer.trace_run ~nranks (Check.Gen.to_app prog) in
          check_projections ~what:(Printf.sprintf "gen seed %d" seed) trace
        done) ]

let suite = pair_props @ projection_tests
