(* The wildcard certificate: [`Auto] skips the validation replay only when
   the traversal's own channel ledgers vouch for its assignment.  The
   differential half checks that every certified assignment does replay,
   over LU and the generator's wildcard-bearing programs. *)

open Mpisim
open Scalatrace
module W = Benchgen.Wildcard

let t name f = Alcotest.test_case name `Quick f
let s1 = Mpi.site __POS__
let s2 = Mpi.site __POS__
let s3 = Mpi.site __POS__
let s4 = Mpi.site __POS__

(* What [Pipeline.run] hands to wildcard resolution. *)
let pipeline_input trace =
  if Trace.has_unaligned_collectives trace then Benchgen.Align.run trace else trace

(* On a traversal that completes: a certified assignment replays, and
   [`Auto] prints exactly what [`Traversal] prints.  Returns whether the
   certificate held, or [None] when the traversal wedged (those traces
   take the [`Timed] fallback, outside the certificate). *)
let check_certificate ~what trace =
  match W.certify trace with
  | exception W.Potential_deadlock _ -> None
  | resolved, verdict ->
      let certified = verdict = W.Certified in
      if certified then begin
        match Replay.run resolved with
        | _ -> ()
        | exception Engine.Deadlock msg ->
            Alcotest.failf "%s: certified assignment hangs on replay: %s" what msg
      end;
      Alcotest.(check string)
        (what ^ ": auto prints as traversal")
        (Trace.to_text (W.run ~strategy:`Traversal trace))
        (Trace.to_text (W.run trace));
      Some certified

let lu_differential () =
  let lu = Option.get (Apps.Registry.find "lu") in
  List.iter
    (fun (cls, cls_name) ->
      List.iter
        (fun nranks ->
          let trace, _ = Tracer.trace_run ~nranks (lu.program ~cls ()) in
          let what = Printf.sprintf "lu %s %d" cls_name nranks in
          match check_certificate ~what (pipeline_input trace) with
          | Some certified -> Alcotest.(check bool) (what ^ " certified") true certified
          | None -> Alcotest.failf "%s: traversal wedged" what)
        [ 2; 4; 8; 16; 32; 64 ])
    [ (Apps.Params.S, "S"); (Apps.Params.W, "W") ]

let has_fan_in (p : Check.Gen.prog) =
  List.exists (function Check.Gen.P_fan_in _ -> true | _ -> false) p.phases

let gen_differential () =
  let certified = ref 0 in
  List.iter
    (fun mode ->
      for seed = 1 to 1000 do
        let p = Check.Gen.generate_with ~mode ~seed in
        if has_fan_in p then begin
          let trace, _ = Tracer.trace_run ~nranks:p.nranks (Check.Gen.to_app p) in
          let what = Printf.sprintf "seed %d" seed in
          if check_certificate ~what (pipeline_input trace) = Some true then
            incr certified
        end
      done)
    [ `Mixed; `Neighbor ];
  (* the certificate must carry most of the load, or nothing was saved *)
  Alcotest.(check bool)
    (Printf.sprintf "%d certified programs" !certified)
    true (!certified > 500)

(* Rank 0 drains a fan-in with ANY_SOURCE and MPI_ANY_TAG: the receive is
   bound to no single channel, so the certificate refuses and [`Auto]
   validates by replay, which passes. *)
let any_tag_fan_in () =
  let prog (ctx : Mpi.ctx) =
    (if ctx.rank = 0 then
       for _ = 1 to ctx.nranks - 1 do
         ignore
           (Mpi.recv ~site:s1 ~tag:Call.Any_tag ctx ~src:Call.Any_source ~bytes:16)
       done
     else begin
       Mpi.compute ctx (float_of_int ctx.rank *. 1e-4);
       Mpi.send ~site:s2 ~tag:ctx.rank ctx ~dst:0 ~bytes:16
     end);
    Mpi.finalize ~site:s3 ctx
  in
  let trace, _ = Tracer.trace_run ~nranks:4 prog in
  (match W.certify trace with
  | _, W.Refused reason ->
      Alcotest.(check bool) ("refusal names the tag: " ^ reason) true
        (Test_fault.contains ~sub:"MPI_ANY_TAG" reason)
  | _, W.Certified -> Alcotest.fail "any-tag receive certified");
  let fallbacks = ref 0 in
  let auto = W.run ~on_fallback:(fun _ -> incr fallbacks) trace in
  Alcotest.(check int) "replay validated it" 0 !fallbacks;
  Alcotest.(check bool) "resolved" false (Trace.has_wildcards auto);
  Alcotest.(check string) "auto prints as traversal"
    (Trace.to_text (W.run ~strategy:`Traversal trace))
    (Trace.to_text auto)

(* The case the channel ledger guards: rank 1's two sends are both pending
   when rank 0's wildcards arrive, so the traversal must give the first
   wildcard the first send.  It does, and the certificate holds; a
   traversal that took the later send first would be refused as out of
   program order. *)
let same_sender_backlog () =
  let tag = Call.Tag 0 in
  let prog (ctx : Mpi.ctx) =
    (match ctx.rank with
    | 0 ->
        (* exchanges with rank 2 hold rank 0 back in the traversal *)
        for _ = 1 to 3 do
          Mpi.send ~site:s1 ctx ~dst:2 ~bytes:8;
          ignore (Mpi.recv ~site:s2 ~tag ctx ~src:(Call.Rank 2) ~bytes:8)
        done;
        for _ = 1 to 2 do
          ignore (Mpi.recv ~site:s3 ~tag ctx ~src:Call.Any_source ~bytes:8)
        done
    | 1 ->
        let a = Mpi.isend ~site:s1 ctx ~dst:0 ~bytes:8 in
        let b = Mpi.isend ~site:s2 ctx ~dst:0 ~bytes:8 in
        ignore (Mpi.waitall ~site:s3 ctx [ a; b ])
    | _ ->
        for _ = 1 to 3 do
          ignore (Mpi.recv ~site:s2 ~tag ctx ~src:(Call.Rank 0) ~bytes:8);
          Mpi.send ~site:s1 ctx ~dst:0 ~bytes:8
        done);
    Mpi.finalize ~site:s4 ctx
  in
  let trace, _ = Tracer.trace_run ~nranks:3 prog in
  Alcotest.(check (option bool)) "certified" (Some true)
    (check_certificate ~what:"backlog" trace)

(* Paper Figure 5: rank 1's wildcard may take rank 0's message, starving
   its second receive.  The traversal reports it; [`Auto] passes the
   report to [on_fallback], and its timed replay, where the merged send
   RSD gives ranks 0 and 2 the same compute gap, hangs and re-raises. *)
let figure5 () =
  let prog (ctx : Mpi.ctx) =
    if ctx.rank = 0 then Mpi.compute ctx 1e-3;
    (if ctx.rank = 1 then begin
       ignore (Mpi.recv ~site:s1 ctx ~src:Call.Any_source ~bytes:8);
       ignore (Mpi.recv ~site:s2 ctx ~src:(Call.Rank 0) ~bytes:8)
     end
     else Mpi.send ~site:s3 ctx ~dst:1 ~bytes:8);
    Mpi.finalize ~site:s4 ctx
  in
  let trace, _ = Tracer.trace_run ~nranks:3 prog in
  Alcotest.(check bool) "traversal raises" true
    (match W.run ~strategy:`Traversal trace with
    | _ -> false
    | exception W.Potential_deadlock _ -> true);
  let reports = ref [] in
  Alcotest.(check bool) "auto raises" true
    (match W.run ~on_fallback:(fun m -> reports := m :: !reports) trace with
    | _ -> false
    | exception W.Potential_deadlock _ -> true);
  Alcotest.(check bool) "auto reports the traversal's finding" true
    (List.exists (fun m -> Test_fault.contains ~sub:"potential deadlock" m) !reports)

let leaf_index () =
  let prog (ctx : Mpi.ctx) =
    for _ = 1 to 3 do
      Mpi.barrier ~site:s1 ctx;
      Mpi.allreduce ~site:s2 ctx ~bytes:8
    done;
    Mpi.finalize ~site:s3 ctx
  in
  let trace, _ = Tracer.trace_run ~nranks:2 prog in
  let index = Trace.leaf_index trace in
  let n = ref 0 in
  Tnode.iter_leaves
    (fun e ->
      Alcotest.(check (option int)) "iter_leaves order" (Some !n) (index e);
      Alcotest.(check (option int)) "structural copy is not a leaf" None
        (index (Event.copy e));
      incr n)
    (Trace.nodes trace);
  Alcotest.(check bool) "has leaves" true (!n > 0)

let suite =
  [
    t "leaf index numbers leaves by physical identity" leaf_index;
    t "certified LU assignments replay (S/W, 2-64 ranks)" lu_differential;
    t "certified generated assignments replay (1000 seeds x 2 modes)"
      gen_differential;
    t "any-tag fan-in is refused and validated by replay" any_tag_fan_in;
    t "same-sender backlog matches in program order" same_sender_backlog;
    t "Figure 5 deadlock is still reported" figure5;
  ]
