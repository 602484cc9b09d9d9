open Mpisim

let t name f = Alcotest.test_case name `Quick f

let fin ctx = Mpi.finalize ctx

(* two-rank helper: rank 0 runs [f0], rank 1 runs [f1] *)
let pairwise f0 f1 =
  Mpi.run ~nranks:2 (fun ctx ->
      (if ctx.rank = 0 then f0 ctx else f1 ctx);
      fin ctx)

let p2p_tests =
  [
    t "blocking send/recv delivers" (fun () ->
        let got = ref (-1) in
        let _ =
          pairwise
            (fun ctx -> Mpi.send ctx ~dst:1 ~bytes:100)
            (fun ctx ->
              let st = Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:100 in
              got := st.received_bytes)
        in
        Alcotest.(check int) "bytes" 100 !got);
    t "status reports source and tag" (fun () ->
        let src = ref (-1) and tag = ref (-1) in
        let _ =
          pairwise
            (fun ctx -> Mpi.send ~tag:42 ctx ~dst:1 ~bytes:8)
            (fun ctx ->
              let st = Mpi.recv ctx ~src:Call.Any_source ~bytes:8 in
              src := st.actual_source;
              tag := st.actual_tag)
        in
        Alcotest.(check int) "src" 0 !src;
        Alcotest.(check int) "tag" 42 !tag);
    t "tag matching filters" (fun () ->
        (* rank0 sends tag 1 then tag 2; rank1 receives tag 2 first *)
        let order = ref [] in
        let _ =
          pairwise
            (fun ctx ->
              Mpi.send ~tag:1 ctx ~dst:1 ~bytes:10;
              Mpi.send ~tag:2 ctx ~dst:1 ~bytes:20)
            (fun ctx ->
              let a = Mpi.recv ~tag:(Call.Tag 2) ctx ~src:(Call.Rank 0) ~bytes:20 in
              let b = Mpi.recv ~tag:(Call.Tag 1) ctx ~src:(Call.Rank 0) ~bytes:10 in
              order := [ a.actual_tag; b.actual_tag ])
        in
        Alcotest.(check (list int)) "order" [ 2; 1 ] !order);
    t "non-overtaking per pair same tag" (fun () ->
        let sizes = ref [] in
        let _ =
          pairwise
            (fun ctx ->
              Mpi.send ctx ~dst:1 ~bytes:1;
              Mpi.send ctx ~dst:1 ~bytes:2;
              Mpi.send ctx ~dst:1 ~bytes:3)
            (fun ctx ->
              for _ = 1 to 3 do
                let st = Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:3 in
                sizes := st.received_bytes :: !sizes
              done)
        in
        Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !sizes));
    t "isend/irecv with waitall" (fun () ->
        let o =
          pairwise
            (fun ctx ->
              let s = Mpi.isend ctx ~dst:1 ~bytes:64 in
              ignore (Mpi.waitall ctx [ s ]))
            (fun ctx ->
              let r = Mpi.irecv ctx ~src:(Call.Rank 0) ~bytes:64 in
              let st = Mpi.wait ctx r in
              assert (st.received_bytes = 64))
        in
        Alcotest.(check int) "messages" 1 o.messages);
    t "wildcard matches earliest arrival deterministically" (fun () ->
        let first = ref (-1) in
        let _ =
          Mpi.run ~nranks:3 (fun ctx ->
              (if ctx.rank = 0 then begin
                 let st = Mpi.recv ctx ~src:Call.Any_source ~bytes:8 in
                 first := st.actual_source;
                 ignore (Mpi.recv ctx ~src:Call.Any_source ~bytes:8)
               end
               else begin
                 (* rank 2 sends later than rank 1 *)
                 Mpi.compute ctx (float_of_int ctx.rank *. 1e-3);
                 Mpi.send ctx ~dst:0 ~bytes:8
               end);
              fin ctx)
        in
        Alcotest.(check int) "first is rank 1" 1 !first);
    t "sendrecv exchange" (fun () ->
        let o =
          Mpi.run ~nranks:4 (fun ctx ->
              let right = (ctx.rank + 1) mod 4 and left = (ctx.rank + 3) mod 4 in
              ignore
                (Mpi.sendrecv ctx ~dst:right ~send_bytes:32 ~src:(Call.Rank left)
                   ~recv_bytes:32);
              fin ctx)
        in
        Alcotest.(check int) "messages" 4 o.messages);
    t "rendezvous timing waits for receiver" (fun () ->
        (* 1 MiB message: sender must wait for the delayed receiver *)
        let big = 1 lsl 20 in
        let o =
          pairwise
            (fun ctx -> Mpi.send ctx ~dst:1 ~bytes:big)
            (fun ctx ->
              Mpi.compute ctx 0.05;
              ignore (Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:big))
        in
        Alcotest.(check bool) "elapsed >= receiver delay" true (o.elapsed >= 0.05));
    t "eager send completes before receiver posts" (fun () ->
        (* sender finishes its send long before the receiver wakes up *)
        let sender_done = ref infinity in
        let _ =
          pairwise
            (fun ctx ->
              Mpi.send ctx ~dst:1 ~bytes:512;
              sender_done := Mpi.wtime ctx)
            (fun ctx ->
              Mpi.compute ctx 0.1;
              ignore (Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:512))
        in
        Alcotest.(check bool) "sender early" true (!sender_done < 0.01));
    t "self-send rejected" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Mpi.run ~nranks:2 (fun ctx ->
                    if ctx.rank = 0 then Mpi.send ctx ~dst:0 ~bytes:1;
                    fin ctx));
             false
           with Engine.Mpi_error _ -> true));
  ]

let coll_tests =
  [
    t "barrier synchronizes clocks" (fun () ->
        let times = Array.make 4 0. in
        let _ =
          Mpi.run ~nranks:4 (fun ctx ->
              Mpi.compute ctx (float_of_int ctx.rank *. 0.01);
              Mpi.barrier ctx;
              times.(ctx.rank) <- Mpi.wtime ctx;
              fin ctx)
        in
        Array.iter
          (fun t' -> Alcotest.(check bool) "after slowest" true (t' >= 0.03))
          times);
    t "collective mismatch detected" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Mpi.run ~nranks:2 (fun ctx ->
                    if ctx.rank = 0 then Mpi.barrier ctx
                    else Mpi.allreduce ctx ~bytes:8;
                    fin ctx));
             false
           with Engine.Mpi_error _ -> true));
    t "missing finalize detected" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Mpi.run ~nranks:1 (fun _ -> ()));
             false
           with Engine.Mpi_error _ -> true));
    t "comm_split groups by color" (fun () ->
        let sizes = Array.make 6 0 in
        let _ =
          Mpi.run ~nranks:6 (fun ctx ->
              let c = Mpi.comm_split ctx ~color:(ctx.rank mod 2) ~key:ctx.rank in
              sizes.(ctx.rank) <- Mpi.comm_size c;
              fin ctx)
        in
        Array.iter (fun s -> Alcotest.(check int) "size 3" 3 s) sizes);
    t "comm_split key orders members" (fun () ->
        let local = Array.make 4 (-1) in
        let _ =
          Mpi.run ~nranks:4 (fun ctx ->
              (* reversed keys reverse the local numbering *)
              let c = Mpi.comm_split ctx ~color:0 ~key:(-ctx.rank) in
              local.(ctx.rank) <- Mpi.comm_rank c ctx;
              fin ctx)
        in
        Alcotest.(check (array int)) "reversed" [| 3; 2; 1; 0 |] local);
    t "comm_dup preserves membership" (fun () ->
        let ok = ref true in
        let _ =
          Mpi.run ~nranks:3 (fun ctx ->
              let c = Mpi.comm_dup ctx in
              if Mpi.comm_size c <> 3 || Mpi.comm_rank c ctx <> ctx.rank then
                ok := false;
              fin ctx)
        in
        Alcotest.(check bool) "dup" true !ok);
    t "p2p within subcommunicator uses local ranks" (fun () ->
        let got = ref (-1) in
        let _ =
          Mpi.run ~nranks:4 (fun ctx ->
              let c = Mpi.comm_split ctx ~color:(ctx.rank / 2) ~key:ctx.rank in
              (* world 2 is local 0 of the high group; world 3 local 1 *)
              if ctx.rank = 2 then Mpi.send ~comm:c ctx ~dst:1 ~bytes:8
              else if ctx.rank = 3 then begin
                let st = Mpi.recv ~comm:c ctx ~src:(Call.Rank 0) ~bytes:8 in
                got := st.actual_source
              end;
              fin ctx)
        in
        Alcotest.(check int) "local src" 0 !got);
    t "communicators isolate matching" (fun () ->
        (* same tag on two comms must not cross-match *)
        let ok = ref true in
        let _ =
          Mpi.run ~nranks:2 (fun ctx ->
              let c = Mpi.comm_dup ctx in
              if ctx.rank = 0 then begin
                Mpi.send ~comm:ctx.world ~tag:7 ctx ~dst:1 ~bytes:11;
                Mpi.send ~comm:c ~tag:7 ctx ~dst:1 ~bytes:22
              end
              else begin
                let a = Mpi.recv ~comm:c ~tag:(Call.Tag 7) ctx ~src:(Call.Rank 0) ~bytes:22 in
                let b =
                  Mpi.recv ~comm:ctx.world ~tag:(Call.Tag 7) ctx ~src:(Call.Rank 0) ~bytes:11
                in
                if a.received_bytes <> 22 || b.received_bytes <> 11 then ok := false
              end;
              fin ctx)
        in
        Alcotest.(check bool) "isolated" true !ok);
    t "allreduce cost grows with log p" (fun () ->
        let run p =
          (Mpi.run ~nranks:p (fun ctx ->
               Mpi.allreduce ctx ~bytes:8;
               fin ctx))
            .elapsed
        in
        Alcotest.(check bool) "monotone" true (run 16 > run 4));
    t "collectives ordered per communicator" (fun () ->
        (* two barriers in sequence complete without interference *)
        let o =
          Mpi.run ~nranks:3 (fun ctx ->
              Mpi.barrier ctx;
              Mpi.barrier ctx;
              Mpi.allreduce ctx ~bytes:4;
              fin ctx)
        in
        Alcotest.(check bool) "done" true (o.elapsed > 0.));
  ]

let engine_tests =
  [
    t "deadlock detection: mutual blocking recv" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (pairwise
                  (fun ctx -> ignore (Mpi.recv ctx ~src:(Call.Rank 1) ~bytes:8))
                  (fun ctx -> ignore (Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:8)));
             false
           with Engine.Deadlock _ -> true));
    t "determinism: identical runs identical clocks" (fun () ->
        let app (ctx : Mpi.ctx) =
          let n = ctx.nranks in
          for _ = 1 to 10 do
            let r = Mpi.irecv ctx ~src:(Call.Rank ((ctx.rank + n - 1) mod n)) ~bytes:2048 in
            let s = Mpi.isend ctx ~dst:((ctx.rank + 1) mod n) ~bytes:2048 in
            ignore (Mpi.waitall ctx [ r; s ]);
            Mpi.compute ctx 1e-5
          done;
          fin ctx
        in
        let a = Mpi.run ~nranks:8 app and b = Mpi.run ~nranks:8 app in
        Alcotest.(check (float 0.)) "elapsed" a.elapsed b.elapsed;
        Alcotest.(check int) "events" a.events b.events);
    t "compute advances virtual clock only" (fun () ->
        let o =
          Mpi.run ~nranks:1 (fun ctx ->
              Mpi.compute ctx 123.0;
              fin ctx)
        in
        Alcotest.(check bool) "elapsed" true (o.elapsed >= 123.0));
    t "compute rejects negative" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Mpi.run ~nranks:1 (fun ctx -> Mpi.compute ctx (-1.); fin ctx));
             false
           with Engine.Mpi_error _ -> true));
    t "outcome counts messages and bytes" (fun () ->
        let o =
          pairwise
            (fun ctx ->
              Mpi.send ctx ~dst:1 ~bytes:100;
              Mpi.send ctx ~dst:1 ~bytes:200)
            (fun ctx ->
              ignore (Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:100);
              ignore (Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:200))
        in
        Alcotest.(check int) "messages" 2 o.messages;
        Alcotest.(check int) "bytes" 300 o.p2p_bytes);
    t "unexpected messages counted" (fun () ->
        let o =
          pairwise
            (fun ctx -> Mpi.send ctx ~dst:1 ~bytes:10)
            (fun ctx ->
              Mpi.compute ctx 0.01;
              ignore (Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:10))
        in
        Alcotest.(check int) "unexpected" 1 o.unexpected);
    t "flow control stalls and recovers" (fun () ->
        (* flood a sleeping receiver past its unexpected buffer *)
        let net =
          { Netmodel.bluegene_l with unexpected_buffer_bytes = 4096; resume_latency = 1e-4 }
        in
        let o =
          Mpi.run ~net ~nranks:2 (fun ctx ->
              (if ctx.rank = 0 then
                 for _ = 1 to 20 do
                   Mpi.send ctx ~dst:1 ~bytes:1024
                 done
               else begin
                 Mpi.compute ctx 0.01;
                 for _ = 1 to 20 do
                   ignore (Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:1024)
                 done
               end);
              fin ctx)
        in
        Alcotest.(check bool) "stalled" true (o.flow_stalls > 0));
    t "oversize eager message still delivered (liveness)" (fun () ->
        let net = { Netmodel.bluegene_l with unexpected_buffer_bytes = 100 } in
        let o =
          Mpi.run ~net ~nranks:2 (fun ctx ->
              (if ctx.rank = 0 then Mpi.send ctx ~dst:1 ~bytes:1024
               else ignore (Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:1024));
              fin ctx)
        in
        Alcotest.(check int) "delivered" 1 o.messages);
    t "wtime monotone" (fun () ->
        let ok = ref true in
        let _ =
          Mpi.run ~nranks:1 (fun ctx ->
              let t1 = Mpi.wtime ctx in
              Mpi.compute ctx 1.0;
              let t2 = Mpi.wtime ctx in
              if t2 < t1 +. 1.0 then ok := false;
              fin ctx)
        in
        Alcotest.(check bool) "monotone" true !ok);
    t "perform outside run rejected" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Engine.perform
                  { op = Call.Barrier; comm = Comm.world 2; site = Util.Callsite.unknown });
             false
           with Engine.Mpi_error _ -> true));
    t "nranks must be positive" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Mpi.run ~nranks:0 fin);
             false
           with Engine.Mpi_error _ -> true));
    t "many ranks ring completes" (fun () ->
        let o =
          Mpi.run ~nranks:128 (fun ctx ->
              let n = ctx.nranks in
              let r = Mpi.irecv ctx ~src:(Call.Rank ((ctx.rank + n - 1) mod n)) ~bytes:8 in
              let s = Mpi.isend ctx ~dst:((ctx.rank + 1) mod n) ~bytes:8 in
              ignore (Mpi.waitall ctx [ r; s ]);
              fin ctx)
        in
        Alcotest.(check int) "messages" 128 o.messages);
  ]

let comm_unit_tests =
  [
    t "world mapping" (fun () ->
        let c = Comm.world 4 in
        Alcotest.(check int) "size" 4 (Comm.size c);
        Alcotest.(check int) "w2l" 2 (Comm.world_of_local c 2);
        Alcotest.(check (option int)) "l2w" (Some 3) (Comm.local_of_world c 3));
    t "make rejects duplicates" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Comm.make ~id:1 ~members:[| 0; 1; 0 |]);
             false
           with Invalid_argument _ -> true));
    t "subcomm translation" (fun () ->
        let c = Comm.make ~id:5 ~members:[| 7; 3; 9 |] in
        Alcotest.(check int) "local 1 -> world 3" 3 (Comm.world_of_local c 1);
        Alcotest.(check (option int)) "world 9 -> local 2" (Some 2) (Comm.local_of_world c 9);
        Alcotest.(check (option int)) "non-member" None (Comm.local_of_world c 0);
        Alcotest.(check bool) "member" true (Comm.is_member c ~world:7));
    t "out of range local rank" (fun () ->
        let c = Comm.world 2 in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Comm.world_of_local c 5);
             false
           with Invalid_argument _ -> true));
  ]

(* ------------------------------------------------------------------ *)
(* Pinned outcomes.  Each configuration's full outcome (per-rank finish
   times are bit-exact functions of the match decisions), or its
   deadlock/stall diagnostic, is compared against a digest recorded when
   the engine still had two matchers, a hash index and the original list
   scan, which agreed on all 22 configurations.  The test names date from
   then; any divergence in matching order changes a digest. *)

let outcome_text = function
  | Ok (o : Engine.outcome) ->
      Printf.sprintf
        "elapsed=%h finish=%s events=%d messages=%d p2p_bytes=%d \
         unexpected=%d flow_stalls=%d"
        o.elapsed
        (String.concat ","
           (Array.to_list (Array.map (Printf.sprintf "%h") o.finish_times)))
        o.events o.messages o.p2p_bytes o.unexpected o.flow_stalls
  | Error diagnostic -> diagnostic

let pinned_outcomes =
  [
    ("bt", "9c9b4780e9b6c52a164a75aa7cd7399e");
    ("cg", "7c75a4092d1b1b1c800cdefd9a6e1325");
    ("ep", "d14dab5ee34b900d5b231368f2570cf9");
    ("ft", "116492b0815a85f52da6433aeaa4ed93");
    ("is", "beb8cba50ae3a575eb6c6a2ec6380f25");
    ("lu", "515b4d122a20730027b759e6209540d1");
    ("mg", "5ad2f88b698114e28cbbfc4b1430d7d9");
    ("sp", "be8bc46b8db8292ce99228127bf12e2b");
    ("sweep3d", "8dd38ad301558fcba7caa68d52b13b77");
    ("ring", "cd1188fe357f31d0daa54f949a416785");
    ("stencil2d", "7adecbb0af128bd66dfcc7ba8786a939");
    ("butterfly", "a8a2256e6c445ed402f57603d6890270");
    ("hirsd", "5895f0446b8f3b1935979183a1ed92c9");
    ("amg", "f4673f6d3f8cf45a9abda3c83d27df41");
    ("kripke", "5572964f975c092d62deffbb3b25a3d5");
    ("laghos", "2960c2b10a246b8956eb0485e135f21b");
    ("ring ethernet", "88f408c9d217ab84f4101044c54452fb");
    ("stencil2d ethernet", "76e3fe0265d75a71a8116afd844fe289");
    ("sweep3d ethernet", "af3be5e3e385e2d436884b3ab7eee3c0");
    ("wildcard 4", "647dd2b7ff7bb9fe1862c0dc9f85522b");
    ("wildcard 16", "81f4870b99744d174ae607f04f29c613");
    ("wildcard 32", "534c4ffecfa6546042527673a2822e10");
    (* recorded before collective arrivals became O(1) and requests were
       freed at their wait *)
    ("unwaited isend", "6226cad92aee5564f0988c17838b4922");
    ("ep 1024 C", "d8829c63e9aa8acb8e2c6e7cfeeb4f45");
    ("ft 1024 C", "8a32348039c3a37914c9d726007b34a2");
    ("is 1024 C", "f24ed6338cad9c79ee1841fa10f04565");
    ("laghos 1024 S", "15136ef126992bc8dadb637a0ebf8337");
  ]

(* Some app/network combinations legitimately deadlock (the paper's
   Figure 5 scenario); the diagnostic is then pinned instead — its queue
   depths and times are functions of the match decisions too. *)
let check_pinned name ?net ~nranks program =
  let fate =
    match Mpi.run ?net ~nranks program with
    | o -> Ok o
    | exception Engine.Deadlock m -> Error ("deadlock: " ^ m)
    | exception Engine.Stalled m -> Error ("stalled: " ^ m)
  in
  Alcotest.(check string)
    (name ^ ": outcome digest")
    (List.assoc name pinned_outcomes)
    (Digest.to_hex (Digest.string (outcome_text fate)))

(* Wildcard receives racing concrete ones, several tags per peer, and an
   unexpected-queue drain out of arrival order — the cases where a
   matcher could plausibly break FIFO order. *)
let wildcard_stress (ctx : Mpi.ctx) =
  let n = ctx.nranks in
  if ctx.rank = 0 then begin
    for _ = 1 to (n - 1) * 2 do
      ignore (Mpi.recv ctx ~src:Call.Any_source ~tag:Call.Any_tag ~bytes:64)
    done;
    for r = n - 1 downto 1 do
      ignore (Mpi.recv ctx ~src:(Call.Rank r) ~tag:(Call.Tag 7) ~bytes:64)
    done;
    Mpi.finalize ctx
  end
  else begin
    Mpi.send ctx ~dst:0 ~tag:ctx.rank ~bytes:64;
    Mpi.send ctx ~dst:0 ~tag:(100 + ctx.rank) ~bytes:64;
    Mpi.compute ctx (0.001 *. float_of_int ctx.rank);
    Mpi.send ctx ~dst:0 ~tag:7 ~bytes:64;
    Mpi.finalize ctx
  end

let differential_tests =
  [
    t "indexed matcher = reference across the app registry" (fun () ->
        List.iter
          (fun (app : Apps.Registry.app) ->
            let nranks = Apps.Registry.fit_nranks app ~wanted:8 in
            check_pinned app.name ~nranks (app.program ()))
          Apps.Registry.all);
    t "indexed matcher = reference under flow control (small buffers)" (fun () ->
        let net = Netmodel.ethernet_cluster in
        List.iter
          (fun name ->
            let app = Option.get (Apps.Registry.find name) in
            let nranks = Apps.Registry.fit_nranks app ~wanted:8 in
            check_pinned (name ^ " ethernet") ~net ~nranks (app.program ()))
          [ "ring"; "stencil2d"; "sweep3d" ]);
    t "indexed matcher = reference on wildcard stress" (fun () ->
        List.iter
          (fun nranks ->
            check_pinned (Printf.sprintf "wildcard %d" nranks) ~nranks
              wildcard_stress)
          [ 4; 16; 32 ]);
  ]

(* ------------------------------------------------------------------ *)
(* Queue oracle: {!Matchq}'s deques against the original list scans
   ({!Matchq_ref}) on random add/take/mem sequences.  Sources, tags and
   communicators come from small domains so patterns collide often, and
   receive patterns draw any-source and any-tag wildcards.  Every take
   must return the same element (identified by its request id) and both
   queues' lengths must agree after every step. *)

type queue_op =
  | Arrive of int * int * int  (* src, tag, comm *)
  | Receive of int option * int option * int  (* take an unexpected message *)
  | Post of int option * int option * int
  | Match of int * int * int  (* take a posted receive *)
  | Probe of int * int * int  (* Posted.mem *)

let gen_queue_ops =
  let open QCheck.Gen in
  let coord = int_bound 3 and comm = int_bound 1 in
  let pattern = frequency [ (1, return None); (3, map Option.some coord) ] in
  list_size (int_range 200 400)
    (frequency
       [
         (3, map3 (fun s t c -> Arrive (s, t, c)) coord coord comm);
         (2, map3 (fun s t c -> Receive (s, t, c)) pattern pattern comm);
         (3, map3 (fun s t c -> Post (s, t, c)) pattern pattern comm);
         (2, map3 (fun s t c -> Match (s, t, c)) coord coord comm);
         (1, map3 (fun s t c -> Probe (s, t, c)) coord coord comm);
       ])

let show_queue_op =
  let o = function None -> "*" | Some x -> string_of_int x in
  function
  | Arrive (s, t, c) -> Printf.sprintf "arrive(%d,%d,%d)" s t c
  | Receive (s, t, c) -> Printf.sprintf "receive(%s,%s,%d)" (o s) (o t) c
  | Post (s, t, c) -> Printf.sprintf "post(%s,%s,%d)" (o s) (o t) c
  | Match (s, t, c) -> Printf.sprintf "match(%d,%d,%d)" s t c
  | Probe (s, t, c) -> Printf.sprintf "probe(%d,%d,%d)" s t c

let queues_agree ops =
  let module Q = Matchq in
  let module R = Matchq_ref in
  let uq = Q.Unexpected.create () and ur = R.Unexpected.create () in
  let pq = Q.Posted.create () and pr = R.Posted.create () in
  let msg_id = Option.map (fun (m : Q.msg) -> m.m_send_req) in
  let post_id = Option.map (fun (p : Q.posted) -> p.p_req) in
  let posted id p_src p_tag p_comm =
    { Q.p_req = id; p_src; p_tag; p_comm; p_time = 0. }
  in
  List.for_all
    (fun (id, op) ->
      let same =
        match op with
        | Arrive (src, tag, comm) ->
            let m =
              {
                Q.m_src = src; m_dst = 0; m_tag = tag; m_bytes = 8;
                m_comm = comm; m_protocol = Q.Eager;
                m_send_req = id; m_reserved = false;
              }
            in
            Q.Unexpected.add uq m;
            R.Unexpected.add ur m;
            true
        | Receive (src, tag, comm) ->
            let p = posted id src tag comm in
            msg_id (Q.Unexpected.take uq p) = msg_id (R.Unexpected.take ur p)
        | Post (src, tag, comm) ->
            let p = posted id src tag comm in
            Q.Posted.add pq p;
            R.Posted.add pr p;
            true
        | Match (src, tag, comm) ->
            post_id (Q.Posted.take pq ~src ~tag ~comm)
            = post_id (R.Posted.take pr ~src ~tag ~comm)
        | Probe (src, tag, comm) ->
            Q.Posted.mem pq ~src ~tag ~comm = R.Posted.mem pr ~src ~tag ~comm
      in
      same
      && Q.Unexpected.length uq = R.Unexpected.length ur
      && Q.Posted.length pq = R.Posted.length pr)
    (List.mapi (fun i op -> (i, op)) ops)

let queue_oracle_tests =
  List.map
    (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20261017 |]))
    [
      QCheck.Test.make ~name:"matching queues agree with the list-scan oracle"
        ~count:300
        (QCheck.make
           ~print:(fun ops -> String.concat " " (List.map show_queue_op ops))
           gen_queue_ops)
        queues_agree;
    ]

(* ------------------------------------------------------------------ *)
(* Request lifetime: a request is freed when its wait completes, so
   waiting on it again is an error instead of a silent success. *)

let names_freed_request run =
  match run () with
  | _ -> Alcotest.fail "expected Mpi_error"
  | exception Engine.Mpi_error m ->
      let sub = "unknown or freed request" in
      let n = String.length sub in
      let rec from i =
        i + n <= String.length m && (String.sub m i n = sub || from (i + 1))
      in
      Alcotest.(check bool) m true (from 0)

let request_lifetime_tests =
  [
    t "second wait on an isend request is an Mpi_error" (fun () ->
        names_freed_request (fun () ->
            pairwise
              (fun ctx ->
                let s = Mpi.isend ctx ~dst:1 ~bytes:64 in
                ignore (Mpi.wait ctx s);
                ignore (Mpi.wait ctx s))
              (fun ctx -> ignore (Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:64))));
    t "second wait on an irecv request is an Mpi_error" (fun () ->
        names_freed_request (fun () ->
            pairwise
              (fun ctx -> Mpi.send ctx ~dst:1 ~bytes:64)
              (fun ctx ->
                let r = Mpi.irecv ctx ~src:(Call.Rank 0) ~bytes:64 in
                ignore (Mpi.wait ctx r);
                ignore (Mpi.wait ctx r))));
    t "waitall over an already-waited request is an Mpi_error" (fun () ->
        names_freed_request (fun () ->
            pairwise
              (fun ctx ->
                let a = Mpi.isend ctx ~dst:1 ~bytes:64 in
                let b = Mpi.isend ctx ~dst:1 ~bytes:64 in
                ignore (Mpi.wait ctx a);
                ignore (Mpi.waitall ctx [ a; b ]))
              (fun ctx ->
                ignore (Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:64);
                ignore (Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:64))));
    (* an eager and a rendezvous isend, neither ever waited *)
    t "an isend never waited still finalizes" (fun () ->
        check_pinned "unwaited isend" ~nranks:2 (fun ctx ->
            (if ctx.rank = 0 then begin
               ignore (Mpi.isend ctx ~dst:1 ~bytes:64);
               ignore (Mpi.isend ctx ~dst:1 ~bytes:(1 lsl 20))
             end
             else begin
               ignore (Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:64);
               ignore (Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:(1 lsl 20))
             end);
            fin ctx));
  ]

(* The pinned outcomes at the rank count the benchmark runs, where a
   collective arrival that is O(p) costs something: ep, ft and is at 1024
   ranks class C, and laghos at 1024 ranks class S, whose neighborhood
   collectives run on partial participant sets. *)
let scale_tests =
  [
    t "pinned outcomes hold at 1024 ranks" (fun () ->
        List.iter
          (fun (name, cls, cls_name) ->
            let app = Option.get (Apps.Registry.find name) in
            check_pinned
              (Printf.sprintf "%s 1024 %s" name cls_name)
              ~nranks:1024 (app.program ~cls ()))
          [
            ("ep", Apps.Params.C, "C");
            ("ft", Apps.Params.C, "C");
            ("is", Apps.Params.C, "C");
            ("laghos", Apps.Params.S, "S");
          ]);
  ]

(* Collectives over declared participant sets: each distinct set on a
   communicator forms its own instance. *)
let participant_set_tests =
  [
    t "disjoint participant sets on one communicator complete independently"
      (fun () ->
        (* The evens and the odds each run two neighbor allgathers over
           their own declared set.  In the first round rank 0 opens the
           evens' instance at t=0 but the other evens arrive at 1 ms, after
           the odds' instance (opened at 0.1 ms) has completed; in the
           second round the roles swap.  Each set's instance completes on
           its own members' arrivals. *)
        let nranks = 8 and late = 1e-3 and early = 1e-4 in
        let evens = [| 0; 2; 4; 6 |] and odds = [| 1; 3; 5; 7 |] in
        let first_done = Array.make nranks 0. and second_done = Array.make nranks 0. in
        let completions = ref [] in
        let hook =
          {
            Hooks.nil with
            on_collective_complete =
              (fun ~time:_ ~comm:_ ~name ~participants ->
                if name = "MPI_Neighbor_allgather" then
                  completions := Array.to_list participants :: !completions);
          }
        in
        let o =
          Mpi.run ~hooks:[ hook ] ~nranks (fun ctx ->
              let even = ctx.rank mod 2 = 0 in
              let parts = if even then evens else odds in
              let me = ctx.rank / 2 in
              let round ~opener ~delay_self ~delay_other done_at =
                (* the opener enters at once; its set's other members at
                   [delay_self]; the other set at [delay_other] *)
                let mine = parts.(0) = opener in
                Mpi.compute ctx
                  (if ctx.rank = opener then 0.
                   else if mine then delay_self
                   else delay_other);
                Mpi.neighbor_allgather ~parts ctx
                  ~neighbors:[| parts.((me + 1) mod 4) |] ~bytes:64;
                done_at.(ctx.rank) <- Mpi.wtime ctx
              in
              round ~opener:0 ~delay_self:late ~delay_other:early first_done;
              let t1 = Mpi.wtime ctx in
              (* second round: the odds' set opens first and completes last *)
              Mpi.compute ctx (2. *. late -. t1);
              round ~opener:1 ~delay_self:late ~delay_other:early second_done;
              fin ctx)
        in
        Array.iteri
          (fun r t ->
            if r mod 2 = 1 then
              Alcotest.(check bool)
                (Printf.sprintf "odd rank %d done before the late evens" r)
                true (t < late)
            else
              Alcotest.(check bool)
                (Printf.sprintf "even rank %d waited for its set" r)
                true (t >= late))
          first_done;
        Array.iteri
          (fun r t ->
            if r mod 2 = 0 then
              Alcotest.(check bool)
                (Printf.sprintf "even rank %d done before the late odds" r)
                true (t < 3. *. late)
            else
              Alcotest.(check bool)
                (Printf.sprintf "odd rank %d waited for its set" r)
                true (t >= 3. *. late))
          second_done;
        Alcotest.(check int) "four instances" 4 (List.length !completions);
        List.iter
          (fun ps ->
            let ps = List.sort compare ps in
            Alcotest.(check bool) "one set per instance" true
              (ps = Array.to_list evens || ps = Array.to_list odds))
          !completions;
        Alcotest.(check bool) "finished" true (o.elapsed >= 3. *. late));
    t "equal but distinct participant arrays meet in one instance" (fun () ->
        (* every rank passes its own copy of the same declared set *)
        let nranks = 6 and set = [| 1; 2; 4 |] in
        let completions = ref [] in
        let hook =
          {
            Hooks.nil with
            on_collective_complete =
              (fun ~time:_ ~comm:_ ~name ~participants ->
                if name = "MPI_Neighbor_alltoall" then
                  completions := Array.length participants :: !completions);
          }
        in
        ignore
          (Mpi.run ~hooks:[ hook ] ~nranks (fun ctx ->
               (match Array.find_index (fun r -> r = ctx.rank) set with
               | Some me ->
                   for _ = 1 to 2 do
                     Mpi.neighbor_alltoall ~parts:(Array.copy set) ctx
                       ~neighbors:[| set.((me + 1) mod 3) |]
                       ~bytes_per_neighbor:32
                   done
               | None -> ());
               fin ctx));
        Alcotest.(check (list int)) "two instances of three ranks" [ 3; 3 ]
          !completions);
  ]

let suite =
  p2p_tests @ coll_tests @ engine_tests @ comm_unit_tests @ differential_tests
  @ queue_oracle_tests @ request_lifetime_tests @ scale_tests
  @ participant_set_tests
