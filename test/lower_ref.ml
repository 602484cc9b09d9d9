(* The statement-walking interpreter that [Conceptual.Lower] replaced,
   kept verbatim as the differential oracle for the per-rank compiler:
   every rank visits every statement, evaluates every task predicate and
   rebuilds every collective's member list on each visit.  Same result
   type; an evaluation error escapes as [Ast.Eval_error] where [Lower]
   reports it as [Lower_error] prefixed with the statement's site. *)

open Conceptual.Ast

type result = {
  outcome : Mpisim.Engine.outcome;
  logs : (string * (int * float) list) list;
}

exception Lower_error of string

(* ------------------------------------------------------------------ *)
(* Static analysis: the task groups each collective statement uses.     *)

(* Group membership in collectives is evaluated in the empty environment;
   a loop-variable-dependent group would make the communicator set
   unbounded. *)
let static_members ~nranks tasks =
  try members tasks [] ~nranks
  with Eval_error msg ->
    raise
      (Lower_error
         ("collective task group must not depend on loop variables: " ^ msg))

(* All member lists needed as communicators, in deterministic order of
   first appearance. *)
let collect_groups ~nranks (p : program) =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let whole_world = List.init nranks Fun.id in
  let note ms =
    if ms = [] then raise (Lower_error "collective over an empty task group");
    if List.length ms > 1 && ms <> whole_world && not (Hashtbl.mem seen ms)
    then begin
      Hashtbl.add seen ms ();
      out := ms :: !out
    end
  in
  let reduce_groups src dst =
    let s = static_members ~nranks src and d = static_members ~nranks dst in
    if s = [] || d = [] then raise (Lower_error "collective over an empty task group");
    if s = d then note s
    else begin
      match d with
      | [ root ] -> note (List.sort_uniq compare (root :: s))
      | d0 :: _ ->
          note (List.sort_uniq compare (d0 :: s));
          note d
      | [] -> assert false
    end
  in
  let visit () s =
    match s with
    | Sync t | Alltoall { tasks = t; _ } | Neighbor { tasks = t; _ } ->
        note (static_members ~nranks t)
    | Multicast { src; dst; _ } -> (
        match static_members ~nranks src with
        | [ root ] ->
            note (List.sort_uniq compare (root :: static_members ~nranks dst))
        | _ -> raise (Lower_error "MULTICAST source must select exactly one task"))
    | Reduce { src; dst; _ } -> reduce_groups src dst
    | Send _ | Receive _ | Await _ | Compute _ | Log _ | Reset _ | For _
    | For_each _ | If _ ->
        ()
  in
  fold_stmts visit () p;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Call sites: one synthetic site per static statement position, so a
   re-trace of the generated benchmark compresses as well as the
   original. *)

let site_table = Hashtbl.create 64

let site_of path =
  match Hashtbl.find_opt site_table path with
  | Some s -> s
  | None ->
      let s = Util.Callsite.synthetic ("ncptl:" ^ path) in
      Hashtbl.replace site_table path s;
      s

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

type rank_exec = {
  ctx : Mpisim.Mpi.ctx;
  nranks : int;
  comm_of_group : (int list, Mpisim.Comm.t) Hashtbl.t;
  mutable outstanding : Mpisim.Call.request list; (* reverse post order *)
  mutable reset_time : float;
  logs : ((string * agg option) * int * float) list ref; (* shared across ranks *)
}

let comm_for x ms =
  match ms with
  | [] -> raise (Lower_error "empty task group")
  | _ when List.length ms = x.nranks -> x.ctx.world
  | _ -> (
      match Hashtbl.find_opt x.comm_of_group ms with
      | Some c -> c
      | None -> raise (Lower_error "internal: communicator for group not created"))

let local_rank comm world =
  match Mpisim.Comm.local_of_world comm world with
  | Some l -> l
  | None -> raise (Lower_error "internal: rank not in group communicator")

let bytes_of env e =
  let b = eval_int env e in
  if b < 0 then raise (Lower_error "negative message size") else b

let rec exec_stmt x env path s =
  let r = x.ctx.rank in
  let nranks = x.nranks in
  let site = site_of path in
  let bind tasks = match binder tasks with Some v -> fun rk -> (v, rk) :: env | None -> fun _ -> env in
  match s with
  | Send { src; async; bytes; dst; tag; implicit_recv } ->
      let benv = bind src in
      let send_tag = max 0 tag in
      let recv_tag = if tag < 0 then Mpisim.Call.Any_tag else Mpisim.Call.Tag tag in
      (* Implicit receives are posted asynchronously before the send (the
         coNCePTuaL runtime's behaviour); for a synchronous SEND they are
         awaited once this task's own send has been issued, keeping ring
         exchanges deadlock-free. *)
      let implicit_reqs =
        if not implicit_recv then []
        else
          List.filter_map
            (fun t ->
              if eval_int (benv t) dst = r then
                Some
                  (Mpisim.Mpi.irecv ~site ~tag:recv_tag x.ctx
                     ~src:(Mpisim.Call.Rank t)
                     ~bytes:(bytes_of (benv t) bytes))
              else None)
            (members src env ~nranks)
      in
      if mem src env ~rank:r ~nranks then begin
        let env' = benv r in
        let d = eval_int env' dst in
        if d < 0 || d >= nranks then
          raise (Lower_error (Printf.sprintf "send to task %d outside 0..%d" d (nranks - 1)));
        let b = bytes_of env' bytes in
        if async then
          x.outstanding <-
            Mpisim.Mpi.isend ~site ~tag:send_tag x.ctx ~dst:d ~bytes:b :: x.outstanding
        else Mpisim.Mpi.send ~site ~tag:send_tag x.ctx ~dst:d ~bytes:b
      end;
      if async then
        x.outstanding <- List.rev_append implicit_reqs x.outstanding
      else if implicit_reqs <> [] then
        ignore (Mpisim.Mpi.waitall ~site x.ctx implicit_reqs)
  | Receive { dst; async; bytes; src; tag } ->
      if mem dst env ~rank:r ~nranks then begin
        let env' = (bind dst) r in
        let s_rank = eval_int env' src in
        let b = bytes_of env' bytes in
        let recv_tag = if tag < 0 then Mpisim.Call.Any_tag else Mpisim.Call.Tag tag in
        if async then
          x.outstanding <-
            Mpisim.Mpi.irecv ~site ~tag:recv_tag x.ctx ~src:(Mpisim.Call.Rank s_rank)
              ~bytes:b
            :: x.outstanding
        else
          ignore
            (Mpisim.Mpi.recv ~site ~tag:recv_tag x.ctx ~src:(Mpisim.Call.Rank s_rank)
               ~bytes:b)
      end
  | Await t ->
      if mem t env ~rank:r ~nranks then begin
        (match x.outstanding with
        | [] -> ()
        | reqs ->
            ignore (Mpisim.Mpi.waitall ~site x.ctx (List.rev reqs));
            x.outstanding <- [])
      end
  | Sync t ->
      let ms = static_members ~nranks t in
      if List.mem r ms then
        if List.length ms = 1 then ()
        else Mpisim.Mpi.barrier ~site ~comm:(comm_for x ms) x.ctx
  | Multicast { src; bytes; dst } -> (
      match static_members ~nranks src with
      | [ root ] ->
          let ms =
            List.sort_uniq compare (root :: static_members ~nranks dst)
          in
          if List.mem r ms && List.length ms > 1 then begin
            let comm = comm_for x ms in
            Mpisim.Mpi.bcast ~site ~comm x.ctx ~root:(local_rank comm root)
              ~bytes:(bytes_of env bytes)
          end
      | _ -> raise (Lower_error "MULTICAST source must select exactly one task"))
  | Reduce { src; bytes; dst } ->
      let s_ms = static_members ~nranks src and d_ms = static_members ~nranks dst in
      let b = bytes_of env bytes in
      if s_ms = d_ms then begin
        if List.mem r s_ms && List.length s_ms > 1 then
          Mpisim.Mpi.allreduce ~site ~comm:(comm_for x s_ms) x.ctx ~bytes:b
      end
      else begin
        let d0 = List.hd d_ms in
        let up = List.sort_uniq compare (d0 :: s_ms) in
        if List.mem r up && List.length up > 1 then begin
          let comm = comm_for x up in
          Mpisim.Mpi.reduce ~site ~comm x.ctx ~root:(local_rank comm d0) ~bytes:b
        end;
        if List.length d_ms > 1 && List.mem r d_ms then begin
          let comm = comm_for x d_ms in
          Mpisim.Mpi.bcast ~site ~comm x.ctx ~root:(local_rank comm d0) ~bytes:b
        end
      end
  | Alltoall { tasks = t; bytes } ->
      let ms = static_members ~nranks t in
      if List.mem r ms && List.length ms > 1 then
        Mpisim.Mpi.alltoall ~site ~comm:(comm_for x ms) x.ctx
          ~bytes_per_pair:(bytes_of env bytes)
  | Neighbor { tasks = t; bytes; offsets; gather } ->
      let ms = static_members ~nranks t in
      let q = List.length ms in
      if List.mem r ms && q > 1 then begin
        let comm = comm_for x ms in
        let lr = local_rank comm r in
        let b = bytes_of env bytes in
        (* Offsets are positions within the group, applied cyclically to
           this task's position; every member applies the same offsets, so
           the engine sees an isomorphic (stencil) neighborhood. *)
        let neighbors =
          List.filter_map
            (fun o ->
              let o = ((o mod q) + q) mod q in
              if o = 0 then None else Some ((lr + o) mod q))
            offsets
          |> List.sort_uniq compare |> Array.of_list
        in
        if Array.length neighbors > 0 then
          if gather then
            Mpisim.Mpi.neighbor_allgather ~site ~comm x.ctx ~neighbors ~bytes:b
          else
            Mpisim.Mpi.neighbor_alltoall ~site ~comm x.ctx ~neighbors
              ~bytes_per_neighbor:b
      end
  | Compute { tasks = t; usecs } ->
      if mem t env ~rank:r ~nranks then begin
        let env' = (bind t) r in
        let us = eval_float env' usecs in
        if us > 0. then Mpisim.Mpi.compute ~site x.ctx (us *. 1e-6)
      end
  | For { count; body } ->
      let n = eval_int env count in
      for i = 1 to n do
        ignore i;
        exec_body x env path body
      done
  | For_each { var; first; last; body } ->
      let a = eval_int env first and b = eval_int env last in
      for i = a to b do
        exec_body x ((var, i) :: env) path body
      done
  | If { cond; then_; else_ } ->
      if eval_pred env cond then exec_body x env (path ^ "t") then_
      else exec_body x env (path ^ "e") else_
  | Log { tasks = t; agg; label } ->
      if mem t env ~rank:r ~nranks then begin
        let now = Mpisim.Mpi.wtime x.ctx in
        x.logs := ((label, agg), r, (now -. x.reset_time) *. 1e6) :: !(x.logs)
      end
  | Reset t ->
      if mem t env ~rank:r ~nranks then x.reset_time <- Mpisim.Mpi.wtime x.ctx

and exec_body x env path body =
  List.iteri (fun i s -> exec_stmt x env (Printf.sprintf "%s.%d" path i) s) body

let compile_with_logs ~nranks (p : program) logs =
  let groups = collect_groups ~nranks p in
  fun (ctx : Mpisim.Mpi.ctx) ->
    let comm_of_group = Hashtbl.create 16 in
    (* Deterministic prelude: one split per group, executed by every rank. *)
    List.iteri
      (fun i ms ->
        let color = if List.mem ctx.rank ms then 1 else 0 in
        let c =
          Mpisim.Mpi.comm_split
            ~site:(site_of (Printf.sprintf "prelude.%d" i))
            ctx ~color ~key:ctx.rank
        in
        if color = 1 then Hashtbl.replace comm_of_group ms c)
      groups;
    let x =
      { ctx; nranks; comm_of_group; outstanding = []; reset_time = 0.; logs }
    in
    exec_body x [] "" p.body;
    (match x.outstanding with
    | [] -> ()
    | reqs -> ignore (Mpisim.Mpi.waitall x.ctx (List.rev reqs)));
    Mpisim.Mpi.finalize ~site:(site_of "finalize") ctx

let compile ~nranks p = compile_with_logs ~nranks p (ref [])

let aggregate agg values =
  let sorted = List.sort compare values in
  let n = List.length sorted in
  match agg with
  | Mean -> List.fold_left ( +. ) 0. sorted /. float_of_int (max 1 n)
  | Median -> if n = 0 then 0. else List.nth sorted (n / 2)
  | Minimum -> ( match sorted with [] -> 0. | v :: _ -> v)
  | Maximum -> List.fold_left Float.max neg_infinity (0. :: sorted)

let run ?net ?(hooks = []) ?fault ?max_events ?max_virtual_time ?coll_alg ?obs
    ~nranks p =
  let logs = ref [] in
  let prog = compile_with_logs ~nranks p logs in
  let outcome =
    Mpisim.Mpi.run ~hooks ?net ?fault ?max_events ?max_virtual_time ?coll_alg
      ?obs ~nranks prog
  in
  let keys =
    List.rev !logs |> List.map (fun (k, _, _) -> k) |> List.sort_uniq compare
  in
  let series ((label, agg) as key) =
    let raw =
      List.rev !logs
      |> List.filter_map (fun (k, r, v) -> if k = key then Some (r, v) else None)
    in
    let per_rank =
      match agg with
      | None -> raw
      | Some a ->
          raw
          |> List.map fst |> List.sort_uniq compare
          |> List.map (fun r ->
                 (r, aggregate a (List.filter_map (fun (r', v) -> if r = r' then Some v else None) raw)))
    in
    (label, List.sort compare per_rank)
  in
  { outcome; logs = List.map series keys }
