open Ast
module Rank_set = Util.Rank_set

type result = {
  outcome : Mpisim.Engine.outcome;
  logs : (string * (int * float) list) list;
}

exception Lower_error of string

(* The compiler runs in two steps.  [analyse] walks the program once: it
   gives every statement position its call site, decides every task set
   that names no loop variable, computes each collective's groups and
   communicator slot, and builds the operation of every statement that
   runs alike on each rank that keeps it.  [specialise] then builds, for
   one rank, a program holding only the statements that can make that
   rank call MPI or fail.  What remains is evaluated on each visit, in
   the interpreter's order, so each rank makes the same calls and raises
   the same errors at the same points. *)

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)

(* Whether the rank belongs to a statement's task set: known when its
   program is built, or checked on each visit. *)
type guard = Member | Check of tasks

(* Collective calls, with roots as local ranks of their communicator. *)
type coll =
  | C_barrier
  | C_bcast of int
  | C_reduce of int
  | C_allreduce
  | C_alltoall
  | C_neighbors of int array * bool  (** neighbors (never empty); gather *)

(* Expressions are literals where they evaluate before the run ([fix_int],
   [fix_float]); the others are evaluated on each visit, with the
   binder bound to the rank. *)
type op = { site : Util.Callsite.t; op : kind }

and kind =
  | O_send of {
      src : tasks;
      guard : guard;
      dst : expr;
      bytes : expr;
      async : bool;
      tag : int;
      recv : bool;
          (** implicit receives: every member's destination is evaluated on
              each visit *)
    }
  | O_recv of {
      dst : tasks;
      guard : guard;
      src : expr;
      bytes : expr;
      async : bool;
      tag : int;
    }
  | O_await of guard
  | O_coll of expr * (coll * Mpisim.Comm.t) list
      (** size (evaluated first), then the calls in order *)
  | O_compute of { tasks : tasks; guard : guard; usecs : expr }
  | O_for of expr * op list
  | O_for_each of string * expr * expr * op list
  | O_if of pred * op list * op list
  | O_log of guard * (string * agg option)
  | O_reset of guard

(* ------------------------------------------------------------------ *)
(* Static analysis, once per program                                    *)

(* Group membership in collectives is evaluated in the empty environment;
   a loop-variable-dependent group would make the communicator set
   unbounded. *)
let static_members ~nranks tasks =
  try members tasks [] ~nranks
  with Eval_error msg ->
    raise
      (Lower_error
         ("collective task group must not depend on loop variables: " ^ msg))

(* A literal for an expression that evaluates with no variable bound, or
   the expression itself.  Evaluation is pure, so the literal is what
   every visit would compute; an expression that names a variable is left
   to each visit, and one that fails there fails where the interpreter
   did. *)
let fix_int e =
  match e with
  | Int _ -> e
  | _ -> ( match eval_int [] e with v -> Int v | exception Eval_error _ -> e)

let fix_float e =
  match eval_float [] e with v -> Float v | exception Eval_error _ -> e

let non_negative = function Int b -> b >= 0 | _ -> false

let literal = function Int _ -> true | _ -> false

(* A collective's task group.  [slot] is its communicator's index in the
   comm_split prelude; -1 stands for the world (or a singleton group,
   which never calls MPI). *)
type group = { ranks : Rank_set.t; size : int; slot : int }

(* A collective call as the analysis records it: a root is a world rank
   and a neighborhood is its offsets.  [resolve] turns it into one rank's
   [coll]. *)
type call =
  | G_barrier
  | G_bcast of int
  | G_reduce of int
  | G_allreduce
  | G_alltoall
  | G_neighbors of int list * bool  (** offsets; gather *)

type node = {
  site : Util.Callsite.t;
  who : Rank_set.t;  (** ranks for which the statement can call MPI or fail *)
  plan : plan;
}

and plan =
  | Shared of op  (** the same operation on every rank that keeps it *)
  | Coll of expr * (call * group) list  (** size, then the calls in order *)
  | Loop of expr * node list
  | Loop_each of string * expr * expr * node list
  | Branch of pred * node list * node list

type analysis = {
  nranks : int;
  sets : (tasks, Rank_set.t option) Hashtbl.t;
  slots : (int list, int) Hashtbl.t;
  mutable groups : Rank_set.t list; (* prelude order, newest first *)
}

(* A task set is static when it evaluates for every rank without a loop
   variable; its members are then decided once.  Generated programs
   repeat a few predicates over many statements, so each distinct set is
   evaluated once per program. *)
let static_set a tasks =
  let decide () =
    match tasks with
    | All _ -> Some (Rank_set.all a.nranks)
    | Single e -> (
        match eval_int [] e with
        | r when r >= 0 && r < a.nranks -> Some (Rank_set.singleton r)
        | _ -> Some Rank_set.empty
        | exception Eval_error _ -> None)
    | Group _ -> (
        match members tasks [] ~nranks:a.nranks with
        | ms -> Some (Rank_set.of_list ms)
        | exception Eval_error _ -> None)
  in
  match Hashtbl.find_opt a.sets tasks with
  | Some s -> s
  | None ->
      let s = decide () in
      Hashtbl.add a.sets tasks s;
      s

(* Groups get their communicator slots in order of first appearance. *)
let group a ms =
  if ms = [] then raise (Lower_error "collective over an empty task group");
  let ranks = Rank_set.of_list ms and size = List.length ms in
  let slot =
    if size <= 1 || size = a.nranks then -1
    else
      match Hashtbl.find_opt a.slots ms with
      | Some i -> i
      | None ->
          let i = Hashtbl.length a.slots in
          Hashtbl.add a.slots ms i;
          a.groups <- ranks :: a.groups;
          i
  in
  { ranks; size; slot }

(* Who takes part in a list of collective calls: the members of every
   group that calls MPI. *)
let callers calls =
  List.fold_left
    (fun acc (_, g) -> if g.size > 1 then Rank_set.union acc g.ranks else acc)
    Rank_set.empty calls

(* The ranks a statement list involves: the union of its statements' [who]. *)
let involved nodes =
  List.fold_left (fun acc n -> Rank_set.union acc n.who) Rank_set.empty nodes

(* One node per statement position, visited in [fold_stmts] order so that
   the collectives' errors and communicator slots come out as they did
   when the groups were collected by a separate pass. *)
let rec analyse a path i s =
  let path = Printf.sprintf "%s.%d" path i in
  let site = Util.Callsite.synthetic ("ncptl:" ^ path) in
  let nranks = a.nranks in
  let all = Rank_set.all nranks in
  let node who plan = { site; who; plan } in
  (* kept by the members of a static set, or by every rank when the set
     is checked on each visit *)
  let shared tasks kind =
    match static_set a tasks with
    | Some m -> node m (Shared { site; op = kind Member })
    | None -> node all (Shared { site; op = kind (Check tasks) })
  in
  let coll bytes calls = node (callers calls) (Coll (fix_int bytes, calls)) in
  let block path body = List.mapi (analyse a path) body in
  (* a header that does not evaluate now may fail on a visit, so every
     rank keeps the loop *)
  let loop header body = if header then involved body else all in
  match s with
  | Send { src; async; bytes; dst; tag; implicit_recv } ->
      let send guard =
        O_send
          {
            src;
            guard;
            dst = fix_int dst;
            bytes = fix_int bytes;
            async;
            tag;
            recv = implicit_recv;
          }
      in
      (* any rank may be the destination of an implicit receive *)
      if implicit_recv then node all (Shared { site; op = send (Check src) })
      else shared src send
  | Receive { dst; async; bytes; src; tag } ->
      shared dst (fun guard ->
          O_recv
            { dst; guard; src = fix_int src; bytes = fix_int bytes; async; tag })
  | Await t -> shared t (fun guard -> O_await guard)
  | Log { tasks; agg; label } -> shared tasks (fun guard -> O_log (guard, (label, agg)))
  | Reset t -> shared t (fun guard -> O_reset guard)
  | Compute { tasks; usecs } ->
      shared tasks (fun guard -> O_compute { tasks; guard; usecs = fix_float usecs })
  | Sync t -> coll (Int 0) [ (G_barrier, group a (static_members ~nranks t)) ]
  | Alltoall { tasks; bytes } ->
      coll bytes [ (G_alltoall, group a (static_members ~nranks tasks)) ]
  | Neighbor { tasks; bytes; offsets; gather } ->
      coll bytes
        [ (G_neighbors (offsets, gather), group a (static_members ~nranks tasks)) ]
  | Multicast { src; bytes; dst } -> (
      match static_members ~nranks src with
      | [ root ] ->
          let g =
            group a (List.sort_uniq compare (root :: static_members ~nranks dst))
          in
          coll bytes [ (G_bcast root, g) ]
      | _ -> raise (Lower_error "MULTICAST source must select exactly one task"))
  | Reduce { src; bytes; dst } ->
      let s = static_members ~nranks src and d = static_members ~nranks dst in
      if s = [] || d = [] then
        raise (Lower_error "collective over an empty task group");
      let d0 = List.hd d in
      let calls =
        if s = d then [ (G_allreduce, group a s) ]
        else
          let up = group a (List.sort_uniq compare (d0 :: s)) in
          let down = group a d in
          [ (G_reduce d0, up); (G_bcast d0, down) ]
      in
      let bytes = fix_int bytes in
      (* every rank evaluates a REDUCE's size, member or not *)
      node
        (if non_negative bytes then callers calls else all)
        (Coll (bytes, calls))
  | For { count; body } ->
      let count = fix_int count and body = block path body in
      node (loop (literal count) body) (Loop (count, body))
  | For_each { var; first; last; body } ->
      let first = fix_int first and last = fix_int last and body = block path body in
      node (loop (literal first && literal last) body) (Loop_each (var, first, last, body))
  | If { cond; then_; else_ } ->
      let then_ = block (path ^ "t") then_ in
      let else_ = block (path ^ "e") else_ in
      node all (Branch (cond, then_, else_))

(* ------------------------------------------------------------------ *)
(* Per-rank programs                                                   *)

type rank_spec = {
  rank : int;
  world : Mpisim.Comm.t;
  comms : Mpisim.Comm.t option array; (* by prelude slot; Some when a member *)
}

let local_rank comm world =
  match Mpisim.Comm.local_of_world comm world with
  | Some l -> l
  | None -> raise (Lower_error "internal: rank not in group communicator")

let comm_of sp g =
  if g.slot < 0 then sp.world
  else
    match sp.comms.(g.slot) with
    | Some c -> c
    | None -> raise (Lower_error "internal: communicator for group not created")

(* This rank's call on its communicator for the group, or none when the
   rank makes no call there. *)
let resolve sp (call, g) =
  if g.size <= 1 || not (Rank_set.mem sp.rank g.ranks) then []
  else
    let c = comm_of sp g in
    match call with
    | G_barrier -> [ (C_barrier, c) ]
    | G_alltoall -> [ (C_alltoall, c) ]
    | G_allreduce -> [ (C_allreduce, c) ]
    | G_bcast root -> [ (C_bcast (local_rank c root), c) ]
    | G_reduce root -> [ (C_reduce (local_rank c root), c) ]
    | G_neighbors (offsets, gather) -> (
        (* Offsets are positions within the group, applied cyclically to
           this task's position; every member applies the same offsets, so
           the engine sees an isomorphic (stencil) neighborhood. *)
        let q = g.size and lr = local_rank c sp.rank in
        let neighbors =
          List.filter_map
            (fun o ->
              let o = ((o mod q) + q) mod q in
              if o = 0 then None else Some ((lr + o) mod q))
            offsets
          |> List.sort_uniq compare
        in
        match neighbors with
        | [] -> []
        | ns -> [ (C_neighbors (Array.of_list ns, gather), c) ])

let rec specialise sp nodes =
  List.concat_map
    (fun n -> if Rank_set.mem sp.rank n.who then specialise_node sp n else [])
    nodes

and specialise_node sp n =
  let one op = [ { site = n.site; op } ] in
  match n.plan with
  | Shared op -> [ op ]
  | Coll (bytes, calls) -> (
      (* a rank kept here with no call still evaluates the size *)
      match (List.concat_map (resolve sp) calls, bytes) with
      | [], b when non_negative b -> []
      | calls, b -> one (O_coll (b, calls)))
  | Loop (count, body) -> (
      match (count, specialise sp body) with
      | Int _, [] -> []
      | count, body -> one (O_for (count, body)))
  | Loop_each (var, first, last, body) -> (
      match (first, last, specialise sp body) with
      | Int _, Int _, [] -> []
      | first, last, body -> one (O_for_each (var, first, last, body)))
  | Branch (cond, then_, else_) ->
      let then_ = specialise sp then_ in
      one (O_if (cond, then_, specialise sp else_))

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

type rank_exec = {
  ctx : Mpisim.Mpi.ctx;
  nranks : int;
  mutable outstanding : Mpisim.Call.request list; (* reverse post order *)
  mutable reset_time : float;
  logs : ((string * agg option) * int * float) list ref; (* shared across ranks *)
}

(* [bind tasks r env]: the environment member [r] evaluates in. *)
let bind tasks r env = match binder tasks with Some v -> (v, r) :: env | None -> env

(* The value of an expression for member [r]; the binder is bound only
   when there is something to evaluate. *)
let int_at tasks r env = function Int n -> n | e -> eval_int (bind tasks r env) e

let float_at tasks r env = function
  | Float f -> f
  | e -> eval_float (bind tasks r env) e

let check_bytes b = if b < 0 then raise (Lower_error "negative message size") else b

let member x env = function
  | Member -> true
  | Check t -> mem t env ~rank:x.ctx.rank ~nranks:x.nranks

let recv_tag tag = if tag < 0 then Mpisim.Call.Any_tag else Mpisim.Call.Tag tag

let rec exec x env { site; op } =
  try exec_op x env site op
  with Eval_error msg ->
    raise (Lower_error (Util.Callsite.label site ^ ": " ^ msg))

and exec_body x env = function
  | [] -> ()
  | op :: rest ->
      exec x env op;
      exec_body x env rest

and exec_op x env site = function
  | O_send s ->
      let r = x.ctx.rank in
      (* Implicit receives are posted asynchronously before the send (the
         coNCePTuaL runtime's behaviour); for a synchronous SEND they are
         awaited once this task's own send has been issued, keeping ring
         exchanges deadlock-free. *)
      let implicit_reqs =
        if not s.recv then []
        else
          List.filter_map
            (fun t ->
              let env = bind s.src t env in
              if eval_int env s.dst = r then
                Some
                  (Mpisim.Mpi.irecv ~site ~tag:(recv_tag s.tag) x.ctx
                     ~src:(Mpisim.Call.Rank t)
                     ~bytes:(check_bytes (eval_int env s.bytes)))
              else None)
            (members s.src env ~nranks:x.nranks)
      in
      if member x env s.guard then begin
        let d = int_at s.src r env s.dst in
        if d < 0 || d >= x.nranks then
          raise
            (Lower_error
               (Printf.sprintf "send to task %d outside 0..%d" d (x.nranks - 1)));
        let b = check_bytes (int_at s.src r env s.bytes) in
        let tag = max 0 s.tag in
        if s.async then
          x.outstanding <-
            Mpisim.Mpi.isend ~site ~tag x.ctx ~dst:d ~bytes:b :: x.outstanding
        else Mpisim.Mpi.send ~site ~tag x.ctx ~dst:d ~bytes:b
      end;
      if s.async then x.outstanding <- List.rev_append implicit_reqs x.outstanding
      else if implicit_reqs <> [] then
        ignore (Mpisim.Mpi.waitall ~site x.ctx implicit_reqs)
  | O_recv s ->
      if member x env s.guard then begin
        let r = x.ctx.rank in
        let src = Mpisim.Call.Rank (int_at s.dst r env s.src) in
        let bytes = check_bytes (int_at s.dst r env s.bytes) in
        let tag = recv_tag s.tag in
        if s.async then
          x.outstanding <-
            Mpisim.Mpi.irecv ~site ~tag x.ctx ~src ~bytes :: x.outstanding
        else ignore (Mpisim.Mpi.recv ~site ~tag x.ctx ~src ~bytes)
      end
  | O_await g ->
      if member x env g then begin
        match x.outstanding with
        | [] -> ()
        | reqs ->
            ignore (Mpisim.Mpi.waitall ~site x.ctx (List.rev reqs));
            x.outstanding <- []
      end
  | O_coll (bytes, calls) ->
      let b = check_bytes (eval_int env bytes) in
      List.iter
        (fun (call, comm) ->
          match call with
          | C_barrier -> Mpisim.Mpi.barrier ~site ~comm x.ctx
          | C_bcast root -> Mpisim.Mpi.bcast ~site ~comm x.ctx ~root ~bytes:b
          | C_reduce root -> Mpisim.Mpi.reduce ~site ~comm x.ctx ~root ~bytes:b
          | C_allreduce -> Mpisim.Mpi.allreduce ~site ~comm x.ctx ~bytes:b
          | C_alltoall -> Mpisim.Mpi.alltoall ~site ~comm x.ctx ~bytes_per_pair:b
          | C_neighbors (neighbors, true) ->
              Mpisim.Mpi.neighbor_allgather ~site ~comm x.ctx ~neighbors ~bytes:b
          | C_neighbors (neighbors, false) ->
              Mpisim.Mpi.neighbor_alltoall ~site ~comm x.ctx ~neighbors
                ~bytes_per_neighbor:b)
        calls
  | O_compute c ->
      if member x env c.guard then begin
        let us = float_at c.tasks x.ctx.rank env c.usecs in
        if us > 0. then Mpisim.Mpi.compute ~site x.ctx (us *. 1e-6)
      end
  | O_for (count, body) ->
      for _ = 1 to eval_int env count do
        exec_body x env body
      done
  | O_for_each (var, first, last, body) ->
      let a = eval_int env first and b = eval_int env last in
      for i = a to b do
        exec_body x ((var, i) :: env) body
      done
  | O_if (cond, then_, else_) ->
      exec_body x env (if eval_pred env cond then then_ else else_)
  | O_log (g, key) ->
      if member x env g then begin
        let now = Mpisim.Mpi.wtime x.ctx in
        x.logs := (key, x.ctx.rank, (now -. x.reset_time) *. 1e6) :: !(x.logs)
      end
  | O_reset g -> if member x env g then x.reset_time <- Mpisim.Mpi.wtime x.ctx

let compile_with_logs ~nranks (p : program) logs =
  let a =
    { nranks; sets = Hashtbl.create 64; slots = Hashtbl.create 16; groups = [] }
  in
  let body = List.mapi (analyse a "") p.body in
  let groups = Array.of_list (List.rev a.groups) in
  let prelude_sites =
    Array.init (Array.length groups) (fun i ->
        Util.Callsite.synthetic (Printf.sprintf "ncptl:prelude.%d" i))
  in
  let finalize_site = Util.Callsite.synthetic "ncptl:finalize" in
  fun (ctx : Mpisim.Mpi.ctx) ->
    (* Deterministic prelude: one split per group, executed by every rank. *)
    let comms =
      Array.mapi
        (fun i ms ->
          let color = if Rank_set.mem ctx.rank ms then 1 else 0 in
          let c =
            Mpisim.Mpi.comm_split ~site:prelude_sites.(i) ctx ~color ~key:ctx.rank
          in
          if color = 1 then Some c else None)
        groups
    in
    let body = specialise { rank = ctx.rank; world = ctx.world; comms } body in
    let x = { ctx; nranks; outstanding = []; reset_time = 0.; logs } in
    exec_body x [] body;
    (match x.outstanding with
    | [] -> ()
    | reqs -> ignore (Mpisim.Mpi.waitall x.ctx (List.rev reqs)));
    Mpisim.Mpi.finalize ~site:finalize_site ctx

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
