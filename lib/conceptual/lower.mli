(** Compilation of coNCePTuaL programs to executable simulator programs —
    the analogue of the real coNCePTuaL compiler's C+MPI backend.

    Task groups appearing in collective statements are realized as MPI
    communicators created once at startup ([MPI_Comm_split] over the
    world), after which the program body runs with all peers expressed as
    absolute ranks.  Group predicates used by collectives must therefore
    not reference loop variables.

    Every evaluation error raised while a statement runs (an unbound
    variable, a division by zero) surfaces as [Lower_error], prefixed
    with the statement's call-site label, e.g.
    ["ncptl:.0.0: unbound variable i"]. *)

type result = {
  outcome : Mpisim.Engine.outcome;
  logs : (string * (int * float) list) list;
      (** label -> per-rank logged values (elapsed microseconds), in rank
          order *)
}

exception Lower_error of string

(** [compile ~nranks p] — the simulator program for one rank.  Fails fast
    (before running) on statically detectable errors such as a [Multicast]
    whose source selects several tasks.

    Once per program, [compile] gives every statement position its call
    site, decides the members of every task set that names no loop
    variable, computes each collective's groups, root and communicator
    slot, replaces every expression that names no variable by its value,
    and builds the operation of each statement that runs alike on every
    rank that keeps it.  Once per rank, the returned function runs the
    [comm_split] prelude, resolves its collectives' communicators, and
    then builds and runs a program holding only the statements that can
    make that rank call MPI or fail.  Task sets that name a loop variable,
    and expressions that name a loop variable or the task set's binder,
    are evaluated as each visit reaches them.  Each rank makes the same
    MPI calls, in the same order, as a statement-by-statement interpreter
    would. *)
val compile : nranks:int -> Ast.program -> Mpisim.Mpi.ctx -> unit

(** [run ?net ?hooks ~nranks p] — compile and simulate, collecting logs.
    [?fault] and the watchdog budgets are forwarded to the simulator, so
    generated benchmarks can be validated under perturbed conditions. *)
val run :
  ?net:Mpisim.Netmodel.t ->
  ?hooks:Mpisim.Hooks.t list ->
  ?fault:Mpisim.Fault.t ->
  ?max_events:int ->
  ?max_virtual_time:float ->
  ?coll_alg:Mpisim.Coll_alg.t ->
  nranks:int ->
  Ast.program ->
  result
