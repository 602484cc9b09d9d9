(** ScalaReplay: execute a compressed trace on the simulator.

    Each rank walks its projection of the trace, re-issuing every MPI
    event after a computation gap of its RSD's mean compute time, as the
    generated benchmarks do.  Used for (a) the Section 5.2 semantic
    comparison between original applications and generated benchmarks,
    and (b) timed wildcard resolution: replaying a trace that still
    contains [MPI_ANY_SOURCE] lets the simulator's arrival-order matching
    decide the senders, and the per-instance matches come back in
    [wildcard_matches]. *)

exception Replay_error of string

type result = {
  outcome : Mpisim.Engine.outcome;
  wildcard_matches : ((int * int) * int list) list;
      (** per (leaf index, rank): matched world senders in instance order;
          leaf indices count {!Scalatrace.Tnode.iter_leaves} order *)
}

(** [run trace] — replay and return the outcome.

    @param net network model (default bluegene_l)
    @param hooks extra interposition clients
    @param fault seeded fault-injection plan forwarded to the simulator
    @param max_events / max_virtual_time watchdog budgets forwarded to the
      simulator (a wedged replay raises {!Mpisim.Engine.Stalled})
    @param coll_alg collective algorithm selection forwarded to the
      simulator (default [`Monolithic]) *)
val run :
  ?net:Mpisim.Netmodel.t ->
  ?hooks:Mpisim.Hooks.t list ->
  ?fault:Mpisim.Fault.t ->
  ?max_events:int ->
  ?max_virtual_time:float ->
  ?coll_alg:Mpisim.Coll_alg.t ->
  Scalatrace.Trace.t ->
  result
