(** PMPI-style interposition.

    Clients (the ScalaTrace tracer, the mpiP-like profiler, the
    observability layer) register hooks that observe every MPI call a rank
    makes, with virtual timestamps.  [on_enter] fires when the application
    invokes the call; [on_return] fires when the call completes and the
    application resumes.  [Compute] and [Wtime] pseudo-calls are reported
    too; clients that only care about MPI events skip an op that matches
    [Compute _ | Wtime].

    When fault injection is active ({!Fault}), [on_fault] additionally
    reports transport-level incidents invisible to the application: a
    transmission attempt lost in flight, and the retransmission that
    follows its timeout.

    [on_collective_complete] fires once per collective operation — when
    the last participant has arrived and the operation's completion time
    is known — rather than once per rank, giving aggregate observers
    (trace exporters, convergence monitors) a single event per barrier,
    broadcast, reduction, etc.  This holds under every {!Coll_alg}
    strategy: a collective expanded into a schedule of rounds still
    produces exactly one completion event for the logical operation,
    never one per round.

    Build hooks with [{ nil with ... }] so adding observation points stays
    source-compatible; combine independent clients with {!compose}. *)

(** A transport incident under fault injection.  [attempt] is 0 for the
    original transmission, [n] for the n-th retransmission. *)
type fault_event =
  | F_drop of { src : int; dst : int; bytes : int; attempt : int }
  | F_retransmit of { src : int; dst : int; bytes : int; attempt : int }

type t = {
  on_enter : world_rank:int -> time:float -> Call.t -> unit;
  on_return : world_rank:int -> time:float -> Call.t -> Call.value -> unit;
  on_fault : time:float -> fault_event -> unit;
  on_collective_complete :
    time:float -> comm:int -> name:string -> participants:int array -> unit;
      (** [time] is the operation's completion time; [comm] the
          communicator id; [name] the operation ([Call.op_name]);
          [participants] the world ranks involved, in arrival order. *)
  on_p2p_match :
    time:float -> src:int -> dst:int -> tag:int -> bytes:int -> comm:int -> unit;
      (** Fires once per point-to-point message, at the moment it pairs
          with a posted receive.  [src]/[dst] are world ranks; per-channel
          firing order is the message-matching (happens-before) order. *)
}

(** A hook that does nothing; override the fields you need. *)
val nil : t

(** [compose a b] runs [a]'s callback before [b]'s at every observation
    point. *)
val compose : t -> t -> t

(** [observer sink] bridges engine-level incidents into an observability
    sink: fault events become ["fault.drop"] / ["fault.retransmit"]
    instants on the sender's engine track, collective completions become
    ["collective.<name>"] instants.  Timestamps are virtual microseconds.
    Returns {!nil} when the sink is disabled. *)
val observer : Obs.Sink.t -> t
