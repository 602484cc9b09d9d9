(** Deterministic discrete-event simulation of an MPI machine.

    Each rank runs as a cooperative fiber (OCaml effects).  Fibers advance
    only when the event loop resumes them, and events are processed in
    strictly increasing virtual-time order (ties broken FIFO), so a whole
    run is a deterministic function of the program, the rank count, the
    {!Netmodel}, and the {!Fault} plan (whose stochastic draws are consumed
    in event order from a seeded stream).  Message semantics follow MPI:
    tag/source matching with wildcards, non-overtaking per sender/receiver
    pair, eager vs. rendezvous protocols, unexpected-message queueing with
    copy cost, and sender flow control when a receiver's unexpected buffer
    fills.

    Applications do not call this module directly — they use the {!Mpi}
    wrapper — but tests exercise it through the same entry point. *)

exception Deadlock of string
(** Raised when no event is pending but some rank has not finished; the
    message lists each stuck rank with its blocking call and queue
    depths. *)

exception Mpi_error of string
(** Semantic misuse: collective mismatch on a communicator, a rank
    returning without [MPI_Finalize], invalid arguments, or a [Wait] /
    [Waitall] on a request that an earlier wait already completed.  A
    request lives until its wait completes and is freed then, so a run
    holds only the requests still in flight; waiting on it again reports
    "unknown or freed request". *)

exception Stalled of string
(** Raised when the run cannot make useful progress even though events are
    still pending: the [max_events] or [max_virtual_time] watchdog budget
    was exhausted, or a message exceeded its retransmission budget under
    fault injection.  The message names the reason and lists every
    unfinished rank with its blocking call and queue depths — a would-be
    infinite run becomes a diagnostic instead. *)

type ctx = { rank : int; nranks : int; world : Comm.t }

(** Cumulative run metrics. *)
type outcome = {
  elapsed : float;  (** max over ranks of finish time *)
  finish_times : float array;
  events : int;  (** discrete events processed *)
  messages : int;  (** point-to-point messages injected (logical sends;
                       retransmissions are counted in [retries]) *)
  p2p_bytes : int;
  unexpected : int;  (** messages queued before their receive was posted *)
  flow_stalls : int;  (** sends delayed by receiver-side flow control *)
  retries : int;  (** retransmission attempts performed (fault injection) *)
  timeouts : int;  (** sender timeout expirations (fault injection) *)
  dropped : int;  (** transmission attempts lost in flight (fault injection) *)
}

(** [run ~nranks program] simulates [program] on every rank.

    @param hooks interposition clients, called in registration order.
    @param net the network model (default {!Netmodel.bluegene_l}).
    @param fault seeded fault-injection plan; an inert plan (or none)
      skips the fault machinery entirely.
    @param max_events watchdog: raise {!Stalled} once this many discrete
      events have been processed.
    @param max_virtual_time watchdog: raise {!Stalled} once virtual time
      exceeds this many seconds.
    @param coll_alg collective algorithm selection (default
      [`Monolithic], the original analytic model — the reference
      strategy, so default timings are unchanged).  Other selections
      expand applicable collectives into round schedules priced by the
      p2p wire parameters ({!Coll_alg}); inapplicable combinations fall
      back to [`Monolithic].  Strategy choice affects timing only: it
      never changes matching, message contents, deadlock behaviour, or
      how many {!Hooks.on_collective_complete} events fire (exactly one
      per logical collective).
    @param obs observability sink (default {!Obs.Sink.nil}).  With an
      enabled sink the engine emits, every 256 discrete events and once
      at the end, per-rank queue-depth counter samples (posted,
      unexpected and parked depths, buffered bytes) and an engine-wide
      counter track (bytes in flight, event / message / stall totals,
      fault counters); via an automatically appended {!Hooks.observer}
      it also emits fault and collective-completion instants.  All
      timestamps are virtual microseconds, so sampled traces are
      deterministic.  With the [nil] sink every observation point is a
      single flag test. *)
val run :
  ?hooks:Hooks.t list ->
  ?net:Netmodel.t ->
  ?fault:Fault.t ->
  ?max_events:int ->
  ?max_virtual_time:float ->
  ?coll_alg:Coll_alg.t ->
  ?obs:Obs.Sink.t ->
  nranks:int ->
  (ctx -> unit) ->
  outcome

(** [perform call] — issue an MPI call from inside a running rank fiber.
    Used by {!Mpi}; calling it outside [run] raises [Mpi_error]. *)
val perform : Call.t -> Call.value
