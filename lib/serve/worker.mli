(** A persistent forked pool worker.

    A worker is forked once per {!Pool.Spawn} and then loops: read one
    marshaled request from its request pipe, run {!attempt} in its own
    process, marshal the {!Pool.attempt_outcome} back, repeat.  The
    fork cost is paid per worker lifetime instead of per attempt, and a
    segfaulting or [exit]ing job kills only the worker, which the pool
    observes as EOF on the reply pipe and restarts.

    An exception raised by an attempt is caught inside the worker and
    reported as {!Pool.A_crashed} — the worker {e survives} it; only
    hard process deaths surface as {!read_step} [`Eof]. *)

type t

(** [attempt sub ~recovery] — one pipeline attempt, run {e in the
    calling process}: build the {!Benchgen.Pipeline.config} from the
    job, run it at [recovery], write [sub_out] if requested.  Pipeline
    errors carry their stable tag and the trace path; a [sub_out] that
    cannot be written is a non-retryable ["io"] error whose path is
    [sub_out]. *)
val attempt :
  Protocol.submit -> recovery:Benchgen.Pipeline.recovery -> Pool.attempt_outcome

(** [spawn ~wid ~close_fds ()] forks a worker for slot [wid].  The
    child closes every descriptor in [close_fds ()] (client
    connections, listeners, the other workers' pipes) and redirects
    its stdin/stdout to [/dev/null] — fd 1 may be a protocol stream in
    the parent and must never receive stray bytes — then enters the
    request loop.  Never returns in the child. *)
val spawn : wid:int -> close_fds:(unit -> Unix.file_descr list) -> unit -> t

val pid : t -> int
val wid : t -> int

(** The reply pipe's read end, for the server's [select] set. *)
val fd : t -> Unix.file_descr

(** Both pipe ends, for sibling workers' [close_fds] lists. *)
val pipe_fds : t -> Unix.file_descr list

(** Write one attempt request to the worker.  @raise Unix.Unix_error
    (e.g. [EPIPE]) if the worker is dead — the caller should treat
    that as the worker's death. *)
val send :
  t -> Protocol.submit -> recovery:Benchgen.Pipeline.recovery -> unit

(** Non-blocking-style incremental read, to be called when {!fd} is
    readable: consume available bytes and return a complete reply once
    one has accumulated.  [`Eof] means the worker died (or exited).
    @raise Failure on an undecodable reply stream. *)
val read_step : t -> [ `Reply of Pool.attempt_outcome | `Eof | `Again ]

(** [SIGKILL] the worker, reap it, close its pipes.  Idempotent. *)
val kill : t -> unit
