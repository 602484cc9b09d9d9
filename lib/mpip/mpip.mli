(** mpiP-like lightweight MPI profiling.

    Gathers per-operation event counts and byte volumes across all ranks of
    a simulated run.  Section 5.2 of the paper verifies generated
    benchmarks by checking that these statistics match the original
    application's exactly; this module provides both the collection hook
    and the comparison. *)

type t

(** Per-operation aggregate. *)
type entry = { op_name : string; calls : int; bytes : int }

val create : unit -> t

(** The {!Mpisim.Hooks.t} to pass to [Mpi.run].  [Compute] and [MPI_Wtime]
    pseudo-calls are not profiled. *)
val hook : t -> Mpisim.Hooks.t

(** Aggregates sorted by operation name. *)
val entries : t -> entry list

val total_bytes : t -> int

(** [diff a b] lists human-readable discrepancies between two profiles;
    empty means the profiles agree (same ops, counts, and volumes). *)
val diff : t -> t -> string list

val equal : t -> t -> bool

(** Fold the profile into a metrics registry: counters ["mpi.calls"] and
    ["mpi.bytes"], one label set [("op", <operation>)] per operation. *)
val record_metrics : t -> Obs.Metrics.t -> unit

val pp : Format.formatter -> t -> unit
