(** A metrics registry: counters, gauges, and histograms keyed by
    name + labels.

    Each instrument is identified by a metric name plus a label set
    (e.g. [("rank", "3")]); labels are sorted internally so the two
    orders of [[("a","1");("b","2")]] address the same instrument.
    Histograms reuse {!Util.Histogram} (exact count/sum/min/max/mean).

    The dump format is JSONL — one JSON object per line, sorted by
    (name, labels) — so outputs are byte-stable and diffable.

    {b Concurrency guarantee.}  Every registry operation ([inc], [set],
    [observe], the accessors, [merge_into], [to_jsonl]) is guarded by a
    per-registry mutex, so one registry may be shared freely by
    concurrent serve jobs, OS threads, and OCaml 5 domains: updates are
    never torn and never lost.  Individual operations are atomic;
    read-modify-write sequences composed from several calls are not.
    [merge_into dst src] locks [dst] only — [src] must be quiescent
    (merging is a collection step, not a concurrent operation). *)

type t

val create : unit -> t

(** [inc t ?labels ?by name] bumps counter [name] (default [by] 1).
    Counters are monotone integers. *)
val inc : t -> ?labels:(string * string) list -> ?by:int -> string -> unit

(** [set t ?labels name v] sets gauge [name] to [v] (last write wins). *)
val set : t -> ?labels:(string * string) list -> string -> float -> unit

(** [observe t ?labels name x] records sample [x >= 0.] into histogram
    [name]. *)
val observe : t -> ?labels:(string * string) list -> string -> float -> unit

(** Accessors for tests and report code; [None] when the instrument was
    never touched (or is of another kind). *)

val counter_value : t -> ?labels:(string * string) list -> string -> int option
val gauge_value : t -> ?labels:(string * string) list -> string -> float option

val histogram_stats :
  t ->
  ?labels:(string * string) list ->
  string ->
  (int * float * float * float * float) option
(** [histogram_stats t name] is [(count, sum, min, max, mean)]. *)

(** [merge_into dst src] folds every instrument of [src] into [dst]:
    counters add, gauges take [src]'s value, histograms merge. *)
val merge_into : t -> t -> unit

(** One JSON object per instrument, one per line, sorted by (name,
    labels):
    {v
    {"name":"...","labels":{...},"type":"counter","value":N}
    {"name":"...","labels":{...},"type":"gauge","value":X}
    {"name":"...","labels":{...},"type":"histogram","count":N,"sum":S,"min":M,"max":M,"mean":A}
    v} *)
val to_jsonl : t -> string

(** Parse one JSONL line back into (name, labels, kind-specific json).
    @raise Json.Parse_error on malformed input. *)
val line_of_string : string -> string * (string * string) list * Json.t
