(** Scalable summaries of computation-time samples.

    ScalaTrace does not store one duration per call instance; it compresses
    all durations observed at a call path — across loop iterations and
    ranks — into a small summary (Ratn et al., ICS'08).  This module
    provides that summary: the five statistics every trace format stores
    per RSD in its [dt=] field — count, sum, min, max and the first sample
    (the paper notes the first loop iteration usually differs from the
    rest) — from which the mean follows.  A summary is 6 words and saves
    and loads back exactly. *)

type t

(** [create ()] is an empty summary. *)
val create : unit -> t

(** [add t x] records sample [x] (seconds; must be finite and [>= 0.]). *)
val add : t -> float -> unit

val count : t -> int
val sum : t -> float

(** [min_value], [max_value], [mean]: 0. when empty. *)

val min_value : t -> float
val max_value : t -> float
val mean : t -> float

(** Value of the first sample added; 0. when empty. *)
val first_sample : t -> float

(** Rebuild a summary from its serialized statistics (count/sum/min/max/
    first); every query then answers as on the summary that was saved.
    @raise Invalid_argument unless [0 <= count <= 2^53], [sum], [min],
    [max] and [first] are finite and [>= 0.], and either [count = 0] and
    every other statistic is [0.], or [min <= first <= max]. *)
val of_stats :
  count:int -> sum:float -> min:float -> max:float -> first:float -> t

(** Merge the second summary into the first (inter-node trace merging).
    The merged [first_sample] is the first node's. *)
val merge_into : t -> t -> unit

val copy : t -> t

val pp : Format.formatter -> t -> unit
