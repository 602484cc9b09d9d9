(** Scalable summaries of computation-time samples.

    ScalaTrace does not store one duration per call instance; it compresses
    all durations observed at a call path — across loop iterations and
    ranks — into a small summary (Ratn et al., ICS'08).  This module
    provides that summary: exact count/sum/min/max/mean/variance plus a
    bounded exponential-bucket histogram, and separate tracking of the
    first sample (the paper notes the first loop iteration usually differs
    from the rest).

    Memory follows the occupied bucket span, not a fixed size: a summary
    stores counts only from its lowest to its highest occupied bucket (at
    most 128 buckets), so a one-sample summary holds a single count. *)

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

(** Population variance; 0. when empty. *)
val variance : t -> float

(** Value of the first sample added; 0. when empty. *)
val first_sample : t -> float

(** Mean of all samples except the first; falls back to {!mean} when fewer
    than two samples were added. *)
val rest_mean : t -> float

(** [quantile t q] approximates the [q]-quantile (0 <= q <= 1) from the
    bucketed histogram; exact min/max at the extremes. *)
val quantile : t -> float -> float

(** [draw t ~u] draws a reconstruction value: the mean of a bucket chosen by
    uniform deviate [u] in [0,1).  Used when replaying compute time from a
    trace without storing per-instance values. *)
val draw : t -> u:float -> float

(** Reconstruct a summary from serialized statistics (count/sum/min/max/
    first).  Bucket detail is approximated: all mass lands at the mean, so
    means and extremes are exact but interior quantiles are not.
    @raise Invalid_argument unless [count >= 0] and [sum], [min], [max]
    and [first] are finite and [>= 0.]. *)
val of_stats :
  count:int -> sum:float -> min:float -> max:float -> first:float -> t

(** Merge the second summary into the first (inter-node trace merging).
    The merged [first_sample] is the first node's. *)
val merge_into : t -> t -> unit

val copy : t -> t

val pp : Format.formatter -> t -> unit
