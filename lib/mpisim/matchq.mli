(** Message-matching queues of the simulation engine.

    MPI matching is FIFO per pattern: a posted receive consumes the
    earliest-arriving unexpected message whose (source, tag, communicator)
    it accepts, and an arriving message completes the earliest-posted
    receive that accepts it.  Both directions admit wildcards
    ([MPI_ANY_SOURCE] / [MPI_ANY_TAG]) on the receive side only.

    Each queue is a {!Util.Deque} searched front to back for the first
    match.  The registry applications never hold more than a few entries
    in a queue when a receive searches it, so the scan ends within a few
    probes; a queue of thousands of messages drained out of order costs
    one scan per match (DESIGN §7, "Message matching").  The original
    list scans remain as the test oracle [test/matchq_ref.ml]. *)

type protocol = Eager | Rendezvous

type msg = {
  m_src : int; (* world ranks *)
  m_dst : int;
  m_tag : int;
  m_bytes : int;
  m_comm : int;
  m_protocol : protocol;
  m_send_req : int;
  mutable m_reserved : bool; (* counted against dst's unexpected buffer *)
}

type posted = {
  p_req : int;
  p_src : int option; (* world rank; None = MPI_ANY_SOURCE *)
  p_tag : int option; (* None = MPI_ANY_TAG *)
  p_comm : int;
  p_time : float;
}

(** [accepts p ~src ~tag ~comm] — does posted pattern [p] accept a
    message from world rank [src] with [tag] on communicator [comm]? *)
val accepts : posted -> src:int -> tag:int -> comm:int -> bool

(** Unexpected-message queue: messages that arrived before a matching
    receive was posted, consumed in arrival order. *)
module Unexpected : sig
  type t

  val create : unit -> t
  val length : t -> int
  val add : t -> msg -> unit

  (** [take t p] — remove and return the earliest-arriving message
      matching [p], if any. *)
  val take : t -> posted -> msg option
end

(** Posted-receive queue: receives waiting for their message, consumed in
    post order. *)
module Posted : sig
  type t

  val create : unit -> t
  val length : t -> int
  val add : t -> posted -> unit

  (** [take t ~src ~tag ~comm] — remove and return the earliest-posted
      receive accepting a message with these coordinates, if any. *)
  val take : t -> src:int -> tag:int -> comm:int -> posted option

  (** Non-destructive: would [take] succeed? *)
  val mem : t -> src:int -> tag:int -> comm:int -> bool
end
