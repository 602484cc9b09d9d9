type protocol = Eager | Rendezvous

type msg = {
  m_src : int;
  m_dst : int;
  m_tag : int;
  m_bytes : int;
  m_comm : int;
  m_protocol : protocol;
  m_arrival : float;
  m_send_req : int;
  mutable m_reserved : bool;
}

type posted = {
  p_req : int;
  p_src : int option;
  p_tag : int option;
  p_comm : int;
  p_time : float;
}

let accepts (p : posted) ~src ~tag ~comm =
  p.p_comm = comm
  && (match p.p_src with None -> true | Some s -> s = src)
  && match p.p_tag with None -> true | Some t -> t = tag

(* Both queues are FIFOs searched front to back, so the first match is
   the earliest arrival (or post): MPI's matching order.  A queue holds a
   handful of entries when it is searched, so the scan stops early. *)

module Unexpected = struct
  type t = msg Util.Deque.t

  let create () = Util.Deque.create ~capacity:4 ()
  let length = Util.Deque.length
  let add = Util.Deque.push_back
  let take t p =
    Util.Deque.remove_first
      (fun m -> accepts p ~src:m.m_src ~tag:m.m_tag ~comm:m.m_comm)
      t
end

module Posted = struct
  type t = posted Util.Deque.t

  let create () = Util.Deque.create ~capacity:4 ()
  let length = Util.Deque.length
  let add = Util.Deque.push_back
  let take t ~src ~tag ~comm = Util.Deque.remove_first (accepts ~src ~tag ~comm) t
  let mem t ~src ~tag ~comm = Util.Deque.exists (accepts ~src ~tag ~comm) t
end
