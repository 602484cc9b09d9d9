type protocol = Eager | Rendezvous

type msg = {
  m_src : int;
  m_dst : int;
  m_tag : int;
  m_bytes : int;
  m_comm : int;
  m_protocol : protocol;
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
   handful of entries when it is searched, so the scan stops early.  The
   scans are loops over the deque, so a search allocates no closure. *)

module Unexpected = struct
  type t = msg Util.Deque.t

  let create () = Util.Deque.create ~capacity:4 ()
  let length = Util.Deque.length
  let add = Util.Deque.push_back

  let take t p =
    let n = Util.Deque.length t and i = ref 0 and found = ref (-1) in
    while !found < 0 && !i < n do
      let m = Util.Deque.get t !i in
      if accepts p ~src:m.m_src ~tag:m.m_tag ~comm:m.m_comm then found := !i
      else incr i
    done;
    if !found < 0 then None else Some (Util.Deque.remove_at t !found)
end

module Posted = struct
  type t = posted Util.Deque.t

  let create () = Util.Deque.create ~capacity:4 ()
  let length = Util.Deque.length
  let add = Util.Deque.push_back

  (* position of the earliest-posted receive accepting the message, or -1 *)
  let find t ~src ~tag ~comm =
    let n = Util.Deque.length t and i = ref 0 and found = ref (-1) in
    while !found < 0 && !i < n do
      if accepts (Util.Deque.get t !i) ~src ~tag ~comm then found := !i
      else incr i
    done;
    !found

  let take t ~src ~tag ~comm =
    let i = find t ~src ~tag ~comm in
    if i < 0 then None else Some (Util.Deque.remove_at t i)

  let mem t ~src ~tag ~comm = find t ~src ~tag ~comm >= 0
end
