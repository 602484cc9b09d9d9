(* The engine's original message-matching queues and matching predicate:
   O(n) list scans in FIFO order, kept verbatim as the oracle
   {!Mpisim.Matchq} is checked against (the [engine] suite's queue-oracle
   property). *)

open Mpisim.Matchq

let msg_matches_posted (m : msg) (p : posted) =
  m.m_comm = p.p_comm
  && (match p.p_src with None -> true | Some s -> s = m.m_src)
  && match p.p_tag with None -> true | Some t -> t = m.m_tag

(* Remove the first element satisfying [pred]; None if absent. *)
let take_first pred lst =
  let rec go acc = function
    | [] -> None
    | x :: rest ->
        if pred x then Some (x, List.rev_append acc rest) else go (x :: acc) rest
  in
  go [] lst

module Unexpected = struct
  type t = msg list ref

  let create () : t = ref []
  let length (l : t) = List.length !l
  let add (l : t) m = l := !l @ [ m ]

  let take (l : t) (p : posted) =
    match take_first (fun m -> msg_matches_posted m p) !l with
    | Some (m, rest) ->
        l := rest;
        Some m
    | None -> None
end

module Posted = struct
  type t = posted list ref

  let create () : t = ref []
  let length (l : t) = List.length !l
  let add (l : t) p = l := !l @ [ p ]

  let take (l : t) ~src ~tag ~comm =
    let matches (p : posted) =
      msg_matches_posted
        {
          m_src = src; m_dst = -1; m_tag = tag; m_bytes = 0; m_comm = comm;
          m_protocol = Eager; m_send_req = -1;
          m_reserved = false;
        }
        p
    in
    match take_first matches !l with
    | Some (p, rest) ->
        l := rest;
        Some p
    | None -> None

  let mem (l : t) ~src ~tag ~comm =
    List.exists
      (fun (p : posted) ->
        p.p_comm = comm
        && (match p.p_src with None -> true | Some s -> s = src)
        && match p.p_tag with None -> true | Some t' -> t' = tag)
      !l
end
