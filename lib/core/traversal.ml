open Scalatrace

type frame = { todo : Tnode.t list; restart : (int * Tnode.t list) option }

type cursor = { frames : frame list; seen : int }

let start nodes = { frames = [ { todo = nodes; restart = None } ]; seen = 0 }

let rec peek c =
  match c.frames with
  | [] -> None
  | { todo = []; restart = Some (k, body) } :: outer when k > 0 ->
      peek
        { c with frames = { todo = body; restart = Some (k - 1, body) } :: outer }
  | { todo = []; _ } :: outer -> peek { c with frames = outer }
  | { todo = Tnode.Leaf e :: rest; restart } :: outer ->
      Some (e, { frames = { todo = rest; restart } :: outer; seen = c.seen + 1 })
  | { todo = Tnode.Loop { count; body; _ } :: rest; restart } :: outer ->
      if count <= 0 then peek { c with frames = { todo = rest; restart } :: outer }
      else
        peek
          {
            c with
            frames =
              { todo = body; restart = Some (count - 1, body) }
              :: { todo = rest; restart }
              :: outer;
          }

let consumed c = c.seen

(* ------------------------------------------------------------------ *)

(* Runnable ranks in a binary min-heap on (operations consumed, rank): the
   scheduler's least-progressed-first order.  A rank is in the heap at
   most once, so [nranks] slots suffice; operations allocate nothing,
   which keeps the traversal from promoting garbage into the major heap. *)
module Runnable = struct
  type t = { consumed : int array; rank : int array; mutable size : int }

  let create n = { consumed = Array.make n 0; rank = Array.make n 0; size = 0 }

  let less t i j =
    t.consumed.(i) < t.consumed.(j)
    || (t.consumed.(i) = t.consumed.(j) && t.rank.(i) < t.rank.(j))

  let swap t i j =
    let c = t.consumed.(i) and r = t.rank.(i) in
    t.consumed.(i) <- t.consumed.(j);
    t.rank.(i) <- t.rank.(j);
    t.consumed.(j) <- c;
    t.rank.(j) <- r

  let rec sift_up t i =
    let parent = (i - 1) / 2 in
    if i > 0 && less t i parent then begin
      swap t i parent;
      sift_up t parent
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = if l < t.size && less t l i then l else i in
    let m = if r < t.size && less t r m then r else m in
    if m <> i then begin
      swap t i m;
      sift_down t m
    end

  let push t ~consumed ~rank =
    let i = t.size in
    t.consumed.(i) <- consumed;
    t.rank.(i) <- rank;
    t.size <- i + 1;
    sift_up t i

  (* The least (consumed, rank) entry's rank, or -1 when empty. *)
  let pop t =
    if t.size = 0 then -1
    else begin
      let top = t.rank.(0) in
      t.size <- t.size - 1;
      swap t 0 t.size;
      sift_down t 0;
      top
    end
end

(* Collective-wait state is indexed so the hot per-arrival operations are
   sublinear in the communicator size: arrivals are marked in a bool array
   over the sorted member list, and completion is an O(1) counter compare,
   not [List.length] vs [cardinal]. *)
type collective = {
  comm : int;
  slot : int;
  members : Util.Rank_set.t;
  member_arr : int array; (* members, ascending *)
  arrived : bool array; (* by [member_arr] position *)
  mutable n_arrived : int;
  mutable arrivals : (int * Event.t) list;
}

type walk = {
  fail : string -> exn;
  comms : (int * Util.Rank_set.t) list;
  cursors : cursor array;
  after : cursor array; (* past the event a parked rank waits at *)
  finished : bool array;
  slots : (int * int array, int) Hashtbl.t array;
      (* per rank: (comm, participant key) -> next slot *)
  waits : (int * int array * int, collective) Hashtbl.t;
      (* instances some member has reached and not all *)
  runnable : Runnable.t;
}

let walk ~fail trace =
  let nranks = Trace.nranks trace in
  let cursors = Array.map start (Trace.projections trace) in
  let runnable = Runnable.create nranks in
  for rank = 0 to nranks - 1 do
    Runnable.push runnable ~consumed:0 ~rank
  done;
  {
    fail;
    comms = Trace.comms trace;
    cursors;
    after = Array.copy cursors;
    finished = Array.make nranks false;
    slots = Array.init nranks (fun _ -> Hashtbl.create 8);
    waits = Hashtbl.create 64;
    runnable;
  }

let failf w fmt = Printf.ksprintf (fun s -> raise (w.fail s)) fmt

(* Position of [r] in [c.member_arr], or [None] for a non-member. *)
let member_pos c r =
  let arr = c.member_arr in
  let rec go lo hi =
    if lo > hi then None
    else
      let mid = (lo + hi) / 2 in
      if arr.(mid) = r then Some mid
      else if arr.(mid) < r then go (mid + 1) hi
      else go lo (mid - 1)
  in
  go 0 (Array.length arr - 1)

(* A collective's participant key is its declared participant set, or
   [[||]] for the whole communicator: the event's own array, shared by
   every iteration of its RSD, so building it costs nothing.  Waits are
   keyed by (communicator, participant key, slot), so disjoint participant
   groups on one communicator advance independently instead of
   mis-accounting each other's arrival bitmap.  Returns the instance when
   rank [r]'s arrival completes it. *)
let arrive w r (e : Event.t) =
  let parts = match e.parts with None -> [||] | Some ps -> ps in
  let slots = w.slots.(r) in
  let slot = Option.value ~default:0 (Hashtbl.find_opt slots (e.comm, parts)) in
  Hashtbl.replace slots (e.comm, parts) (slot + 1);
  let key = (e.comm, parts, slot) in
  let c =
    match Hashtbl.find_opt w.waits key with
    | Some c -> c
    | None ->
        let members =
          match e.parts with
          | Some ps -> Util.Rank_set.of_list (Array.to_list ps)
          | None -> (
              match List.assoc_opt e.comm w.comms with
              | Some m -> m
              | None -> failf w "unknown communicator %d" e.comm)
        in
        let member_arr = Array.of_list (Util.Rank_set.to_list members) in
        let c =
          { comm = e.comm; slot; members; member_arr;
            arrived = Array.make (Array.length member_arr) false;
            n_arrived = 0; arrivals = [] }
        in
        Hashtbl.replace w.waits key c;
        c
  in
  (match member_pos c r with
  | Some pos ->
      c.arrived.(pos) <- true;
      c.n_arrived <- c.n_arrived + 1
  | None when e.parts <> None ->
      failf w
        "rank %d arrives at %s on communicator %d (slot %d) but is outside the \
         declared participant set {%s}"
        r (Event.kind_name e.kind) e.comm slot
        (String.concat "," (List.map string_of_int (Array.to_list c.member_arr)))
  | None ->
      failf w
        "rank %d reaches a collective on communicator %d (slot %d) but is not a \
         member of that communicator"
        r e.comm slot);
  c.arrivals <- (r, e) :: c.arrivals;
  if c.n_arrived < Array.length c.member_arr then None
  else begin
    Hashtbl.remove w.waits key;
    Some c
  end

let resume w r =
  w.cursors.(r) <- w.after.(r);
  Runnable.push w.runnable ~consumed:w.cursors.(r).seen ~rank:r

let run w ~step ~complete =
  (* Advance rank [r] until it parks or finishes. *)
  let rec advance r =
    match peek w.cursors.(r) with
    | None -> w.finished.(r) <- true
    | Some (e, after) ->
        if Event.is_collective e.kind then begin
          match arrive w r e with
          | None -> w.after.(r) <- after
          | Some c ->
              complete c;
              List.iter (fun (r', _) -> if r' <> r then resume w r') c.arrivals;
              w.cursors.(r) <- after;
              advance r
        end
        else if step ~rank:r ~seq:w.cursors.(r).seen e then begin
          w.cursors.(r) <- after;
          advance r
        end
        else w.after.(r) <- after
  in
  let rec schedule () =
    match Runnable.pop w.runnable with
    | -1 -> Array.for_all Fun.id w.finished
    | r ->
        advance r;
        schedule ()
  in
  schedule ()

let finished w r = w.finished.(r)
let pending w = Hashtbl.fold (fun _ c acc -> c :: acc) w.waits []
