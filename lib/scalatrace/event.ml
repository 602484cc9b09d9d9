type peer =
  | P_none
  | P_abs of int
  | P_rel of int
  | P_any
  | P_map of (int * int) list

type kind =
  | E_send
  | E_isend
  | E_recv
  | E_irecv
  | E_wait
  | E_waitall of int
  | E_barrier
  | E_bcast
  | E_reduce
  | E_allreduce
  | E_gather
  | E_gatherv
  | E_allgather
  | E_allgatherv
  | E_scatter
  | E_scatterv
  | E_alltoall
  | E_alltoallv
  | E_reduce_scatter
  | E_neighbor_alltoall
  | E_neighbor_allgather
  | E_comm_split
  | E_comm_dup
  | E_finalize

type t = {
  site : Util.Callsite.t;
  kind : kind;
  mutable peer : peer;
  bytes : int;
  vec : int array option;
  tag : int;
  comm : int;
  parts : int array option;
  dtime : Util.Histogram.t;
  mutable ranks : Util.Rank_set.t;
  mutable hcache : int; (* 0 = not yet computed; see [hash] *)
}

let is_collective = function
  | E_barrier | E_bcast | E_reduce | E_allreduce | E_gather | E_gatherv
  | E_allgather | E_allgatherv | E_scatter | E_scatterv | E_alltoall
  | E_alltoallv | E_reduce_scatter | E_neighbor_alltoall | E_neighbor_allgather
  | E_comm_split | E_comm_dup | E_finalize ->
      true
  | E_send | E_isend | E_recv | E_irecv | E_wait | E_waitall _ -> false

let is_p2p = function
  | E_send | E_isend | E_recv | E_irecv -> true
  | _ -> false

let kind_name = function
  | E_send -> "MPI_Send"
  | E_isend -> "MPI_Isend"
  | E_recv -> "MPI_Recv"
  | E_irecv -> "MPI_Irecv"
  | E_wait -> "MPI_Wait"
  | E_waitall _ -> "MPI_Waitall"
  | E_barrier -> "MPI_Barrier"
  | E_bcast -> "MPI_Bcast"
  | E_reduce -> "MPI_Reduce"
  | E_allreduce -> "MPI_Allreduce"
  | E_gather -> "MPI_Gather"
  | E_gatherv -> "MPI_Gatherv"
  | E_allgather -> "MPI_Allgather"
  | E_allgatherv -> "MPI_Allgatherv"
  | E_scatter -> "MPI_Scatter"
  | E_scatterv -> "MPI_Scatterv"
  | E_alltoall -> "MPI_Alltoall"
  | E_alltoallv -> "MPI_Alltoallv"
  | E_reduce_scatter -> "MPI_Reduce_scatter"
  | E_neighbor_alltoall -> "MPI_Neighbor_alltoall"
  | E_neighbor_allgather -> "MPI_Neighbor_allgather"
  | E_comm_split -> "MPI_Comm_split"
  | E_comm_dup -> "MPI_Comm_dup"
  | E_finalize -> "MPI_Finalize"

let sum = Array.fold_left ( + ) 0

(* [of_call] runs once per recorded MPI call, so it and the helpers below
   are top-level functions: a local closure would be allocated on every
   call. *)

(* [Float.max 0. gap] without boxing its result; a NaN gap still reaches
   [Histogram.add], which rejects it. *)
let clamp_gap gap = if gap > 0. then gap else if gap <= 0. then 0. else gap

let event ~ranks ~time_gap (call : Mpisim.Call.t) kind peer ~bytes ~tag ~vec
    ~parts =
  let dtime = Util.Histogram.create () in
  Util.Histogram.add dtime (clamp_gap time_gap);
  { site = call.site; kind; peer; bytes; vec; tag;
    comm = Mpisim.Comm.id call.comm; parts; dtime; ranks; hcache = 0 }

(* an event without count vector or declared participant set *)
let plain ~ranks ~time_gap call kind peer ~bytes ~tag =
  event ~ranks ~time_gap call kind peer ~bytes ~tag ~vec:None ~parts:None

let rec same_counts (a : int array) b i =
  i < 0 || (a.(i) = b.(i) && same_counts a b (i - 1))

(* A v-collective.  The application may overwrite its count array after
   the call, so the event keeps a copy, unless the rank's previous copy
   [last_vec] is equal: counts repeat from one call to the next, and a
   copy of a 1024-entry row goes straight to the major heap. *)
let v_collective ~ranks ~last_vec ~time_gap call kind peer counts =
  let n = Array.length counts in
  let vec =
    if n = Array.length last_vec && same_counts counts last_vec (n - 1) then
      last_vec
    else Array.copy counts
  in
  event ~ranks ~time_gap call kind peer ~bytes:(sum counts) ~tag:0
    ~vec:(Some vec) ~parts:None

let abs_peer comm r = P_abs (Mpisim.Comm.world_of_local comm r)

let src_peer comm = function
  | Mpisim.Call.Any_source -> P_any
  | Rank r -> abs_peer comm r

let recv_tag = function Mpisim.Call.Any_tag -> -1 | Tag t -> t

(* Position of communicator-local rank [l] in a declared participant set
   ([[||]] = the whole communicator, where positions are local ranks). *)
let pos_in parts l =
  if Array.length parts = 0 then l
  else
    let rec find i = if parts.(i) = l then i else find (i + 1) in
    find 0

(* A neighborhood collective.  Neighbor offsets are positions in the
   declared participant set: offset o from participant i reaches
   participant (i + o) mod q.  A rank-relative stencil therefore produces
   the same [vec] on every rank, which is what lets RSD merging keep it
   exact. *)
let neighbor ~ranks ~world_rank ~time_gap (call : Mpisim.Call.t) kind ~bytes
    ~parts ~neighbors =
  let comm = call.comm in
  let q =
    if Array.length parts = 0 then Mpisim.Comm.size comm else Array.length parts
  in
  let me =
    match Mpisim.Comm.local_of_world comm world_rank with
    | Some l -> pos_in parts l
    | None -> 0
  in
  let offsets = Array.make (Array.length neighbors) 0 in
  for i = 0 to Array.length neighbors - 1 do
    offsets.(i) <- (pos_in parts neighbors.(i) - me + q) mod q
  done;
  Array.sort Int.compare offsets;
  let parts =
    if Array.length parts = 0 then None
    else Some (Array.map (Mpisim.Comm.world_of_local comm) parts)
  in
  event ~ranks ~time_gap call kind P_none ~bytes ~tag:(Array.length neighbors)
    ~vec:(Some offsets) ~parts

let of_call ~ranks ~last_vec ~world_rank ~time_gap (call : Mpisim.Call.t) =
  let comm = call.comm in
  match call.op with
  | Compute _ | Wtime -> None
  | Send { dst; bytes; tag } ->
      Some (plain ~ranks ~time_gap call E_send (abs_peer comm dst) ~bytes ~tag)
  | Isend { dst; bytes; tag } ->
      Some (plain ~ranks ~time_gap call E_isend (abs_peer comm dst) ~bytes ~tag)
  | Recv { src; bytes; tag } ->
      Some
        (plain ~ranks ~time_gap call E_recv (src_peer comm src) ~bytes
           ~tag:(recv_tag tag))
  | Irecv { src; bytes; tag } ->
      Some
        (plain ~ranks ~time_gap call E_irecv (src_peer comm src) ~bytes
           ~tag:(recv_tag tag))
  | Wait _ -> Some (plain ~ranks ~time_gap call E_wait P_none ~bytes:0 ~tag:0)
  | Waitall reqs ->
      Some
        (plain ~ranks ~time_gap call (E_waitall (List.length reqs)) P_none
           ~bytes:0 ~tag:0)
  | Barrier -> Some (plain ~ranks ~time_gap call E_barrier P_none ~bytes:0 ~tag:0)
  | Bcast { root; bytes } ->
      Some (plain ~ranks ~time_gap call E_bcast (abs_peer comm root) ~bytes ~tag:0)
  | Reduce { root; bytes } ->
      Some (plain ~ranks ~time_gap call E_reduce (abs_peer comm root) ~bytes ~tag:0)
  | Allreduce { bytes } ->
      Some (plain ~ranks ~time_gap call E_allreduce P_none ~bytes ~tag:0)
  | Gather { root; bytes_per_rank } ->
      Some
        (plain ~ranks ~time_gap call E_gather (abs_peer comm root)
           ~bytes:bytes_per_rank ~tag:0)
  | Gatherv { root; bytes_from } ->
      Some
        (v_collective ~ranks ~last_vec ~time_gap call E_gatherv (abs_peer comm root)
           bytes_from)
  | Allgather { bytes_per_rank } ->
      Some
        (plain ~ranks ~time_gap call E_allgather P_none ~bytes:bytes_per_rank
           ~tag:0)
  | Allgatherv { bytes_from } ->
      Some (v_collective ~ranks ~last_vec ~time_gap call E_allgatherv P_none bytes_from)
  | Scatter { root; bytes_per_rank } ->
      Some
        (plain ~ranks ~time_gap call E_scatter (abs_peer comm root)
           ~bytes:bytes_per_rank ~tag:0)
  | Scatterv { root; bytes_to } ->
      Some
        (v_collective ~ranks ~last_vec ~time_gap call E_scatterv (abs_peer comm root)
           bytes_to)
  | Alltoall { bytes_per_pair } ->
      Some
        (plain ~ranks ~time_gap call E_alltoall P_none ~bytes:bytes_per_pair
           ~tag:0)
  | Alltoallv { bytes_to } ->
      Some (v_collective ~ranks ~last_vec ~time_gap call E_alltoallv P_none bytes_to)
  | Reduce_scatter { bytes_per_rank } ->
      Some
        (v_collective ~ranks ~last_vec ~time_gap call E_reduce_scatter P_none
           bytes_per_rank)
  | Neighbor_alltoall { parts; neighbors; bytes_per_neighbor } ->
      Some
        (neighbor ~ranks ~world_rank ~time_gap call E_neighbor_alltoall
           ~bytes:bytes_per_neighbor ~parts ~neighbors)
  | Neighbor_allgather { parts; neighbors; bytes } ->
      Some
        (neighbor ~ranks ~world_rank ~time_gap call E_neighbor_allgather ~bytes
           ~parts ~neighbors)
  | Comm_split { color; key } ->
      (* color/key preserved as a per-rank map entry so splits replay *)
      Some
        (plain ~ranks ~time_gap call E_comm_split
           (P_map [ (world_rank, color) ])
           ~bytes:key ~tag:0)
  | Comm_dup -> Some (plain ~ranks ~time_gap call E_comm_dup P_none ~bytes:0 ~tag:0)
  | Finalize -> Some (plain ~ranks ~time_gap call E_finalize P_none ~bytes:0 ~tag:0)

let same_vec a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y ->
      x == y
      || Array.length x = Array.length y && same_counts x y (Array.length x - 1)
  | _ -> false

let same_parts = same_vec

(* Constant constructors are immediates, so [==] compares them exactly. *)
let kind_equal a b =
  match (a, b) with
  | E_waitall n, E_waitall m -> n = m
  | E_waitall _, _ | _, E_waitall _ -> false
  | _ -> a == b

let peer_equal a b =
  match (a, b) with
  | P_none, P_none | P_any, P_any -> true
  | P_abs x, P_abs y | P_rel x, P_rel y -> x = y
  | P_map m, P_map n ->
      m == n || List.equal (fun (r, p) (r', p') -> r = r' && p = p') m n
  | (P_none | P_any | P_abs _ | P_rel _ | P_map _), _ -> false

(* Wildcardness must survive merging, so P_any only merges with P_any. *)
let peer_class = function
  | P_any -> 1
  | P_none -> 2
  | P_abs _ | P_rel _ | P_map _ -> 3

let kind_hash = function E_waitall n -> 64 + n | k -> Hashtbl.hash k

(* Structural hash over exactly the fields [mergeable] compares.  Those
   fields are immutable (peer_class is stable under [absorb]/[generalize]:
   both preserve a concrete peer), so the hash is computed once and
   cached.  [mergeable a b] implies [hash a = hash b].  The field hashes
   are mixed arithmetically, then scrambled by [Hashtbl.hash] on the
   resulting int: hashing a tuple of them would allocate it. *)
let mix h x = (h * 1_000_003) + x

let hash e =
  if e.hcache <> 0 then e.hcache
  else begin
    let h = mix (Util.Callsite.hash e.site) (kind_hash e.kind) in
    let h = mix (mix (mix h e.bytes) e.tag) e.comm in
    let h = mix (mix h (Hashtbl.hash e.vec)) (Hashtbl.hash e.parts) in
    let h = Hashtbl.hash (mix h (peer_class e.peer)) in
    let h = if h = 0 then 1 else h in
    e.hcache <- h;
    h
  end

let mergeable a b =
  hash a = hash b
  && Util.Callsite.equal a.site b.site
  && kind_equal a.kind b.kind
  && a.bytes = b.bytes && a.tag = b.tag && a.comm = b.comm
  && same_vec a.vec b.vec
  && same_parts a.parts b.parts
  && peer_class a.peer = peer_class b.peer

(* Expand a generalized peer back to explicit (rank, peer) observations. *)
let observations e ~nranks =
  match e.peer with
  | P_none | P_any -> []
  | P_abs a -> Util.Rank_set.fold (fun r acc -> (r, a) :: acc) e.ranks []
  | P_rel d ->
      Util.Rank_set.fold (fun r acc -> (r, (r + d + nranks) mod nranks) :: acc) e.ranks []
  | P_map m -> m

let absorb ~nranks ~into e =
  Util.Histogram.merge_into into.dtime e.dtime;
  (* Peer combination: an identical generalized form covers the union of
     both rank sets unchanged; anything else falls back to an explicit
     per-rank map (re-simplified later by [generalize]).  The map is
     accumulated unsorted: absorbed events cover disjoint rank sets, so
     observations are unique by rank, and re-sorting the growing map on
     every absorb would make merging a p-rank trace O(p^2 log p) per RSD.
     [generalize] normalizes once at the end. *)
  (match (into.peer, e.peer) with
  | pa, pb when peer_equal pa pb -> ()
  | _ ->
      let merged = observations e ~nranks @ observations into ~nranks in
      into.peer <- (if merged = [] then into.peer else P_map merged));
  into.ranks <- Util.Rank_set.union into.ranks e.ranks

let generalize ~nranks e =
  match e.peer with
  | P_none | P_any | P_abs _ | P_rel _ -> ()
  | P_map [] -> ()
  | P_map m0 -> (
      (* normalize the accumulated map (see [absorb]) so the stored form
         is deterministic even when no generalization applies *)
      let m = List.sort_uniq compare m0 in
      e.peer <- P_map m;
      match m with
      | [] -> ()
      | (r0, p0) :: rest ->
          if e.kind = E_comm_split then ()
          else if List.for_all (fun (_, p) -> p = p0) rest then
            e.peer <- P_abs p0
          else begin
            let d0 = (p0 - r0 + nranks) mod nranks in
            if List.for_all (fun (r, p) -> (p - r + nranks) mod nranks = d0) m
            then e.peer <- P_rel d0
          end)

let peer_of e ~rank ~nranks =
  match e.peer with
  | P_none | P_any -> None
  | P_abs a -> Some a
  | P_rel d -> Some ((rank + d + nranks) mod nranks)
  | P_map m -> List.assoc_opt rank m

(* [vec], [parts] and the rank set are never mutated, so they are shared. *)
let copy e = { e with dtime = Util.Histogram.copy e.dtime }

let narrow ~ranks ~rank ~nranks e =
  let peer =
    match e.peer with
    | P_map _ | P_rel _ -> (
        match peer_of e ~rank ~nranks with Some p -> P_abs p | None -> P_none)
    | (P_none | P_any | P_abs _) as p -> p
  in
  { e with peer; ranks; dtime = Util.Histogram.copy e.dtime }

let neighbor_offsets ~p e =
  let traced =
    match e.vec with
    | None -> []
    | Some v ->
        Array.to_list v
        |> List.map (fun o -> ((o mod p) + p) mod p)
        |> List.filter (fun o -> o <> 0)
        |> List.sort_uniq compare
  in
  match traced with
  | _ :: _ -> Array.of_list traced
  | [] -> Array.init (min (max e.tag 1) (p - 1)) (fun i -> i + 1)

let pp_peer ppf = function
  | P_none -> ()
  | P_abs a -> Format.fprintf ppf " peer=%d" a
  | P_rel d -> Format.fprintf ppf " peer=self%+d" d
  | P_any -> Format.fprintf ppf " peer=ANY"
  | P_map m -> Format.fprintf ppf " peer=map(%d)" (List.length m)

let pp ppf e =
  Format.fprintf ppf "%s%a bytes=%d tag=%d comm=%d ranks=%a dt=%a" (kind_name e.kind)
    pp_peer e.peer e.bytes e.tag e.comm Util.Rank_set.pp e.ranks Util.Histogram.pp
    e.dtime;
  match e.parts with
  | None -> ()
  | Some ps -> Format.fprintf ppf " parts=|%d|" (Array.length ps)
