type t = {
  id : int;
  members : int array; (* local rank -> world rank *)
  inverse : int Util.Int_table.t option;
      (* world rank -> local rank; [None] when every local rank is its own
         world rank (the world communicator, or a duplicate of it), where
         the translation is a bounds check *)
}

let id t = t.id
let size t = Array.length t.members

let make ~id ~members =
  let n = Array.length members in
  let identity =
    let rec go i = i >= n || (members.(i) = i && go (i + 1)) in
    go 0
  in
  let inverse =
    if identity then None
    else begin
      let inv = Util.Int_table.create n in
      Array.iteri
        (fun local world ->
          if Util.Int_table.mem inv world then
            invalid_arg "Comm.make: duplicate member rank";
          Util.Int_table.add inv world local)
        members;
      Some inv
    end
  in
  { id; members = Array.copy members; inverse }

let world n = make ~id:0 ~members:(Array.init n (fun i -> i))

let world_of_local t r =
  if r < 0 || r >= Array.length t.members then
    invalid_arg
      (Printf.sprintf "Comm.world_of_local: rank %d outside communicator %d (size %d)"
         r t.id (Array.length t.members));
  t.members.(r)

let local_of_world_exn t w =
  match t.inverse with
  | None -> if w >= 0 && w < Array.length t.members then w else raise Not_found
  | Some inv -> Util.Int_table.find inv w

let local_of_world t w =
  match local_of_world_exn t w with l -> Some l | exception Not_found -> None

let is_member t ~world =
  match t.inverse with
  | None -> world >= 0 && world < Array.length t.members
  | Some inv -> Util.Int_table.mem inv world

let members t = Array.copy t.members

let pp ppf t =
  Format.fprintf ppf "comm%d(size=%d)" t.id (Array.length t.members)
