(* Keys are hashed by identity: the engine's keys (request ids, slots,
   world ranks) are small distinct ints, and [Hashtbl.hash] would cost a
   call into the runtime's generic hash per lookup. *)
include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash a = a land max_int
end)
