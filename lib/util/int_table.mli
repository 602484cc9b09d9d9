(** Hash table on [int] keys, hashed by identity instead of the generic
    [Hashtbl.hash].  [find] raises [Not_found] without allocating, so a
    hot-path lookup costs no [Some]. *)

include Hashtbl.S with type key = int
