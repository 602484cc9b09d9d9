let near_square p =
  let rec best d acc =
    if d * d > p then acc else best (d + 1) (if p mod d = 0 then d else acc)
  in
  let px = best 1 1 in
  (px, p / px)

let factor3 p =
  (* largest divisor <= cube root, then near_square of the rest *)
  let rec best d acc =
    if d * d * d > p then acc else best (d + 1) (if p mod d = 0 then d else acc)
  in
  let px = best 1 1 in
  let py, pz = near_square (p / px) in
  (px, py, pz)

let is_square p =
  let r = int_of_float (sqrt (float_of_int p) +. 0.5) in
  r * r = p

let is_power_of_two p = p > 0 && p land (p - 1) = 0

let coords2 ~px rank = (rank mod px, rank / px)
let rank2 ~px ~x ~y = (y * px) + x

let neighbor2 ~px ~py ~rank ~dx ~dy =
  let x, y = coords2 ~px rank in
  let x' = x + dx and y' = y + dy in
  if x' < 0 || x' >= px || y' < 0 || y' >= py then None
  else Some (rank2 ~px ~x:x' ~y:y')

let coords3 ~px ~py rank =
  let x = rank mod px in
  let y = rank / px mod py in
  let z = rank / (px * py) in
  (x, y, z)

let rank3 ~px ~py ~x ~y ~z = (z * px * py) + (y * px) + x

let neighbor3_periodic ~px ~py ~pz ~rank ~dx ~dy ~dz =
  let x, y, z = coords3 ~px ~py rank in
  let wrap v n = ((v mod n) + n) mod n in
  rank3 ~px ~py ~x:(wrap (x + dx) px) ~y:(wrap (y + dy) py) ~z:(wrap (z + dz) pz)
