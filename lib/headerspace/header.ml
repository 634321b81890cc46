type t = Cube.t

let of_cube c =
  if not (Cube.is_concrete c) then invalid_arg "Header.of_cube: cube has wildcards";
  c

let of_string s = of_cube (Cube.of_string s)

let to_string = Cube.to_string

let length = Cube.length

let equal = Cube.equal

let compare = Cube.compare

let get h k = match Cube.get h k with
  | Cube.One -> true
  | Cube.Zero -> false
  | Cube.Any -> assert false

(* A header is concrete by construction, so [Cube.member]'s check
   would only re-prove it. *)
let matches h m = Cube.subset h m

let apply_set_field ~set h = Cube.apply_set_field ~set h

let sample rng c = Cube.sample rng c

let pp = Cube.pp
