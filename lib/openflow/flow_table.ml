module Cube = Hspace.Cube
module Hs = Hspace.Hs

type t = {
  arr : Flow_entry.t array; (* lookup order: priority desc, id asc *)
  packed : Cube.packed; (* the match fields of [arr], in the same order *)
}

let order (a : Flow_entry.t) (b : Flow_entry.t) =
  match compare b.priority a.priority with 0 -> compare a.id b.id | c -> c

let of_sorted arr =
  { arr; packed = Cube.pack (Array.map (fun (e : Flow_entry.t) -> e.match_) arr) }

let empty = of_sorted [||]

let of_entries es =
  let arr = Array.of_list es in
  Array.stable_sort order arr;
  of_sorted arr

let entries t = Array.to_list t.arr

let fold f acc t = Array.fold_left f acc t.arr

let size t = Array.length t.arr

(* [e] goes before the first entry it does not follow. *)
let add t e =
  let n = Array.length t.arr in
  let rec slot i = if i < n && order e t.arr.(i) > 0 then slot (i + 1) else i in
  let i = slot 0 in
  of_sorted
    (Array.init (n + 1) (fun j ->
         if j < i then t.arr.(j) else if j = i then e else t.arr.(j - 1)))

let remove t id =
  of_sorted (Array.of_list (List.filter (fun (e : Flow_entry.t) -> e.id <> id) (entries t)))

let lookup t (header : Hspace.Header.t) =
  match Cube.first_superset t.packed (header :> Cube.t) with
  | -1 -> None
  | i -> Some t.arr.(i)

let precedes (a : Flow_entry.t) (b : Flow_entry.t) = order a b < 0

(* The entries preceding [r] are a prefix of the lookup order. *)
let higher_priority_overlaps t (r : Flow_entry.t) =
  let n = Array.length t.arr in
  let rec prefix i = if i < n && precedes t.arr.(i) r then prefix (i + 1) else i in
  let acc = ref [] in
  for i = prefix 0 - 1 downto 0 do
    let q = t.arr.(i) in
    if q.id <> r.id && not (Cube.disjoint q.match_ r.match_) then acc := q :: !acc
  done;
  !acc

let input_space t (r : Flow_entry.t) =
  let len = Flow_entry.header_length r in
  List.fold_left
    (fun acc (q : Flow_entry.t) -> Hs.diff_cube acc q.match_)
    (Hs.of_cubes len [ r.match_ ])
    (higher_priority_overlaps t r)

let output_space t (r : Flow_entry.t) =
  Hs.apply_set_field ~set:r.set_field (input_space t r)
