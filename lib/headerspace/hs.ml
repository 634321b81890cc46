type t = { len : int; cubes : Cube.t list }

(* Drop cubes subsumed by another cube in the list. Quadratic, and not
   rare: a 50-switch plan plus a verifier check makes about 116k calls
   over 1.1M cubes. Keeps first-insertion order (first_member and sample
   depend on it).

   Every [t]'s list is a fixed point of [subsume]: no duplicate, no
   cube inside another, and a sublist of a fixed point is one too. So
   [union] needs only the checks across its operands, and [diff_cube]
   may return [t] or a sublist of it: each is exactly the list a full
   [subsume] pass would make. *)
let subsume cubes =
  let rec loop kept = function
    | [] -> List.rev kept
    | c :: rest ->
        let subsumed l = List.exists (fun d -> Cube.subset c d) l in
        if subsumed kept || subsumed rest then loop kept rest
        else loop (c :: kept) rest
  in
  loop [] cubes

let empty len = { len; cubes = [] }

let full len = { len; cubes = [ Cube.wildcard len ] }

let of_cube c = { len = Cube.length c; cubes = [ c ] }

let of_cubes len cubes =
  List.iter
    (fun c ->
      if Cube.length c <> len then invalid_arg "Hs.of_cubes: length mismatch")
    cubes;
  { len; cubes = subsume cubes }

let cubes t = t.cubes

let length t = t.len

let cube_count t = List.length t.cubes

let is_empty t = t.cubes = []

let mem header t = List.exists (fun c -> Cube.member ~header c) t.cubes

let check a b name = if a.len <> b.len then invalid_arg (name ^ ": length mismatch")

(* [subsume (a.cubes @ b.cubes)] with only the cross-operand checks:
   a cube of [a] goes when a cube of [b] covers it, a cube of [b] when
   a surviving cube of [a] does. An empty operand returns the other
   one, shared. *)
let union a b =
  check a b "Hs.union";
  match (a.cubes, b.cubes) with
  | [], _ -> b
  | _, [] -> a
  | cas, cbs ->
      let kept_a = List.filter (fun c -> not (List.exists (Cube.subset c) cbs)) cas in
      let kept_b = List.filter (fun d -> not (List.exists (Cube.subset d) kept_a)) cbs in
      { len = a.len; cubes = kept_a @ kept_b }

let inter_cube t c =
  { len = t.len; cubes = subsume (List.filter_map (fun d -> Cube.inter d c) t.cubes) }

let inter a b =
  check a b "Hs.inter";
  match (a.cubes, b.cubes) with
  | [ ca ], [ cb ] -> { len = a.len; cubes = Option.to_list (Cube.inter ca cb) }
  | cas, cbs ->
      let pieces = List.concat_map (fun ca -> List.filter_map (Cube.inter ca) cbs) cas in
      { len = a.len; cubes = subsume pieces }

(* Emptiness of an intersection without building it: the edge scans of
   the rule-graph build only ask whether out ∩ in is inhabited, and
   [inter] would allocate every piece plus a quadratic subsumption pass
   just to have the list thrown away. Subsumption never changes
   emptiness, so one non-disjoint cube pair settles the question — and
   [Cube.disjoint] is allocation-free, which makes the whole scan
   allocation-free (the planned cube arena for this path became
   unnecessary: nothing is allocated at all). *)
let inter_nonempty a b =
  check a b "Hs.inter_nonempty";
  List.exists
    (fun ca -> List.exists (fun cb -> not (Cube.disjoint ca cb)) b.cubes)
    a.cubes

(* [c] misses every cube of the list / cuts no cube it meets in two. *)
let rec misses c = function [] -> true | d :: rest -> Cube.disjoint d c && misses c rest

let rec swallows c = function
  | [] -> true
  | d :: rest -> (Cube.disjoint d c || Cube.subset d c) && swallows c rest

(* A match disjoint from the whole space (most of a leak fold's calls)
   returns the space itself; one that only swallows whole cubes, the
   sublist outside it. Either list is what [subsume] would make of the
   pieces. *)
let diff_cube t c =
  if misses c t.cubes then t
  else if swallows c t.cubes then
    { t with cubes = List.filter (fun d -> not (Cube.subset d c)) t.cubes }
  else { len = t.len; cubes = subsume (List.concat_map (fun d -> Cube.diff d c) t.cubes) }

let diff a b =
  check a b "Hs.diff";
  List.fold_left diff_cube a b.cubes

(* Identity rewrites map every (interned) cube to itself; the list was
   already subsumption-reduced at construction, so skip re-reducing. *)
let apply_set_field ~set t =
  let mapped = List.map (Cube.apply_set_field ~set) t.cubes in
  if List.for_all2 ( == ) mapped t.cubes then t
  else { len = t.len; cubes = subsume mapped }

let inverse_set_field ~set t =
  let mapped = List.filter_map (Cube.inverse_set_field ~set) t.cubes in
  if List.length mapped = List.length t.cubes && List.for_all2 ( == ) mapped t.cubes
  then t
  else { len = t.len; cubes = subsume mapped }

(* What the cubes of [b] leave of [ca]: only those meeting [ca] cut,
   and the pieces stay pairwise disjoint, so no [subsume] is needed. *)
let rec covered_by ca pieces bs =
  match (pieces, bs) with
  | [], _ -> true
  | _, [] -> false
  | _, cb :: rest ->
      if Cube.disjoint ca cb then covered_by ca pieces rest
      else covered_by ca (List.concat_map (fun p -> Cube.diff p cb) pieces) rest

let is_subset a b =
  a == b
  || begin
       check a b "Hs.is_subset";
       List.for_all
         (fun ca -> List.exists (Cube.subset ca) b.cubes || covered_by ca [ ca ] b.cubes)
         a.cubes
     end

let equal_sets a b = a == b || (is_subset a b && is_subset b a)

(* Canonicalizing reduction. The operations above keep insertion order
   (cheap, and {!first_member}/{!sample} are defined on it); [reduce]
   instead produces a stable representation: cubes in {!Cube.compare}
   order, duplicates collapsed — an O(n log n) sort, with interning
   making the duplicate check physical — and subsumed cubes dropped.
   Idempotent, insensitive to the input's cube order, and preserves
   {!equal_sets}; meant for dedup keys, memo tables and goldens. *)
let reduce t = { t with cubes = subsume (List.sort_uniq Cube.compare t.cubes) }

(* Disjoint decomposition: subtract earlier cubes from later ones so
   sizes add up exactly. *)
let disjoint_cubes t =
  let rec loop seen acc = function
    | [] -> acc
    | c :: rest ->
        let pieces =
          List.fold_left (fun ps s -> List.concat_map (fun p -> Cube.diff p s) ps) [ c ] seen
        in
        loop (c :: seen) (List.rev_append pieces acc) rest
  in
  loop [] [] t.cubes

let size t = List.fold_left (fun acc c -> acc +. Cube.size c) 0. (disjoint_cubes t)

let sample rng t =
  match disjoint_cubes t with
  | [] -> None
  | pieces ->
      let total = List.fold_left (fun acc c -> acc +. Cube.size c) 0. pieces in
      let x = Sdn_util.Prng.float rng total in
      let rec pick acc = function
        | [] -> assert false
        | [ c ] -> c
        | c :: rest ->
            let acc = acc +. Cube.size c in
            if x < acc then c else pick acc rest
      in
      Some (Cube.sample rng (pick 0. pieces))

let first_member t =
  match t.cubes with [] -> None | c :: _ -> Some (Cube.first_member c)

let hull t =
  match t.cubes with
  | [] -> None
  | c :: rest -> Some (List.fold_left Cube.hull c rest)

let pp fmt t =
  match t.cubes with
  | [] -> Format.fprintf fmt "{}"
  | cs ->
      Format.fprintf fmt "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun f () -> Format.pp_print_string f " u ")
           Cube.pp)
        cs
