(* Unit and property tests for the header-space algebra. *)

module Cube = Hspace.Cube
module Hs = Hspace.Hs
module Header = Hspace.Header
module Prng = Sdn_util.Prng

let cube = Alcotest.testable Cube.pp Cube.equal

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Cube unit tests *)

let test_string_roundtrip () =
  let s = "0010xx1x" in
  check_string "roundtrip" s (Cube.to_string (Cube.of_string s));
  let long = String.concat "" (List.init 20 (fun i -> if i mod 3 = 0 then "x" else "01")) in
  check_string "long roundtrip" long (Cube.to_string (Cube.of_string long))

let test_of_string_invalid () =
  Alcotest.check_raises "bad char" (Invalid_argument "Cube.of_string: bad char 2")
    (fun () -> ignore (Cube.of_string "012"));
  Alcotest.check_raises "empty" (Invalid_argument "Cube.of_string: empty") (fun () ->
      ignore (Cube.of_string ""))

let test_get_set () =
  let c = Cube.of_string "01x" in
  check_bool "get 0" true (Cube.get c 0 = Cube.Zero);
  check_bool "get 1" true (Cube.get c 1 = Cube.One);
  check_bool "get 2" true (Cube.get c 2 = Cube.Any);
  let c' = Cube.set c 2 Cube.One in
  check_string "set" "011" (Cube.to_string c');
  check_string "unchanged" "01x" (Cube.to_string c)

let test_wildcard () =
  let w = Cube.wildcard 70 in
  check_int "length" 70 (Cube.length w);
  check_int "wildcards" 70 (Cube.wildcard_count w);
  check_bool "not concrete" false (Cube.is_concrete w)

let test_inter_basic () =
  let a = Cube.of_string "0010xxxx" and b = Cube.of_string "00x01xxx" in
  (match Cube.inter a b with
  | Some c -> check_string "inter" "00101xxx" (Cube.to_string c)
  | None -> Alcotest.fail "expected Some");
  let d = Cube.of_string "1xxxxxxx" in
  check_bool "disjoint" true (Cube.disjoint a d)

let test_paper_example_intersection () =
  (* §V-B: 00101xxx ∩ 0010xxxx ∩ 00100xxx = ∅ (the illegal MPC path). *)
  let i1 = Cube.inter (Cube.of_string "00101xxx") (Cube.of_string "0010xxxx") in
  (match i1 with
  | Some c -> check_bool "00101 disjoint 00100" true (Cube.disjoint c (Cube.of_string "00100xxx"))
  | None -> Alcotest.fail "expected Some");
  (* §V-A: 0011xxxx ∩ (001xxxxx − 00100xxx) ≠ ∅ — edge (b2, c2). *)
  let c2_in = Hs.diff_cube (Hs.of_cube (Cube.of_string "001xxxxx")) (Cube.of_string "00100xxx") in
  check_bool "b2-c2 edge space" false
    (Hs.is_empty (Hs.inter_cube c2_in (Cube.of_string "0011xxxx")))

let test_subset () =
  check_bool "strict subset" true
    (Cube.subset (Cube.of_string "0010") (Cube.of_string "0x1x"));
  check_bool "not subset" false
    (Cube.subset (Cube.of_string "0x1x") (Cube.of_string "0010"));
  check_bool "reflexive" true (Cube.subset (Cube.of_string "0x1x") (Cube.of_string "0x1x"))

let test_diff_basic () =
  (* x1 - 11 = 01. *)
  let d = Cube.diff (Cube.of_string "x1") (Cube.of_string "11") in
  check_int "one piece" 1 (List.length d);
  Alcotest.check cube "piece" (Cube.of_string "01") (List.hd d);
  (* disjoint: a - b = [a] *)
  let d = Cube.diff (Cube.of_string "00") (Cube.of_string "11") in
  Alcotest.check (Alcotest.list cube) "disjoint" [ Cube.of_string "00" ] d;
  (* subset: a - b = [] *)
  check_bool "swallowed" true
    (List.is_empty (Cube.diff (Cube.of_string "01") (Cube.of_string "0x")))

let test_set_field () =
  (* d1 in Figure 3: T(000xxxxx, 0111xxxx) = 0111xxxx. *)
  let r = Cube.apply_set_field ~set:(Cube.of_string "0111xxxx") (Cube.of_string "000xxxxx") in
  check_string "figure3 d1" "0111xxxx" (Cube.to_string r);
  let id = Cube.wildcard 8 in
  check_string "identity" "000xxxxx"
    (Cube.to_string (Cube.apply_set_field ~set:id (Cube.of_string "000xxxxx")))

let test_inverse_set_field () =
  (* Preimage of 0111xxxx under set 0111xxxx releases the fixed bits. *)
  (match Cube.inverse_set_field ~set:(Cube.of_string "0111xxxx") (Cube.of_string "01111xxx") with
  | Some c -> check_string "released" "xxxx1xxx" (Cube.to_string c)
  | None -> Alcotest.fail "expected Some");
  (* Contradicting target: empty preimage. *)
  check_bool "conflict" true
    (Option.is_none
       (Cube.inverse_set_field ~set:(Cube.of_string "1xxx") (Cube.of_string "0xxx")))

let test_size () =
  Alcotest.(check (float 1e-9)) "full" 256. (Cube.size (Cube.wildcard 8));
  Alcotest.(check (float 1e-9)) "concrete" 1. (Cube.size (Cube.of_string "01010101"))

let test_first_member () =
  let c = Cube.of_string "1x0x" in
  check_string "zeros" "1000" (Cube.to_string (Cube.first_member c));
  check_bool "member" true (Cube.member ~header:(Cube.first_member c) c)

let test_interning () =
  (* Interning is selective: constructor-built cubes are one physical
     object; algebra results ([set], [inter], ...) skip the table (the
     cube.inter/64 fast path) but stay structurally equal, and [equal]
     never depends on identity. *)
  let a = Cube.of_string "0010xx1x" and b = Cube.of_string "0010xx1x" in
  check_bool "of_string interned" true (a == b);
  let c = Cube.set (Cube.of_string "0010xx0x") 6 Cube.One in
  check_bool "set equal" true (Cube.equal a c);
  (match Cube.inter (Cube.of_string "0010xxxx") (Cube.of_string "xxxxxx1x") with
  | Some d ->
      check_bool "inter equal" true (Cube.equal a d);
      check_bool "inter equals set result" true (Cube.equal c d)
  | None -> Alcotest.fail "expected Some");
  check_bool "table non-empty" true (Cube.interned_count () > 0)

let test_hash_long_cubes () =
  (* Regression: hashing used to go through Hashtbl.hash, which stops
     after its meaningful-word budget — cubes differing only in late
     chunks all collided, which the intern table turns into linear
     scans. 64 variants differing only in the last chunk of a 620-bit
     cube must hash apart. *)
  let len = 620 in
  let base = String.init len (fun i -> if i mod 2 = 0 then '0' else '1') in
  let variants =
    List.init 64 (fun i ->
        let b = Bytes.of_string base in
        for j = 0 to 5 do
          if i land (1 lsl j) <> 0 then Bytes.set b (len - 1 - j) 'x'
        done;
        Cube.of_string (Bytes.to_string b))
  in
  let hashes = List.sort_uniq compare (List.map Cube.hash variants) in
  check_int "distinct hashes" 64 (List.length hashes)

(* ------------------------------------------------------------------ *)
(* Hs unit tests *)

let test_hs_union_reduce () =
  let a = Hs.of_cube (Cube.of_string "00xx") in
  let b = Hs.of_cube (Cube.of_string "0011") in
  check_int "subsumed" 1 (Hs.cube_count (Hs.union a b))

let test_hs_diff_inter () =
  let full = Hs.full 4 in
  let a = Hs.diff_cube full (Cube.of_string "1xxx") in
  check_bool "nonempty" false (Hs.is_empty a);
  Alcotest.(check (float 1e-9)) "size 8" 8. (Hs.size a);
  let b = Hs.inter_cube a (Cube.of_string "1xxx") in
  check_bool "empty" true (Hs.is_empty b)

let test_hs_equal_sets () =
  (* {0x} u {x0} = {00, 01, 10} = full - {11} *)
  let lhs = Hs.of_cubes 2 [ Cube.of_string "0x"; Cube.of_string "x0" ] in
  let rhs = Hs.diff_cube (Hs.full 2) (Cube.of_string "11") in
  check_bool "semantic equality" true (Hs.equal_sets lhs rhs);
  check_bool "not equal to full" false (Hs.equal_sets lhs (Hs.full 2))

let test_hs_sample () =
  let rng = Prng.create 42 in
  let hs = Hs.of_cubes 8 [ Cube.of_string "0010xxxx"; Cube.of_string "1111xxxx" ] in
  for _ = 1 to 50 do
    match Hs.sample rng hs with
    | None -> Alcotest.fail "sample from non-empty"
    | Some h ->
        check_bool "concrete" true (Cube.is_concrete h);
        check_bool "member" true (Hs.mem h hs)
  done;
  check_bool "empty sample" true (Option.is_none (Hs.sample rng (Hs.empty 8)))

let test_hs_size_overlapping () =
  (* |{00xx} ∪ {0x1x}| = 4 + 4 - 2 = 6, exact despite the overlap. *)
  let hs = Hs.of_cubes 4 [ Cube.of_string "00xx"; Cube.of_string "0x1x" ] in
  Alcotest.(check (float 1e-9)) "size" 6. (Hs.size hs)

(* ------------------------------------------------------------------ *)
(* Property tests *)

let len = 12

let gen_cube =
  QCheck.Gen.(
    let gen_bit =
      frequency [ (2, return Cube.Zero); (2, return Cube.One); (3, return Cube.Any) ]
    in
    map (fun bits -> Cube.of_bits (Array.of_list bits)) (list_size (return len) gen_bit))

let arb_cube = QCheck.make ~print:Cube.to_string gen_cube

let gen_header =
  QCheck.Gen.(
    map
      (fun bits -> Cube.of_bits (Array.of_list (List.map (fun b -> if b then Cube.One else Cube.Zero) bits)))
      (list_size (return len) bool))

let arb_header = QCheck.make ~print:Cube.to_string gen_header

let prop_inter_commutative =
  QCheck.Test.make ~name:"inter commutative" ~count:500 (QCheck.pair arb_cube arb_cube)
    (fun (a, b) ->
      match (Cube.inter a b, Cube.inter b a) with
      | Some x, Some y -> Cube.equal x y
      | None, None -> true
      | _ -> false)

let prop_inter_membership =
  QCheck.Test.make ~name:"h ∈ a∩b ⟺ h ∈ a ∧ h ∈ b" ~count:500
    (QCheck.triple arb_header arb_cube arb_cube)
    (fun (h, a, b) ->
      let in_inter =
        match Cube.inter a b with Some c -> Cube.member ~header:h c | None -> false
      in
      in_inter = (Cube.member ~header:h a && Cube.member ~header:h b))

let prop_diff_membership =
  QCheck.Test.make ~name:"h ∈ a−b ⟺ h ∈ a ∧ h ∉ b" ~count:500
    (QCheck.triple arb_header arb_cube arb_cube)
    (fun (h, a, b) ->
      let pieces = Cube.diff a b in
      let in_diff = List.exists (fun c -> Cube.member ~header:h c) pieces in
      in_diff = (Cube.member ~header:h a && not (Cube.member ~header:h b)))

let prop_diff_disjoint_pieces =
  QCheck.Test.make ~name:"diff pieces pairwise disjoint" ~count:300
    (QCheck.pair arb_cube arb_cube)
    (fun (a, b) ->
      let pieces = Array.of_list (Cube.diff a b) in
      let n = Array.length pieces in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if not (Cube.disjoint pieces.(i) pieces.(j)) then ok := false
        done
      done;
      !ok)

let prop_subset_via_diff =
  QCheck.Test.make ~name:"subset a b ⟺ a−b = ∅" ~count:500
    (QCheck.pair arb_cube arb_cube)
    (fun (a, b) -> Cube.subset a b = List.is_empty (Cube.diff a b))

let prop_sample_member =
  QCheck.Test.make ~name:"sample lies in cube" ~count:500 arb_cube (fun c ->
      let rng = Prng.create (Cube.hash c) in
      let h = Cube.sample rng c in
      Cube.is_concrete h && Cube.member ~header:h c)

let prop_set_field_member =
  QCheck.Test.make ~name:"T(h,s) ∈ T(c,s) for h ∈ c" ~count:500
    (QCheck.pair arb_cube arb_cube)
    (fun (c, s) ->
      let rng = Prng.create 7 in
      let h = Cube.sample rng c in
      let h' = Cube.apply_set_field ~set:s h in
      Cube.member ~header:h' (Cube.apply_set_field ~set:s c))

let prop_inverse_set_field =
  QCheck.Test.make ~name:"inverse_set_field is the preimage" ~count:500
    (QCheck.triple arb_header arb_cube arb_cube)
    (fun (h, s, target) ->
      let image_in = Cube.member ~header:(Cube.apply_set_field ~set:s h) target in
      let preimage_in =
        match Cube.inverse_set_field ~set:s target with
        | None -> false
        | Some pre -> Cube.member ~header:h pre
      in
      image_in = preimage_in)

let prop_nth_member =
  QCheck.Test.make ~name:"nth_member: concrete, contained, injective below size"
    ~count:300
    (QCheck.pair arb_cube (QCheck.int_bound 200))
    (fun (c, k) ->
      let h = Cube.nth_member c k in
      Cube.is_concrete h
      && Cube.member ~header:h c
      &&
      let size = int_of_float (Cube.size c) in
      (* Distinct indices below the cube's size give distinct members. *)
      k + 1 >= size || not (Cube.equal h (Cube.nth_member c (k + 1))))

let prop_hs_diff_union =
  QCheck.Test.make ~name:"(a−b) ∪ (a∩b) = a (as sets)" ~count:200
    (QCheck.pair arb_cube arb_cube)
    (fun (a, b) ->
      let ha = Hs.of_cube a and hb = Hs.of_cube b in
      Hs.equal_sets (Hs.union (Hs.diff ha hb) (Hs.inter ha hb)) ha)

let prop_hs_size_additive =
  QCheck.Test.make ~name:"|a| = |a−b| + |a∩b|" ~count:200
    (QCheck.pair arb_cube arb_cube)
    (fun (a, b) ->
      let ha = Hs.of_cube a and hb = Hs.of_cube b in
      let lhs = Hs.size ha in
      let rhs = Hs.size (Hs.diff ha hb) +. Hs.size (Hs.inter ha hb) in
      abs_float (lhs -. rhs) < 1e-6)

let arb_cube_list =
  QCheck.make
    ~print:(fun l -> String.concat " u " (List.map Cube.to_string l))
    QCheck.Gen.(list_size (int_range 0 6) gen_cube)

let prop_reduce_canonical =
  QCheck.Test.make ~name:"reduce: idempotent, order-insensitive, set-preserving"
    ~count:300 arb_cube_list (fun cubes ->
      let t = Hs.of_cubes len cubes in
      let r = Hs.reduce t in
      Hs.equal_sets r t
      && List.equal Cube.equal (Hs.cubes (Hs.reduce r)) (Hs.cubes r)
      && List.equal Cube.equal
           (Hs.cubes (Hs.reduce (Hs.of_cubes len (List.rev cubes))))
           (Hs.cubes r))

let prop_disjoint_cubes =
  QCheck.Test.make ~name:"disjoint_cubes: pairwise disjoint, sizes sum, same set"
    ~count:300 arb_cube_list (fun cubes ->
      let t = Hs.of_cubes len cubes in
      let pieces = Hs.disjoint_cubes t in
      let arr = Array.of_list pieces in
      let pairwise = ref true in
      for i = 0 to Array.length arr - 1 do
        for j = i + 1 to Array.length arr - 1 do
          if not (Cube.disjoint arr.(i) arr.(j)) then pairwise := false
        done
      done;
      !pairwise
      && abs_float
           (List.fold_left (fun acc c -> acc +. Cube.size c) 0. pieces -. Hs.size t)
         < 1e-6
      && Hs.equal_sets (Hs.of_cubes len pieces) t)

(* The packed first-match scan against a plain subset scan, at one, two
   and three chunks (8 and 62 bits fill one; 63 spills into a second;
   130 needs three), with non-concrete queries as well as concrete
   ones. Queries are mostly narrowed from a family member, so hits,
   misses and earlier overlapping members all occur. *)
let prop_first_superset =
  QCheck.Test.make ~name:"first_superset = first subset in a scan" ~count:400
    QCheck.(pair (oneofl [ 8; 62; 63; 130 ]) (int_bound 1_000_000))
    (fun (len, seed) ->
      let rng = Prng.create seed in
      let wildcard_prob = Prng.choose rng [| 0.3; 0.8; 0.97 |] in
      let family =
        Array.init (Prng.int rng 12) (fun _ -> Cube.random rng ~wildcard_prob len)
      in
      let packed = Cube.pack family in
      let narrow c =
        let c = ref c in
        for k = 0 to len - 1 do
          if Cube.get !c k = Cube.Any && Prng.bool rng then
            c := Cube.set !c k (if Prng.bool rng then Cube.One else Cube.Zero)
        done;
        !c
      in
      List.for_all
        (fun _ ->
          let q =
            match Prng.int rng 3 with
            | 0 when Array.length family > 0 -> narrow (Prng.choose rng family)
            | 1 when Array.length family > 0 ->
                Cube.sample rng (Prng.choose rng family)
            | _ -> Cube.random rng ~wildcard_prob:0.1 len
          in
          let rec scan i =
            if i >= Array.length family then -1
            else if Cube.subset q family.(i) then i
            else scan (i + 1)
          in
          Int.equal (Cube.first_superset packed q) (scan 0))
        (List.init 16 Fun.id))

(* Representation properties: [union], [inter], [diff_cube] and
   [is_subset] skip work the subsumption invariant makes redundant, and
   must return exactly the cube list of their plain definitions, written
   here with the public API. Operands come from [of_cubes] over 0–8
   cubes that include duplicates (physical and structural) and cubes
   narrowed or widened from earlier ones, at one chunk (12, 62 bits) and
   at two (63 bits). *)
let narrow rng c =
  let c = ref c in
  for k = 0 to Cube.length !c - 1 do
    if Cube.get !c k = Cube.Any && Prng.int rng 4 = 0 then
      c := Cube.set !c k (if Prng.bool rng then Cube.One else Cube.Zero)
  done;
  !c

let widen rng c =
  let c = ref c in
  for k = 0 to Cube.length !c - 1 do
    if Cube.get !c k <> Cube.Any && Prng.int rng 4 = 0 then c := Cube.set !c k Cube.Any
  done;
  !c

(* A cube drawn fresh, or copied, narrowed or widened from [earlier]. *)
let related rng ~wildcard_prob len earlier =
  match (earlier, Prng.int rng 5) with
  | [], _ | _, 0 -> Cube.random rng ~wildcard_prob len
  | _, k -> (
      let e = Prng.choose rng (Array.of_list earlier) in
      match k with
      | 1 -> e
      | 2 -> Cube.of_string (Cube.to_string e)
      | 3 -> narrow rng e
      | _ -> widen rng e)

let random_family rng ~wildcard_prob ?(from = []) len =
  let rec grow acc n =
    if n = 0 then List.rev acc
    else grow (related rng ~wildcard_prob len (from @ acc) :: acc) (n - 1)
  in
  grow [] (Prng.int rng 9)

let same_cubes a b = List.equal Cube.equal (Hs.cubes a) (Hs.cubes b)

let arb_len_seed = QCheck.(pair (oneofl [ 12; 62; 63 ]) (int_bound 1_000_000))

(* Two spaces over a shared family: [b]'s cubes are drawn from [a]'s. *)
let operands (len, seed) =
  let rng = Prng.create seed in
  let wildcard_prob = Prng.choose rng [| 0.3; 0.8; 0.97 |] in
  let ca = random_family rng ~wildcard_prob len in
  let cb = random_family rng ~wildcard_prob ~from:ca len in
  (rng, wildcard_prob, Hs.of_cubes len ca, Hs.of_cubes len cb)

let prop_union_representation =
  QCheck.Test.make ~name:"union = of_cubes of both lists" ~count:400 arb_len_seed
    (fun ((len, _) as p) ->
      let _, _, a, b = operands p in
      same_cubes (Hs.union a b) (Hs.of_cubes len (Hs.cubes a @ Hs.cubes b))
      && same_cubes (Hs.union b a) (Hs.of_cubes len (Hs.cubes b @ Hs.cubes a)))

let prop_diff_cube_representation =
  QCheck.Test.make ~name:"diff_cube = of_cubes of the pieces" ~count:400 arb_len_seed
    (fun ((len, _) as p) ->
      let rng, wildcard_prob, t, _ = operands p in
      List.for_all
        (fun _ ->
          let c = related rng ~wildcard_prob len (Hs.cubes t) in
          same_cubes (Hs.diff_cube t c)
            (Hs.of_cubes len (List.concat_map (fun d -> Cube.diff d c) (Hs.cubes t))))
        (List.init 8 Fun.id))

let prop_inter_representation =
  QCheck.Test.make ~name:"inter = of_cubes of the pairwise pieces" ~count:400 arb_len_seed
    (fun ((len, _) as p) ->
      let _, _, a, b = operands p in
      let plain x y =
        Hs.of_cubes len
          (List.concat_map (fun cx -> List.filter_map (Cube.inter cx) (Hs.cubes y)) (Hs.cubes x))
      in
      same_cubes (Hs.inter a b) (plain a b)
      (* One-cube operands take their own path. *)
      && List.for_all
           (fun ca ->
             List.for_all
               (fun cb ->
                 let x = Hs.of_cube ca and y = Hs.of_cube cb in
                 same_cubes (Hs.inter x y) (plain x y))
               (Hs.cubes b))
           (Hs.cubes a))

(* A cover of [a]'s cubes: each kept, widened, split in two halves on a
   wildcard bit (so no single cube covers it), narrowed or dropped,
   plus fresh cubes. *)
let cover rng ~wildcard_prob len a =
  let split c =
    match List.filter (fun k -> Cube.get c k = Cube.Any) (List.init len Fun.id) with
    | [] -> [ c ]
    | ks ->
        let k = Prng.choose rng (Array.of_list ks) in
        [ Cube.set c k Cube.Zero; widen rng (Cube.set c k Cube.One) ]
  in
  Hs.of_cubes len
    (List.concat_map
       (fun c ->
         match Prng.int rng 6 with
         | 0 -> [ c ]
         | 1 -> [ widen rng c ]
         | 2 | 3 -> split c
         | 4 -> [ narrow rng c ]
         | _ -> [])
       (Hs.cubes a)
    @ random_family rng ~wildcard_prob len)

let all_headers =
  Array.init 4096 (fun i ->
      Cube.of_bits (Array.init len (fun k -> if (i lsr (len - 1 - k)) land 1 = 1 then Cube.One else Cube.Zero)))

let prop_is_subset_brute_force =
  QCheck.Test.make ~name:"is_subset = brute-force containment (12 bits)" ~count:300
    (QCheck.int_bound 1_000_000) (fun seed ->
      let rng, wildcard_prob, a, _ = operands (len, seed) in
      let b = cover rng ~wildcard_prob len a in
      let contained x y = Array.for_all (fun h -> (not (Hs.mem h x)) || Hs.mem h y) all_headers in
      Bool.equal (Hs.is_subset a b) (contained a b)
      && Bool.equal (Hs.is_subset b a) (contained b a))

let prop_is_subset_long =
  QCheck.Test.make ~name:"is_subset a b = (a − b = ∅) at 62 and 63 bits" ~count:300
    QCheck.(pair (oneofl [ 62; 63 ]) (int_bound 1_000_000))
    (fun ((len, _) as p) ->
      let rng, wildcard_prob, a, _ = operands p in
      let b = cover rng ~wildcard_prob len a in
      Bool.equal (Hs.is_subset a b) (Hs.is_empty (Hs.diff a b))
      && Bool.equal (Hs.is_subset b a) (Hs.is_empty (Hs.diff b a)))

let test_pack_lengths () =
  let a = Cube.of_string "01xx" in
  check_int "empty family" (-1) (Cube.first_superset (Cube.pack [||]) a);
  Alcotest.check_raises "mixed lengths" (Invalid_argument "Cube.pack: length mismatch")
    (fun () -> ignore (Cube.pack [| a; Cube.of_string "01x" |]));
  Alcotest.check_raises "query length"
    (Invalid_argument "Cube.first_superset: length mismatch") (fun () ->
      ignore (Cube.first_superset (Cube.pack [| a |]) (Cube.of_string "010")))

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_first_superset;
      prop_inter_commutative;
      prop_inter_membership;
      prop_diff_membership;
      prop_diff_disjoint_pieces;
      prop_subset_via_diff;
      prop_sample_member;
      prop_set_field_member;
      prop_inverse_set_field;
      prop_nth_member;
      prop_hs_diff_union;
      prop_hs_size_additive;
      prop_reduce_canonical;
      prop_disjoint_cubes;
      prop_union_representation;
      prop_diff_cube_representation;
      prop_inter_representation;
      prop_is_subset_brute_force;
      prop_is_subset_long;
    ]

let () =
  Alcotest.run "hspace"
    [
      ( "cube",
        [
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "of_string invalid" `Quick test_of_string_invalid;
          Alcotest.test_case "get/set" `Quick test_get_set;
          Alcotest.test_case "wildcard" `Quick test_wildcard;
          Alcotest.test_case "inter basic" `Quick test_inter_basic;
          Alcotest.test_case "paper intersections" `Quick test_paper_example_intersection;
          Alcotest.test_case "subset" `Quick test_subset;
          Alcotest.test_case "diff basic" `Quick test_diff_basic;
          Alcotest.test_case "set field" `Quick test_set_field;
          Alcotest.test_case "inverse set field" `Quick test_inverse_set_field;
          Alcotest.test_case "size" `Quick test_size;
          Alcotest.test_case "first member" `Quick test_first_member;
          Alcotest.test_case "interning" `Quick test_interning;
          Alcotest.test_case "hash beyond word budget" `Quick test_hash_long_cubes;
          Alcotest.test_case "pack lengths" `Quick test_pack_lengths;
        ] );
      ( "hs",
        [
          Alcotest.test_case "union reduce" `Quick test_hs_union_reduce;
          Alcotest.test_case "diff/inter" `Quick test_hs_diff_inter;
          Alcotest.test_case "equal sets" `Quick test_hs_equal_sets;
          Alcotest.test_case "sample" `Quick test_hs_sample;
          Alcotest.test_case "size overlapping" `Quick test_hs_size_overlapping;
        ] );
      ("properties", props);
    ]
