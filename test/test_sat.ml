(* Tests for the CDCL solver and the header-selection encodings. *)

module Solver = Sat.Solver
module HE = Sat.Header_encoding
module Cube = Hspace.Cube
module Hs = Hspace.Hs
module Prng = Sdn_util.Prng

let check_bool = Alcotest.(check bool)

let is_sat = function Solver.Sat _ -> true | Solver.Unsat -> false

(* ------------------------------------------------------------------ *)
(* Solver unit tests *)

let test_empty_problem () =
  let s = Solver.create () in
  check_bool "trivially sat" true (is_sat (Solver.solve s))

let test_unit_clauses () =
  let s = Solver.create () in
  Solver.add_clause s [ 1 ];
  Solver.add_clause s [ -2 ];
  match Solver.solve s with
  | Solver.Sat m ->
      check_bool "v1" true m.(1);
      check_bool "v2" false m.(2)
  | Solver.Unsat -> Alcotest.fail "expected sat"

let test_contradiction () =
  let s = Solver.create () in
  Solver.add_clause s [ 1 ];
  Solver.add_clause s [ -1 ];
  check_bool "unsat" false (is_sat (Solver.solve s))

let test_empty_clause () =
  let s = Solver.create () in
  Solver.add_clause s [];
  check_bool "unsat" false (is_sat (Solver.solve s))

let test_propagation_chain () =
  (* 1, 1->2, 2->3, ..., forces all true. *)
  let s = Solver.create () in
  Solver.add_clause s [ 1 ];
  for v = 1 to 19 do
    Solver.add_clause s [ -v; v + 1 ]
  done;
  match Solver.solve s with
  | Solver.Sat m -> check_bool "v20" true m.(20)
  | Solver.Unsat -> Alcotest.fail "expected sat"

let test_pigeonhole_3_2 () =
  (* 3 pigeons, 2 holes: classic small unsat instance. Var p*2+h-2 maps
     pigeon p in hole h (p in 1..3, h in 1..2). *)
  let var p h = ((p - 1) * 2) + h in
  let s = Solver.create () in
  for p = 1 to 3 do
    Solver.add_clause s [ var p 1; var p 2 ]
  done;
  for h = 1 to 2 do
    for p1 = 1 to 3 do
      for p2 = p1 + 1 to 3 do
        Solver.add_clause s [ -var p1 h; -var p2 h ]
      done
    done
  done;
  check_bool "unsat" false (is_sat (Solver.solve s))

let test_model_satisfies () =
  (* A satisfiable structured instance; verify the model. *)
  let clauses = [ [ 1; 2; -3 ]; [ -1; 3 ]; [ 2; 3 ]; [ -2; -3; 4 ]; [ -4; 1 ] ] in
  let s = Solver.create () in
  List.iter (Solver.add_clause s) clauses;
  match Solver.solve s with
  | Solver.Unsat -> Alcotest.fail "expected sat"
  | Solver.Sat m ->
      List.iter
        (fun clause ->
          check_bool "clause satisfied" true
            (List.exists (fun l -> if l > 0 then m.(l) else not m.(-l)) clause))
        clauses

let test_incremental () =
  let s = Solver.create () in
  Solver.add_clause s [ 1; 2 ];
  check_bool "sat" true (is_sat (Solver.solve s));
  Solver.add_clause s [ -1 ];
  Solver.add_clause s [ -2 ];
  check_bool "now unsat" false (is_sat (Solver.solve s));
  check_bool "stays unsat" false (is_sat (Solver.solve s))

let test_assumptions () =
  let s = Solver.create () in
  Solver.add_clause s [ -1; 2 ];
  Solver.add_clause s [ -2; 3 ];
  (match Solver.solve ~assumptions:[ 1; -3 ] s with
  | Solver.Unsat -> ()
  | Solver.Sat _ -> Alcotest.fail "expected unsat under assumptions");
  (* Solver still usable and satisfiable without assumptions. *)
  check_bool "recovers" true (is_sat (Solver.solve s));
  match Solver.solve ~assumptions:[ 1 ] s with
  | Solver.Sat m ->
      check_bool "chain" true (m.(1) && m.(2) && m.(3))
  | Solver.Unsat -> Alcotest.fail "expected sat"

(* ------------------------------------------------------------------ *)
(* Random instances vs. brute force *)

let brute_force nvars clauses =
  (* Try all assignments. *)
  let rec loop asg =
    if asg >= 1 lsl nvars then false
    else
      let value v = asg land (1 lsl (v - 1)) <> 0 in
      let ok =
        List.for_all
          (List.exists (fun l -> if l > 0 then value l else not (value (-l))))
          clauses
      in
      ok || loop (asg + 1)
  in
  loop 0

let random_3sat rng nvars nclauses =
  List.init nclauses (fun _ ->
      List.init 3 (fun _ ->
          let v = 1 + Prng.int rng nvars in
          if Prng.bool rng then v else -v))

let test_random_vs_brute () =
  let rng = Prng.create 2018 in
  for _ = 1 to 60 do
    let nvars = 4 + Prng.int rng 9 in
    let nclauses = 3 + Prng.int rng (4 * nvars) in
    let clauses = random_3sat rng nvars nclauses in
    let s = Solver.create ~nvars () in
    List.iter (Solver.add_clause s) clauses;
    let expected = brute_force nvars clauses in
    match Solver.solve s with
    | Solver.Sat m ->
        check_bool "brute agrees (sat)" true expected;
        List.iter
          (fun clause ->
            check_bool "model ok" true
              (List.exists (fun l -> if l > 0 then m.(l) else not m.(-l)) clause))
          clauses
    | Solver.Unsat -> check_bool "brute agrees (unsat)" false expected
  done

let test_hard_random () =
  (* Near the phase transition (ratio ~4.26); just must terminate and be
     self-consistent on a model. *)
  let rng = Prng.create 99 in
  for _ = 1 to 10 do
    let nvars = 40 in
    let clauses = random_3sat rng nvars 170 in
    let s = Solver.create ~nvars () in
    List.iter (Solver.add_clause s) clauses;
    match Solver.solve s with
    | Solver.Sat m ->
        List.iter
          (fun clause ->
            check_bool "model ok" true
              (List.exists (fun l -> if l > 0 then m.(l) else not m.(-l)) clause))
          clauses
    | Solver.Unsat -> ()
  done

(* ------------------------------------------------------------------ *)
(* Header encodings *)

let test_find_rule_input () =
  (* e2's input in Figure 3: 001xxxxx − 0010xxxx = 0011xxxx. *)
  let h =
    HE.find_rule_input ~match_:(Cube.of_string "001xxxxx")
      ~overlaps:[ Cube.of_string "0010xxxx" ]
  in
  match h with
  | None -> Alcotest.fail "expected header"
  | Some h ->
      check_bool "in match" true (Hspace.Header.matches h (Cube.of_string "001xxxxx"));
      check_bool "outside overlap" false
        (Hspace.Header.matches h (Cube.of_string "0010xxxx"))

let test_find_rule_input_empty () =
  (* c1 -> e2 in the paper: 00100xxx fully covered by 0010xxxx. *)
  check_bool "unsat" true
    (HE.find_rule_input ~match_:(Cube.of_string "00100xxx")
       ~overlaps:[ Cube.of_string "0010xxxx" ]
    = None)

let test_unique_headers () =
  (* Ask for 8 distinct headers in a cube with exactly 8 members. *)
  let inside = [ Cube.of_string "00000xxx" ] in
  let rec collect acc n =
    if n = 0 then acc
    else
      match HE.find_header ~distinct_from:acc ~inside 8 with
      | Some h -> collect (h :: acc) (n - 1)
      | None -> Alcotest.fail "expected another header"
  in
  let headers = collect [] 8 in
  let uniq = List.sort_uniq Hspace.Header.compare headers in
  Alcotest.(check int) "8 distinct" 8 (List.length uniq);
  (* The 9th must not exist. *)
  check_bool "exhausted" true (HE.find_header ~distinct_from:headers ~inside 8 = None)

let test_avoid_cubes () =
  let inside = [ Cube.of_string "xxxxxxxx" ] in
  let avoid = [ Cube.of_string "1xxxxxxx"; Cube.of_string "01xxxxxx" ] in
  match HE.find_header ~avoid ~inside 8 with
  | None -> Alcotest.fail "expected header"
  | Some h ->
      check_bool "avoids both" true
        (not (Hspace.Header.matches h (List.nth avoid 0))
        && not (Hspace.Header.matches h (List.nth avoid 1)))

let prop_find_matches_hs =
  (* find_rule_input agrees with the HSA computation of r.in. *)
  let gen =
    QCheck.Gen.(
      let gen_bit =
        frequency [ (2, return Cube.Zero); (2, return Cube.One); (3, return Cube.Any) ]
      in
      let gen_cube = map (fun b -> Cube.of_bits (Array.of_list b)) (list_size (return 10) gen_bit) in
      pair gen_cube (list_size (int_bound 4) gen_cube))
  in
  QCheck.Test.make ~name:"SAT witness agrees with HSA emptiness" ~count:300
    (QCheck.make gen)
    (fun (m, overlaps) ->
      let hs = List.fold_left (fun acc o -> Hs.diff_cube acc o) (Hs.of_cube m) overlaps in
      match HE.find_rule_input ~match_:m ~overlaps with
      | Some h -> Hs.mem (h :> Cube.t) hs
      | None -> Hs.is_empty hs)

(* Bucket order is part of find_header's contract: the same blocking
   set in another order steers the CDCL search to another header. Not
   the least free header either — that would be 010 both times. *)
let test_distinct_order_matters () =
  let h = Hspace.Header.of_string in
  let inside = [ Cube.of_string "xxx" ] in
  let answer distinct_from =
    Option.map Hspace.Header.to_string (HE.find_header ~distinct_from ~inside 3)
  in
  Alcotest.(check (option string)) "[001; 000]" (Some "011") (answer [ h "001"; h "000" ]);
  Alcotest.(check (option string)) "[000; 001]" (Some "010") (answer [ h "000"; h "001" ])

(* Random header-selection instances, built from a seed so a failure
   prints something reproducible. [len] runs 3-70 (across the 62-bit
   chunk boundary) and the inside cube has 0-10 free bits. The
   distinct-from list mixes in-cube members, in random order and
   sometimes all of them (an exhausted cube), with headers outside
   the cube, as Certify passes them. *)
type instance = {
  len : int;
  inside : Cube.t list;
  avoid : Cube.t list;
  distinct_from : Hspace.Header.t list;
}

let random_header rng len =
  Hspace.Header.of_cube
    (Cube.of_bits (Array.init len (fun _ -> if Prng.bool rng then Cube.One else Cube.Zero)))

(* A cube with exactly [nfree] wildcards. *)
let cube_with_free rng len nfree =
  let free = Prng.sample_without_replacement rng nfree len in
  Cube.of_bits
    (Array.init len (fun k ->
         if List.mem k free then Cube.Any else if Prng.bool rng then Cube.One else Cube.Zero))

let members cube =
  let nfree = Cube.wildcard_count cube in
  List.init (1 lsl nfree) (fun k -> Hspace.Header.of_cube (Cube.nth_member cube k))

let instance ?(extras = true) seed =
  let rng = Prng.create seed in
  let len = Prng.int_in rng 3 70 in
  let cube = cube_with_free rng len (Prng.int rng (min 10 len + 1)) in
  let all = Array.of_list (members cube) in
  Prng.shuffle rng all;
  let n_in =
    if Prng.int rng 4 = 0 then Array.length all
    else Prng.int rng (min 40 (Array.length all) + 1)
  in
  let outside =
    List.init (Prng.int rng 6) (fun _ ->
        (* Half of them one fixed bit away from the cube. *)
        let h = random_header rng len in
        if Prng.bool rng || Cube.wildcard_count cube = len then h
        else
          let fixed =
            List.filter (fun k -> Cube.get cube k <> Cube.Any) (List.init len Fun.id)
          in
          let k = Prng.choose_list rng fixed in
          Hspace.Header.of_cube
            (Cube.set (Cube.first_member cube) k
               (if Cube.get cube k = Cube.One then Cube.Zero else Cube.One)))
  in
  let distinct_from =
    Prng.shuffle_list rng (Array.to_list (Array.sub all 0 n_in) @ outside)
  in
  let inside =
    if extras && Prng.int rng 3 = 0 then [ cube; Cube.random rng ~wildcard_prob:0.8 len ]
    else [ cube ]
  in
  let avoid =
    if extras then List.init (Prng.int rng 3) (fun _ -> Cube.random rng ~wildcard_prob:0.85 len)
    else []
  in
  { len; inside; avoid; distinct_from }

let seed_arb = QCheck.make ~print:(Printf.sprintf "seed %d") QCheck.Gen.(int_bound 1_000_000)

let prop_free_bit_encoding_is_reference =
  QCheck.Test.make ~name:"find_header = find_header_certified" ~count:400 seed_arb
    (fun seed ->
      let { len; inside; avoid; distinct_from } = instance seed in
      Option.equal Hspace.Header.equal
        (HE.find_header ~avoid ~distinct_from ~inside len)
        (HE.find_header_certified ~avoid ~distinct_from ~inside len).HE.header)

let prop_untaken_first_member =
  QCheck.Test.make ~name:"untaken first member comes back" ~count:400 seed_arb
    (fun seed ->
      let { len; inside; distinct_from; _ } = instance ~extras:false seed in
      let first = Hspace.Header.of_cube (Cube.first_member (List.hd inside)) in
      let distinct_from =
        List.filter (fun h -> not (Hspace.Header.equal h first)) distinct_from
      in
      Option.equal Hspace.Header.equal
        (HE.find_header ~distinct_from ~inside len)
        (Some first))

let () =
  Alcotest.run "sat"
    [
      ( "solver",
        [
          Alcotest.test_case "empty problem" `Quick test_empty_problem;
          Alcotest.test_case "unit clauses" `Quick test_unit_clauses;
          Alcotest.test_case "contradiction" `Quick test_contradiction;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "propagation chain" `Quick test_propagation_chain;
          Alcotest.test_case "pigeonhole 3/2" `Quick test_pigeonhole_3_2;
          Alcotest.test_case "model satisfies" `Quick test_model_satisfies;
          Alcotest.test_case "incremental" `Quick test_incremental;
          Alcotest.test_case "assumptions" `Quick test_assumptions;
          Alcotest.test_case "random vs brute force" `Quick test_random_vs_brute;
          Alcotest.test_case "hard random" `Quick test_hard_random;
        ] );
      ( "header encoding",
        [
          Alcotest.test_case "find rule input" `Quick test_find_rule_input;
          Alcotest.test_case "find rule input empty" `Quick test_find_rule_input_empty;
          Alcotest.test_case "unique headers" `Quick test_unique_headers;
          Alcotest.test_case "avoid cubes" `Quick test_avoid_cubes;
          QCheck_alcotest.to_alcotest prop_find_matches_hs;
          Alcotest.test_case "distinct-from order matters" `Quick
            test_distinct_order_matters;
          QCheck_alcotest.to_alcotest prop_free_bit_encoding_is_reference;
          QCheck_alcotest.to_alcotest prop_untaken_first_member;
        ] );
    ]
