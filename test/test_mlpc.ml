(* Tests for the MLPC solver: the paper's Figure 6 result, structural
   invariants, brute-force minimality on small random networks, and the
   randomized variant's diversity. *)

module RG = Rulegraph.Rule_graph
module Cover = Mlpc.Cover
module LM = Mlpc.Legal_matching
module Headers = Mlpc.Headers
module Hs = Hspace.Hs
module Cube = Hspace.Cube
module Header = Hspace.Header
module FE = Openflow.Flow_entry
module Prng = Sdn_util.Prng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Figure 3 -> Figure 6 *)

let fx = lazy (Fixtures.figure3 ())
let rg = lazy (RG.build (Lazy.force fx).Fixtures.net)

let rule_ids (p : Cover.path) =
  List.map (fun v -> (RG.vertex_entry (Lazy.force rg) v).FE.id) p.Cover.rules

let test_figure6_cover () =
  let f = Lazy.force fx in
  let cover = LM.solve (Lazy.force rg) in
  (* The paper's MLPC (Fig. 6) has exactly 4 test packets. Several
     4-path legal covers exist; the solver must find one of them (the
     exact decomposition depends on augmentation order). *)
  check_int "four paths" 4 (Cover.size cover);
  check_bool "is cover" true (Cover.is_cover (Lazy.force rg) cover);
  check_bool "all legal" true (Cover.all_legal (Lazy.force rg) cover);
  (* One path must use the closure edge b2 -> e2 and expand it through
     c2 (the paper's conversion), since e2 is only reachable via c2 and
     c2 also serves another chain. *)
  let b2 = f.Fixtures.b2.FE.id and c2 = f.Fixtures.c2.FE.id and e2 = f.Fixtures.e2.FE.id in
  check_bool "b2 path expands through c2" true
    (List.exists (fun p -> rule_ids p = [ b2; c2; e2 ]) cover.Cover.paths);
  (* The paper's own decomposition is a legal 4-path cover too. *)
  let v e = RG.vertex_of_entry (Lazy.force rg) e.FE.id in
  List.iter
    (fun path -> check_bool "paper path legal" true (RG.is_legal (Lazy.force rg) path))
    [
      List.map v [ f.Fixtures.a1; f.Fixtures.b1; f.Fixtures.c2; f.Fixtures.e1 ];
      List.map v [ f.Fixtures.b2; f.Fixtures.e2 ];
      List.map v [ f.Fixtures.b3; f.Fixtures.d1; f.Fixtures.e3 ];
      [ v f.Fixtures.c1 ];
    ]

let test_cover_metrics () =
  let cover = LM.solve (Lazy.force rg) in
  check_int "max path length" 3 (Cover.max_path_length cover);
  (* Our minimum cover: chains of expanded lengths 3, 3, 3, 2. *)
  Alcotest.(check (float 1e-9)) "mean length" 2.75 (Cover.mean_path_length cover)

(* ------------------------------------------------------------------ *)
(* Brute force minimality on random small networks *)

(* Minimum legal (vertex-disjoint) path cover by exhaustive search over
   matchings in the closure graph. *)
let brute_min_cover rg =
  let n = RG.n_vertices rg in
  let g = RG.graph rg in
  let testable = Array.init n (fun v -> not (Hs.is_empty (RG.input rg v))) in
  let edges =
    List.concat
      (List.init n (fun u ->
           if testable.(u) then
             List.filter_map
               (fun v -> if testable.(v) then Some (u, v) else None)
               (Sdngraph.Digraph.succ g u)
           else []))
  in
  let n_testable = Array.fold_left (fun a t -> if t then a + 1 else a) 0 testable in
  let succ = Array.make n (-1) and pred = Array.make n (-1) in
  let best = ref 0 in
  let chains_legal () =
    let ok = ref true in
    for head = 0 to n - 1 do
      if testable.(head) && pred.(head) = -1 then begin
        let rec follow v acc =
          let acc = v :: acc in
          if succ.(v) >= 0 then follow succ.(v) acc else List.rev acc
        in
        let chain = follow head [] in
        if not (RG.is_legal rg chain) then ok := false
      end
    done;
    !ok
  in
  let rec go size = function
    | [] -> if chains_legal () then best := max !best size
    | (u, v) :: rest ->
        go size rest;
        if succ.(u) = -1 && pred.(v) = -1 then begin
          succ.(u) <- v;
          pred.(v) <- u;
          go (size + 1) rest;
          succ.(u) <- -1;
          pred.(v) <- -1
        end
  in
  go 0 edges;
  n_testable - !best

let test_minimality_vs_brute_force () =
  let rng = Prng.create 404 in
  let tested = ref 0 in
  for _ = 1 to 40 do
    let net =
      Fixtures.random_line_net rng ~n_switches:(2 + Prng.int rng 2)
        ~rules_per_switch:2 ~header_len:5
    in
    let rg = RG.build net in
    (* Keep brute force tractable. *)
    if RG.n_vertices rg <= 9 then begin
      incr tested;
      let cover = LM.solve rg in
      check_bool "is cover" true (Cover.is_cover rg cover);
      check_bool "all legal" true (Cover.all_legal rg cover);
      check_int "minimum" (brute_min_cover rg) (Cover.size cover)
    end
  done;
  check_bool "enough cases" true (!tested >= 20)

let test_figure3_minimality_brute () =
  check_int "figure3 brute minimum" 4 (brute_min_cover (Lazy.force rg))

(* ------------------------------------------------------------------ *)
(* Structural invariants on larger random networks *)

let test_cover_invariants_random () =
  let rng = Prng.create 911 in
  for _ = 1 to 10 do
    let net =
      Fixtures.random_line_net rng ~n_switches:(3 + Prng.int rng 4)
        ~rules_per_switch:4 ~header_len:8
    in
    let rg = RG.build net in
    let cover = LM.solve rg in
    check_bool "is cover" true (Cover.is_cover rg cover);
    check_bool "all legal" true (Cover.all_legal rg cover);
    (* Paths are vertex-disjoint in matched vertices. *)
    let matched = List.concat_map (fun p -> p.Cover.vertices) cover.Cover.paths in
    check_int "disjoint chains" (List.length matched)
      (List.length (List.sort_uniq compare matched));
    (* Untestable vertices really have empty inputs. *)
    List.iter
      (fun v -> check_bool "untestable" true (Hs.is_empty (RG.input rg v)))
      cover.Cover.untestable
  done

let test_untestable_reported () =
  (* A rule fully shadowed by a higher-priority rule is untestable. *)
  let topo = Openflow.Topology.create ~n_switches:2 in
  Openflow.Topology.add_link topo ~sw_a:0 ~port_a:1 ~sw_b:1 ~port_b:1;
  let net = Openflow.Network.create ~header_len:4 topo in
  let _hi =
    Openflow.Network.add_entry net ~switch:0 ~priority:2 ~match_:(Cube.of_string "1xxx")
      (FE.Output 1)
  in
  let shadowed =
    Openflow.Network.add_entry net ~switch:0 ~priority:1 ~match_:(Cube.of_string "11xx")
      (FE.Output 1)
  in
  let _sink =
    Openflow.Network.add_entry net ~switch:1 ~priority:1 ~match_:(Cube.of_string "xxxx")
      FE.Drop
  in
  let rg = RG.build net in
  let cover = LM.solve rg in
  check_int "one untestable" 1 (List.length cover.Cover.untestable);
  check_int "it is the shadowed rule" shadowed.FE.id
    (RG.vertex_entry rg (List.hd cover.Cover.untestable)).FE.id;
  check_bool "cover still complete" true (Cover.is_cover rg cover)

(* ------------------------------------------------------------------ *)
(* Randomized variant *)

let test_randomized_valid () =
  let rng = Prng.create 5 in
  for seed = 1 to 10 do
    ignore seed;
    let cover = LM.randomized rng (Lazy.force rg) in
    check_bool "is cover" true (Cover.is_cover (Lazy.force rg) cover);
    check_bool "all legal" true (Cover.all_legal (Lazy.force rg) cover);
    check_bool "at least minimum" true (Cover.size cover >= 4)
  done

let test_randomized_diversity () =
  (* Different seeds must eventually produce different covers. *)
  let net =
    Fixtures.random_line_net (Prng.create 7) ~n_switches:5 ~rules_per_switch:4
      ~header_len:8
  in
  let rg = RG.build net in
  let signatures =
    List.init 8 (fun seed ->
        let cover = LM.randomized (Prng.create (seed + 100)) rg in
        List.sort compare (List.map (fun p -> p.Cover.rules) cover.Cover.paths))
  in
  check_bool "diverse" true (List.length (List.sort_uniq compare signatures) > 1)

let test_randomized_more_packets () =
  (* Across runs, the randomized greedy cover is at least as large as
     the minimum and usually strictly larger somewhere. *)
  let net =
    Fixtures.random_line_net (Prng.create 21) ~n_switches:6 ~rules_per_switch:4
      ~header_len:8
  in
  let rg = RG.build net in
  let minimum = Cover.size (LM.solve rg) in
  let sizes = List.init 10 (fun s -> Cover.size (LM.randomized (Prng.create s) rg)) in
  List.iter (fun s -> check_bool ">= minimum" true (s >= minimum)) sizes

(* ------------------------------------------------------------------ *)
(* Header assignment *)

let test_headers_deterministic () =
  let cover = LM.solve (Lazy.force rg) in
  let assigned = Headers.assign Headers.Deterministic cover in
  check_int "one per path" (Cover.size cover) (List.length assigned);
  List.iter
    (fun ((p : Cover.path), (h : Header.t)) ->
      check_bool "in start space" true (Hs.mem (h :> Cube.t) p.Cover.start_space))
    assigned;
  (* Deterministic: same result twice. *)
  let again = Headers.assign Headers.Deterministic cover in
  check_bool "stable" true
    (List.for_all2 (fun (_, a) (_, b) -> Header.equal a b) assigned again)

let test_headers_sat_unique () =
  let cover = LM.solve (Lazy.force rg) in
  let assigned = Headers.assign Headers.Sat_unique cover in
  let hs = List.map snd assigned in
  check_int "pairwise distinct" (List.length hs)
    (List.length (List.sort_uniq Header.compare hs));
  List.iter
    (fun ((p : Cover.path), (h : Header.t)) ->
      check_bool "in start space" true (Hs.mem (h :> Cube.t) p.Cover.start_space))
    assigned

let test_headers_random () =
  let cover = LM.solve (Lazy.force rg) in
  let a1 = Headers.assign (Headers.Random (Prng.create 1)) cover in
  let a2 = Headers.assign (Headers.Random (Prng.create 2)) cover in
  List.iter
    (fun ((p : Cover.path), (h : Header.t)) ->
      check_bool "in start space" true (Hs.mem (h :> Cube.t) p.Cover.start_space))
    (a1 @ a2);
  (* Over two seeds at least one header should differ (spaces have >= 8
     members each in Figure 3). *)
  check_bool "random differs" true
    (List.exists2 (fun (_, a) (_, b) -> not (Header.equal a b)) a1 a2)

let test_paper_header_space () =
  (* §V-B step 3: HS(a1->b1->c2->e1) = 00101xxx. *)
  let f = Lazy.force fx in
  let cover = LM.solve (Lazy.force rg) in
  let target =
    List.find
      (fun (p : Cover.path) ->
        List.mem (RG.vertex_of_entry (Lazy.force rg) f.Fixtures.a1.FE.id) p.Cover.rules)
      cover.Cover.paths
  in
  check_bool "00101xxx" true
    (Hs.equal_sets target.Cover.start_space (Hs.of_cubes 8 [ Cube.of_string "00101xxx" ]))

(* ------------------------------------------------------------------ *)
(* Per-component assignment against one sequential pass *)

(* The oracle for [Sat_unique] is Certify.sat_section's fold: every path
   in order, the reference (verbatim) encoding against the whole seen
   list, each cube of the start space tried in order, the first member
   as the last resort. No components, buckets or first-member shortcut. *)
let oracle_sat_unique (cover : Cover.t) =
  let _, out =
    List.fold_left
      (fun (seen, acc) (p : Cover.path) ->
        let hs = p.Cover.start_space in
        let h =
          match
            List.find_map
              (fun cube ->
                (Sat.Header_encoding.find_header_certified ~distinct_from:seen
                   ~inside:[ cube ] (Cube.length cube))
                  .Sat.Header_encoding.header)
              (Hs.cubes hs)
          with
          | Some h -> Some h
          | None -> Option.map Header.of_cube (Hs.first_member hs)
        in
        match h with Some h -> (h :: seen, h :: acc) | None -> (seen, acc))
      ([], []) cover.Cover.paths
  in
  List.rev out

(* The oracle for [Random]: path [i] draws from its own stream, seeded
   by one master draw and [i]; its first draw stands unless an earlier
   path took it, and then it keeps drawing, up to 64 retries, against
   the whole seen list. *)
let oracle_random master (cover : Cover.t) =
  let salt = Prng.bits64 master in
  let stream i =
    Prng.create
      (Int64.to_int (Int64.add salt (Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L)))
  in
  let draw rng ~taken hs =
    let rec loop attempts =
      match Hs.sample rng hs with
      | None -> None
      | Some c ->
          let h = Header.of_cube c in
          if taken h && attempts < 64 then loop (attempts + 1) else Some h
    in
    loop 0
  in
  let _, out =
    List.fold_left
      (fun (i, (seen, acc)) (p : Cover.path) ->
        let rng = stream i and hs = p.Cover.start_space in
        let taken h = List.exists (Header.equal h) seen in
        let h =
          match draw rng ~taken:(fun _ -> false) hs with
          | Some h when not (taken h) -> Some h
          | Some _ -> draw rng ~taken hs
          | None -> None
        in
        (i + 1, match h with Some h -> (h :: seen, h :: acc) | None -> (seen, acc)))
      (0, ([], []))
      cover.Cover.paths
  in
  List.rev (snd out)

(* Start spaces of 1-3 cubes, each a prefix (2 bits to the full length)
   of one of a few base addresses: cubes nest, overlap within a base,
   and the longest prefixes leave single-member spaces that exhaust. *)
let random_cover rng ~len ~n ~first_rule =
  let bases = Array.init (Prng.int_in rng 1 5) (fun _ -> Array.init len (fun _ -> Prng.bool rng)) in
  let prefix () =
    let b = Prng.choose rng bases and plen = Prng.int_in rng 2 len in
    Cube.of_bits
      (Array.init len (fun k ->
           if k >= plen then Cube.Any else if b.(k) then Cube.One else Cube.Zero))
  in
  List.init n (fun i ->
      let cubes = List.init (Prng.int_in rng 1 3) (fun _ -> prefix ()) in
      { Cover.vertices = [ first_rule + i ]; rules = [ first_rule + i ]; start_space = Hs.of_cubes len cubes })

let headers_equal expected got =
  List.compare_lengths expected got = 0
  && List.for_all2 (fun h (_, g) -> Header.equal h g) expected got

let pools = [ None; Some (Sdn_parallel.pool ~domains:2); Some (Sdn_parallel.pool ~domains:4) ]

let seed_arb = QCheck.make ~print:(Printf.sprintf "seed %d") QCheck.Gen.(int_bound 1_000_000)

let prop_components_sat_unique =
  QCheck.Test.make ~name:"Sat_unique by component = global pass" ~count:150 seed_arb
    (fun seed ->
      let rng = Prng.create seed in
      let len = Prng.int_in rng 4 10 in
      let cover =
        { Cover.paths = random_cover rng ~len ~n:(Prng.int_in rng 1 40) ~first_rule:0; untestable = [] }
      in
      let expected = oracle_sat_unique cover in
      List.for_all
        (fun pool -> headers_equal expected (Headers.assign ?pool Headers.Sat_unique cover))
        pools)

let prop_components_random =
  QCheck.Test.make ~name:"Random by component = global pass" ~count:150 seed_arb
    (fun seed ->
      let rng = Prng.create seed in
      let len = Prng.int_in rng 4 10 in
      let cover =
        { Cover.paths = random_cover rng ~len ~n:(Prng.int_in rng 1 40) ~first_rule:0; untestable = [] }
      in
      let expected = oracle_random (Prng.create seed) cover in
      List.for_all
        (fun pool ->
          headers_equal expected (Headers.assign ?pool (Headers.Random (Prng.create seed)) cover))
        pools)

(* A warm memo replays the prefix that still matches and recomputes
   the rest; the result is the cold call's. *)
let prop_components_memo =
  QCheck.Test.make ~name:"memo replay by component = cold call" ~count:100 seed_arb
    (fun seed ->
      let rng = Prng.create seed in
      let len = Prng.int_in rng 4 10 in
      let n = Prng.int_in rng 1 30 in
      let before = random_cover rng ~len ~n ~first_rule:0 in
      let keep = Prng.int rng (n + 1) in
      let after =
        List.filteri (fun i _ -> i < keep) before
        @ random_cover rng ~len ~n:(Prng.int_in rng 0 30) ~first_rule:(if Prng.bool rng then keep else 1000)
      in
      let after = { Cover.paths = after; untestable = [] } in
      let expected = oracle_sat_unique after in
      List.for_all
        (fun pool ->
          let memo = Headers.memo_create () in
          ignore (Headers.assign ?pool ~memo Headers.Sat_unique { Cover.paths = before; untestable = [] });
          headers_equal expected (Headers.assign ?pool ~memo Headers.Sat_unique after)
          && headers_equal expected (Headers.assign ?pool Headers.Sat_unique after))
        pools)

(* ------------------------------------------------------------------ *)
(* Traffic profiles (§V-C sFlow sampling) *)

let test_traffic_of_samples () =
  let h s = Header.of_string s in
  let t =
    Mlpc.Traffic.of_samples
      [ (h "00000000", 10); (h "11111111", 5); (h "01010101", 0) ]
  in
  check_int "flows (zero-count dropped)" 2 (Mlpc.Traffic.n_flows t);
  check_int "packets" 15 (Mlpc.Traffic.total_packets t)

let test_traffic_sample_in () =
  let h s = Header.of_string s in
  let t = Mlpc.Traffic.of_samples [ (h "00000001", 100); (h "10000001", 1) ] in
  let rng = Prng.create 3 in
  let zeros = Hs.of_cube (Cube.of_string "0xxxxxxx") in
  for _ = 1 to 20 do
    match Mlpc.Traffic.sample_in t rng zeros with
    | Some picked -> check_bool "restricted" true (Header.equal picked (h "00000001"))
    | None -> Alcotest.fail "expected a sample"
  done;
  (* Weighted: over the full space, the elephant flow dominates. *)
  let full = Hs.full 8 in
  let elephants =
    List.length
      (List.filter
         (fun _ ->
           match Mlpc.Traffic.sample_in t rng full with
           | Some p -> Header.equal p (h "00000001")
           | None -> false)
         (List.init 100 Fun.id))
  in
  check_bool "weighting" true (elephants > 80);
  (* No traffic in the space: None. *)
  check_bool "empty region" true
    (Mlpc.Traffic.sample_in t rng (Hs.of_cube (Cube.of_string "11xxxxxx")) = None)

let test_traffic_weighted_policy () =
  let fx = Fixtures.figure3 () in
  let rg3 = RG.build fx.Fixtures.net in
  let cover = LM.solve rg3 in
  let rng = Prng.create 5 in
  let traffic = Mlpc.Traffic.synthesize rng fx.Fixtures.net ~flows:50 in
  check_bool "synthesized flows" true (Mlpc.Traffic.n_flows traffic > 0);
  let assigned =
    Headers.assign (Headers.Traffic_weighted (traffic, Prng.create 6)) cover
  in
  check_int "one per path" (Mlpc.Cover.size cover) (List.length assigned);
  List.iter
    (fun ((p : Mlpc.Cover.path), (h : Header.t)) ->
      check_bool "in start space" true (Hs.mem (h :> Cube.t) p.Mlpc.Cover.start_space))
    assigned

let () =
  Alcotest.run "mlpc"
    [
      ( "figure6",
        [
          Alcotest.test_case "paper cover" `Quick test_figure6_cover;
          Alcotest.test_case "metrics" `Quick test_cover_metrics;
          Alcotest.test_case "paper header space" `Quick test_paper_header_space;
        ] );
      ( "minimality",
        [
          Alcotest.test_case "figure3 brute force" `Quick test_figure3_minimality_brute;
          Alcotest.test_case "random vs brute force" `Slow test_minimality_vs_brute_force;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "random networks" `Quick test_cover_invariants_random;
          Alcotest.test_case "untestable rules" `Quick test_untestable_reported;
        ] );
      ( "randomized",
        [
          Alcotest.test_case "valid covers" `Quick test_randomized_valid;
          Alcotest.test_case "diversity" `Quick test_randomized_diversity;
          Alcotest.test_case "size vs minimum" `Quick test_randomized_more_packets;
        ] );
      ( "headers",
        [
          Alcotest.test_case "deterministic" `Quick test_headers_deterministic;
          Alcotest.test_case "sat unique" `Quick test_headers_sat_unique;
          Alcotest.test_case "random" `Quick test_headers_random;
          QCheck_alcotest.to_alcotest prop_components_sat_unique;
          QCheck_alcotest.to_alcotest prop_components_random;
          QCheck_alcotest.to_alcotest prop_components_memo;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "of samples" `Quick test_traffic_of_samples;
          Alcotest.test_case "sample in space" `Quick test_traffic_sample_in;
          Alcotest.test_case "weighted policy" `Quick test_traffic_weighted_policy;
        ] );
    ]
