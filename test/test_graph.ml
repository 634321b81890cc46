(* Tests for the graph algorithm library. *)

module Digraph = Sdngraph.Digraph
module HK = Sdngraph.Hopcroft_karp
module SP = Sdngraph.Shortest_path
module Yen = Sdngraph.Yen
module Heap = Sdngraph.Heap
module UF = Sdngraph.Union_find
module Prng = Sdn_util.Prng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_sorts () =
  let rng = Prng.create 1 in
  let h = Heap.create () in
  let keys = List.init 200 (fun _ -> Prng.float rng 100.) in
  List.iter (fun k -> Heap.push h k k) keys;
  check_int "size" 200 (Heap.size h);
  let rec drain acc =
    match Heap.pop_min h with None -> List.rev acc | Some (k, _) -> drain (k :: acc)
  in
  let drained = drain [] in
  check_bool "sorted" true (drained = List.sort compare keys)

let test_heap_empty () =
  let h = Heap.create () in
  check_bool "pop empty" true (Heap.pop_min h = None);
  check_bool "peek empty" true (Heap.peek_min h = None);
  Heap.push h 1.0 "a";
  check_bool "peek" true (Heap.peek_min h = Some (1.0, "a"));
  check_int "size 1" 1 (Heap.size h)

let test_heap_clear () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.push h k k) [ 3.; 1.; 2. ];
  Heap.clear h;
  check_int "cleared" 0 (Heap.size h);
  check_bool "pop after clear" true (Heap.pop_min h = None);
  Heap.push h 5. 5.;
  check_bool "reusable" true (Heap.pop_min h = Some (5., 5.))

(* Out-of-line so the payloads' only strong references are the heap's
   backing array, not this test's stack frame. *)
let[@inline never] heap_fill_weak h w =
  let a = ref 1 and b = ref 2 in
  Weak.set w 0 (Some a);
  Weak.set w 1 (Some b);
  Heap.push h 1. a;
  Heap.push h 2. b

let test_heap_pop_releases () =
  (* Regression: pop_min used to leave the popped entry in the backing
     array, keeping its payload reachable until overwritten (or forever
     on a drained heap). *)
  let h = Heap.create () in
  let w = Weak.create 2 in
  heap_fill_weak h w;
  ignore (Heap.pop_min h);
  Gc.full_major ();
  check_bool "popped payload reclaimed" false (Weak.check w 0);
  check_bool "pending payload still live" true (Weak.check w 1);
  ignore (Heap.pop_min h);
  Gc.full_major ();
  check_bool "drained payload reclaimed" false (Weak.check w 1)

(* ------------------------------------------------------------------ *)
(* Digraph *)

let diamond () =
  (* 0 -> 1 -> 3, 0 -> 2 -> 3 *)
  let g = Digraph.create 4 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 3;
  Digraph.add_edge g 0 2;
  Digraph.add_edge g 2 3;
  g

let test_digraph_basics () =
  let g = diamond () in
  check_int "vertices" 4 (Digraph.n_vertices g);
  check_int "edges" 4 (Digraph.n_edges g);
  check_bool "mem" true (Digraph.mem_edge g 0 1);
  check_bool "not mem" false (Digraph.mem_edge g 1 0);
  check_bool "succ 0" true (List.sort compare (Digraph.succ g 0) = [ 1; 2 ]);
  check_bool "pred 3" true (List.sort compare (Digraph.pred g 3) = [ 1; 2 ]);
  Digraph.add_edge g 0 1;
  check_int "parallel ignored" 4 (Digraph.n_edges g)

let test_digraph_sources_sinks () =
  let g = diamond () in
  check_bool "sources" true (Digraph.sources g = [ 0 ]);
  check_bool "sinks" true (Digraph.sinks g = [ 3 ])

let test_topological_sort () =
  let g = diamond () in
  (match Digraph.topological_sort g with
  | None -> Alcotest.fail "dag expected"
  | Some order ->
      let pos = Array.make 4 0 in
      List.iteri (fun i v -> pos.(v) <- i) order;
      Digraph.iter_edges (fun u v -> check_bool "order respected" true (pos.(u) < pos.(v))) g);
  Digraph.add_edge g 3 0;
  check_bool "cycle detected" true (Digraph.topological_sort g = None);
  check_bool "has_cycle" true (Digraph.has_cycle g)

let test_find_cycle () =
  let g = diamond () in
  check_bool "acyclic" true (Digraph.find_cycle g = None);
  Digraph.add_edge g 3 1;
  match Digraph.find_cycle g with
  | None -> Alcotest.fail "cycle expected"
  | Some cycle ->
      check_bool "length >= 2" true (List.length cycle >= 2);
      (* consecutive vertices are edges and last wraps to first *)
      let arr = Array.of_list cycle in
      let n = Array.length arr in
      for i = 0 to n - 1 do
        check_bool "edge" true (Digraph.mem_edge g arr.(i) arr.((i + 1) mod n))
      done

let test_reachable () =
  let g = diamond () in
  let r = Digraph.reachable g 1 in
  check_bool "reach" true (r.(1) && r.(3) && (not r.(0)) && not r.(2))

let test_transpose () =
  let g = diamond () in
  let t = Digraph.transpose g in
  check_bool "reversed" true (Digraph.mem_edge t 1 0 && Digraph.mem_edge t 3 2);
  check_int "same count" (Digraph.n_edges g) (Digraph.n_edges t)

let test_connected_undirected () =
  let g = diamond () in
  check_bool "connected" true (Digraph.is_connected_undirected g);
  let g2 = Digraph.create 3 in
  Digraph.add_edge g2 0 1;
  check_bool "disconnected" false (Digraph.is_connected_undirected g2)

(* ------------------------------------------------------------------ *)
(* Hopcroft–Karp *)

let check_valid_matching nl nr adj (m : HK.matching) =
  let count = ref 0 in
  for u = 0 to nl - 1 do
    match m.match_l.(u) with
    | -1 -> ()
    | v ->
        incr count;
        check_bool "edge exists" true (List.mem v adj.(u));
        check_int "consistent" u m.match_r.(v)
  done;
  for v = 0 to nr - 1 do
    match m.match_r.(v) with
    | -1 -> ()
    | u -> check_int "consistent r" v m.match_l.(u)
  done;
  check_int "size" m.size !count

(* Exhaustive maximum matching for small graphs. *)
let brute_max_matching nl nr adj =
  ignore nr;
  let best = ref 0 in
  let used_r = Hashtbl.create 8 in
  let rec go u size =
    if u >= nl then best := max !best size
    else begin
      go (u + 1) size;
      List.iter
        (fun v ->
          if not (Hashtbl.mem used_r v) then begin
            Hashtbl.add used_r v ();
            go (u + 1) (size + 1);
            Hashtbl.remove used_r v
          end)
        adj.(u)
    end
  in
  go 0 0;
  !best

let test_hk_simple () =
  (* Perfect matching on a 3x3 cycle-ish graph. *)
  let adj = [| [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] |] in
  let m = HK.run ~nl:3 ~nr:3 adj in
  check_valid_matching 3 3 adj m;
  check_int "perfect" 3 m.size

let test_hk_vs_brute () =
  let rng = Prng.create 77 in
  for _ = 1 to 50 do
    let nl = 1 + Prng.int rng 7 and nr = 1 + Prng.int rng 7 in
    let adj =
      Array.init nl (fun _ ->
          List.filter (fun _ -> Prng.bool rng) (List.init nr Fun.id))
    in
    let m = HK.run ~nl ~nr adj in
    check_valid_matching nl nr adj m;
    check_int "maximum" (brute_max_matching nl nr adj) m.size
  done

(* ------------------------------------------------------------------ *)
(* Shortest paths *)

let weighted_graph () =
  let g = Digraph.create 5 in
  Digraph.add_edge ~weight:1. g 0 1;
  Digraph.add_edge ~weight:4. g 0 2;
  Digraph.add_edge ~weight:2. g 1 2;
  Digraph.add_edge ~weight:5. g 1 3;
  Digraph.add_edge ~weight:1. g 2 3;
  Digraph.add_edge ~weight:3. g 3 4;
  g

let test_dijkstra () =
  let g = weighted_graph () in
  let t = SP.dijkstra g 0 in
  Alcotest.(check (float 1e-9)) "d3" 4. t.SP.dist.(3);
  Alcotest.(check (float 1e-9)) "d4" 7. t.SP.dist.(4);
  check_bool "path" true (SP.path_to t 4 = Some [ 0; 1; 2; 3; 4 ])

let test_dijkstra_unreachable () =
  let g = Digraph.create 3 in
  Digraph.add_edge g 0 1;
  let t = SP.dijkstra g 0 in
  check_bool "unreachable" true (SP.path_to t 2 = None)

let test_dijkstra_blocked () =
  let g = weighted_graph () in
  let blocked_vertices = Array.make 5 false in
  blocked_vertices.(1) <- true;
  let t = SP.dijkstra ~blocked_vertices g 0 in
  check_bool "detour" true (SP.path_to t 3 = Some [ 0; 2; 3 ]);
  let t2 = SP.dijkstra ~blocked_edges:[ (0, 1) ] g 0 in
  check_bool "edge blocked" true (SP.path_to t2 3 = Some [ 0; 2; 3 ])

(* Floyd–Warshall reference for random comparison. *)
let floyd g =
  let n = Digraph.n_vertices g in
  let d = Array.make_matrix n n infinity in
  for i = 0 to n - 1 do
    d.(i).(i) <- 0.
  done;
  for u = 0 to n - 1 do
    List.iter (fun (v, w) -> if w < d.(u).(v) then d.(u).(v) <- w) (Digraph.succ_weighted g u)
  done;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if d.(i).(k) +. d.(k).(j) < d.(i).(j) then d.(i).(j) <- d.(i).(k) +. d.(k).(j)
      done
    done
  done;
  d

let test_dijkstra_vs_floyd () =
  let rng = Prng.create 31 in
  for _ = 1 to 20 do
    let n = 2 + Prng.int rng 10 in
    let g = Digraph.create n in
    for _ = 1 to 3 * n do
      let u = Prng.int rng n and v = Prng.int rng n in
      if u <> v then Digraph.add_edge ~weight:(1. +. Prng.float rng 9.) g u v
    done;
    let d = floyd g in
    for src = 0 to n - 1 do
      let t = SP.dijkstra g src in
      for dst = 0 to n - 1 do
        check_bool "agrees" true (abs_float (t.SP.dist.(dst) -. d.(src).(dst)) < 1e-9 ||
                                  (t.SP.dist.(dst) = infinity && d.(src).(dst) = infinity))
      done
    done
  done

let test_dijkstra_target () =
  (* Early exit at the target returns the same path and distance. *)
  let g = weighted_graph () in
  let full = SP.dijkstra g 0 in
  for dst = 0 to 4 do
    let early = SP.dijkstra ~target:dst g 0 in
    check_bool "same path" true (SP.path_to full dst = SP.path_to early dst);
    check_bool "same dist" true (full.SP.dist.(dst) = early.SP.dist.(dst))
  done

let test_dijkstra_workspace () =
  (* A reused workspace matches one-shot runs across sources and
     blocking configurations. *)
  let g = weighted_graph () in
  let ws = SP.workspace g in
  let t1 = SP.dijkstra_ws ws 0 in
  check_bool "first run" true (SP.path_to t1 4 = Some [ 0; 1; 2; 3; 4 ]);
  let t2 = SP.dijkstra_ws ws ~edge_blocked:(fun u v -> u = 0 && v = 1) 0 in
  check_bool "blocked edge, reused state" true (SP.path_to t2 3 = Some [ 0; 2; 3 ]);
  let t3 = SP.dijkstra_ws ws 1 in
  check_bool "new source, reused state" true (SP.path_to t3 4 = Some [ 1; 2; 3; 4 ]);
  let blocked_vertices = Array.make 5 false in
  blocked_vertices.(1) <- true;
  let t4 = SP.dijkstra_ws ws ~blocked_vertices ~target:3 0 in
  check_bool "blocked vertex + target" true (SP.path_to t4 3 = Some [ 0; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Yen *)

let test_yen_basic () =
  let g = weighted_graph () in
  let paths = Yen.k_shortest g ~src:0 ~dst:3 ~k:10 in
  check_bool "first is shortest" true (List.hd paths = [ 0; 1; 2; 3 ]);
  (* weights non-decreasing *)
  let ws = List.map (Yen.path_weight g) paths in
  check_bool "sorted" true (ws = List.sort compare ws);
  (* all loopless and distinct *)
  List.iter
    (fun p -> check_int "loopless" (List.length p) (List.length (List.sort_uniq compare p)))
    paths;
  check_int "distinct" (List.length paths) (List.length (List.sort_uniq compare paths));
  (* 0->3 paths: 012 3? Enumerate: 0-1-2-3 (4), 0-2-3 (5), 0-1-3 (6). *)
  check_int "count" 3 (List.length paths)

let test_yen_k_limit () =
  let g = weighted_graph () in
  check_int "k=1" 1 (List.length (Yen.k_shortest g ~src:0 ~dst:3 ~k:1));
  check_int "k=2" 2 (List.length (Yen.k_shortest g ~src:0 ~dst:3 ~k:2));
  check_bool "k=0" true (Yen.k_shortest g ~src:0 ~dst:3 ~k:0 = [])

let test_yen_no_path () =
  let g = Digraph.create 2 in
  check_bool "empty" true (Yen.k_shortest g ~src:0 ~dst:1 ~k:3 = [])

let test_yen_paths_valid () =
  let rng = Prng.create 11 in
  for _ = 1 to 10 do
    let n = 4 + Prng.int rng 8 in
    let g = Digraph.create n in
    for _ = 1 to 4 * n do
      let u = Prng.int rng n and v = Prng.int rng n in
      if u <> v then Digraph.add_edge ~weight:(1. +. Prng.float rng 4.) g u v
    done;
    let paths = Yen.k_shortest g ~src:0 ~dst:(n - 1) ~k:5 in
    List.iter
      (fun p ->
        check_bool "starts at src" true (List.hd p = 0);
        check_bool "ends at dst" true (List.nth p (List.length p - 1) = n - 1);
        let rec edges_ok = function
          | [] | [ _ ] -> true
          | u :: (v :: _ as rest) -> Digraph.mem_edge g u v && edges_ok rest
        in
        check_bool "edges exist" true (edges_ok p))
      paths
  done

(* Exhaustive loopless-path enumeration for small graphs. *)
let all_simple_paths g src dst =
  let n = Digraph.n_vertices g in
  let visited = Array.make n false in
  let acc = ref [] in
  let rec go u path =
    if u = dst then acc := List.rev path :: !acc
    else
      List.iter
        (fun (v, _) ->
          if not visited.(v) then begin
            visited.(v) <- true;
            go v (v :: path);
            visited.(v) <- false
          end)
        (Digraph.succ_weighted g u)
  in
  visited.(src) <- true;
  go src [ src ];
  !acc

let prop_yen_vs_brute =
  QCheck.Test.make ~name:"yen agrees with exhaustive k-shortest" ~count:100
    QCheck.small_nat (fun seed ->
      let rng = Prng.create (1 + seed) in
      let n = 3 + Prng.int rng 4 in
      let g = Digraph.create n in
      for _ = 1 to 3 * n do
        let u = Prng.int rng n and v = Prng.int rng n in
        (* continuous weights: ties have probability ~0, so the ranking
           is unambiguous *)
        if u <> v then Digraph.add_edge ~weight:(0.5 +. Prng.float rng 9.) g u v
      done;
      let src = 0 and dst = n - 1 in
      let k = 5 in
      let yen = Yen.k_shortest g ~src ~dst ~k in
      let all = all_simple_paths g src dst in
      let weights l = List.sort compare (List.map (Yen.path_weight g) l) in
      let expect =
        List.filteri (fun i _ -> i < k) (weights all)
      in
      List.length yen = min k (List.length all)
      && List.for_all (fun p -> List.mem p all) yen
      && (let got = weights yen in
          List.for_all2 (fun a b -> abs_float (a -. b) < 1e-9) got expect))

(* ------------------------------------------------------------------ *)
(* Union-find *)

let test_union_find () =
  let uf = UF.create 6 in
  check_int "initial classes" 6 (UF.n_classes uf);
  check_bool "union" true (UF.union uf 0 1);
  check_bool "union again" false (UF.union uf 1 0);
  ignore (UF.union uf 2 3);
  ignore (UF.union uf 1 2);
  check_bool "same" true (UF.same uf 0 3);
  check_bool "diff" false (UF.same uf 0 4);
  check_int "classes" 3 (UF.n_classes uf)

let () =
  Alcotest.run "graph"
    [
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "pop releases payload" `Quick test_heap_pop_releases;
        ] );
      ( "digraph",
        [
          Alcotest.test_case "basics" `Quick test_digraph_basics;
          Alcotest.test_case "sources/sinks" `Quick test_digraph_sources_sinks;
          Alcotest.test_case "toposort" `Quick test_topological_sort;
          Alcotest.test_case "find cycle" `Quick test_find_cycle;
          Alcotest.test_case "reachable" `Quick test_reachable;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "undirected connectivity" `Quick test_connected_undirected;
        ] );
      ( "matching",
        [
          Alcotest.test_case "hk simple" `Quick test_hk_simple;
          Alcotest.test_case "hk vs brute force" `Quick test_hk_vs_brute;
        ] );
      ( "shortest paths",
        [
          Alcotest.test_case "dijkstra" `Quick test_dijkstra;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "blocked" `Quick test_dijkstra_blocked;
          Alcotest.test_case "vs floyd" `Quick test_dijkstra_vs_floyd;
          Alcotest.test_case "target early exit" `Quick test_dijkstra_target;
          Alcotest.test_case "workspace reuse" `Quick test_dijkstra_workspace;
        ] );
      ( "yen",
        [
          Alcotest.test_case "basic" `Quick test_yen_basic;
          Alcotest.test_case "k limit" `Quick test_yen_k_limit;
          Alcotest.test_case "no path" `Quick test_yen_no_path;
          Alcotest.test_case "paths valid" `Quick test_yen_paths_valid;
          QCheck_alcotest.to_alcotest prop_yen_vs_brute;
        ] );
      ("union-find", [ Alcotest.test_case "basics" `Quick test_union_find ]);
    ]
