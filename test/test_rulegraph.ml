(* Tests for rule-graph construction and legal transitive closure,
   anchored on the paper's Figure 3/4 example. *)

module RG = Rulegraph.Rule_graph
module Digraph = Sdngraph.Digraph
module Cube = Hspace.Cube
module Hs = Hspace.Hs
module FE = Openflow.Flow_entry
module Network = Openflow.Network

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fx = lazy (Fixtures.figure3 ())

let rg = lazy (RG.build (Lazy.force fx).Fixtures.net)

let v e = RG.vertex_of_entry (Lazy.force rg) e.FE.id

let edge a b =
  let g = RG.graph (Lazy.force rg) in
  Digraph.mem_edge g (v a) (v b)

let base_edge a b =
  let g = RG.base_graph (Lazy.force rg) in
  Digraph.mem_edge g (v a) (v b)

(* ------------------------------------------------------------------ *)
(* Figure 3 base graph (Step 1) *)

let test_figure3_base_edges () =
  let f = Lazy.force fx in
  (* Edges stated or implied by the figure. *)
  check_bool "a1->b1" true (base_edge f.Fixtures.a1 f.Fixtures.b1);
  check_bool "b1->c1" true (base_edge f.Fixtures.b1 f.Fixtures.c1);
  check_bool "b1->c2" true (base_edge f.Fixtures.b1 f.Fixtures.c2);
  check_bool "b2->c2" true (base_edge f.Fixtures.b2 f.Fixtures.c2);
  check_bool "b3->d1" true (base_edge f.Fixtures.b3 f.Fixtures.d1);
  check_bool "c1->e1" true (base_edge f.Fixtures.c1 f.Fixtures.e1);
  check_bool "c2->e1" true (base_edge f.Fixtures.c2 f.Fixtures.e1);
  check_bool "c2->e2" true (base_edge f.Fixtures.c2 f.Fixtures.e2);
  check_bool "d1->e3" true (base_edge f.Fixtures.d1 f.Fixtures.e3)

let test_figure3_no_edges () =
  let f = Lazy.force fx in
  (* §V-A: no edge (c1, e2): 00100xxx ∩ (001xxxxx − 0010xxxx) = ∅. *)
  check_bool "c1->e2 absent" false (base_edge f.Fixtures.c1 f.Fixtures.e2);
  (* b2 does not reach c1 (0011 vs 00100). *)
  check_bool "b2->c1 absent" false (base_edge f.Fixtures.b2 f.Fixtures.c1);
  (* a1 only reaches b1 among B's rules. *)
  check_bool "a1->b2 absent" false (base_edge f.Fixtures.a1 f.Fixtures.b2);
  check_bool "a1->b3 absent" false (base_edge f.Fixtures.a1 f.Fixtures.b3);
  (* drop rules have no successors *)
  check_int "e1 out-degree" 0
    (Digraph.out_degree (RG.base_graph (Lazy.force rg)) (v f.Fixtures.e1))

let test_figure3_dag () =
  let g = RG.base_graph (Lazy.force rg) in
  check_bool "acyclic" false (Digraph.has_cycle g)

(* ------------------------------------------------------------------ *)
(* Legal paths (Definition 1) *)

let test_legal_path_positive () =
  let f = Lazy.force fx in
  let path = List.map v [ f.Fixtures.a1; f.Fixtures.b1; f.Fixtures.c2; f.Fixtures.e1 ] in
  check_bool "a1-b1-c2-e1 legal" true (RG.is_legal (Lazy.force rg) path);
  (* Its traversing headers are exactly 00101xxx (paper §V-B step 3). *)
  let ss = RG.start_space (Lazy.force rg) path in
  check_bool "start space" true
    (Hs.equal_sets ss (Hs.of_cubes 8 [ Cube.of_string "00101xxx" ]))

let test_legal_path_negative () =
  let f = Lazy.force fx in
  (* The illegal MPC path a1 -> b1 -> c1 -> e1 (§V-B). *)
  let path = List.map v [ f.Fixtures.a1; f.Fixtures.b1; f.Fixtures.c1; f.Fixtures.e1 ] in
  check_bool "a1-b1-c1-e1 illegal" false (RG.is_legal (Lazy.force rg) path)

let test_legal_path_with_set_field () =
  let f = Lazy.force fx in
  (* b3 -> d1 -> e3 requires d1's set field to produce 0111xxxx. *)
  let path = List.map v [ f.Fixtures.b3; f.Fixtures.d1; f.Fixtures.e3 ] in
  check_bool "legal through set field" true (RG.is_legal (Lazy.force rg) path);
  let ss = RG.start_space (Lazy.force rg) path in
  (* Injectable headers: anything matching 000xxxxx. *)
  check_bool "start space" true (Hs.equal_sets ss (Hs.of_cubes 8 [ Cube.of_string "000xxxxx" ]))

let test_forward_space () =
  let f = Lazy.force fx in
  let path = List.map v [ f.Fixtures.b3; f.Fixtures.d1; f.Fixtures.e3 ] in
  let out = RG.forward_space (Lazy.force rg) path in
  check_bool "forward space is 0111xxxx" true
    (Hs.equal_sets out (Hs.of_cubes 8 [ Cube.of_string "0111xxxx" ]))

(* ------------------------------------------------------------------ *)
(* Legal transitive closure (Step 2, Figure 4) *)

let test_closure_adds_b2_e2 () =
  let f = Lazy.force fx in
  check_bool "closure edge b2->e2" true (edge f.Fixtures.b2 f.Fixtures.e2);
  check_bool "b2->e2 not base" false (base_edge f.Fixtures.b2 f.Fixtures.e2);
  check_bool "is_closure_edge" true
    (RG.is_closure_edge (Lazy.force rg) (v f.Fixtures.b2) (v f.Fixtures.e2))

let test_closure_witness_expansion () =
  let f = Lazy.force fx in
  let path = List.map v [ f.Fixtures.b2; f.Fixtures.e2 ] in
  let expanded = RG.expand_path (Lazy.force rg) path in
  (* b2 -> e2 must expand through c2 (paper: "b2->e2 can be further
     converted to b2->c2->e2"). *)
  check_bool "expansion" true
    (expanded = List.map v [ f.Fixtures.b2; f.Fixtures.c2; f.Fixtures.e2 ]);
  check_bool "expanded is legal" true
    (not (Hs.is_empty (RG.forward_space (Lazy.force rg) expanded)))

let test_closure_does_not_add_illegal () =
  let f = Lazy.force fx in
  (* a1 -> e2 would require traversing c1/c2 with headers 00101xxx; e2's
     input is 0011xxxx, so no legal path exists. *)
  check_bool "a1->e2 absent" false (edge f.Fixtures.a1 f.Fixtures.e2);
  (* a1 -> e1 IS a legal two-hop extension: closure adds it. *)
  check_bool "a1->e1 closure" true (edge f.Fixtures.a1 f.Fixtures.e1)

let test_closure_edges_all_legal () =
  let r = Lazy.force rg in
  let g = RG.graph r in
  Digraph.iter_edges
    (fun u v -> check_bool "edge legal" true (RG.is_legal r [ u; v ]))
    g

let test_no_closure_build () =
  let f = Lazy.force fx in
  let r = RG.build ~closure:false f.Fixtures.net in
  check_int "same edges as base" (Digraph.n_edges (RG.base_graph r))
    (Digraph.n_edges (RG.graph r))

let test_expand_path_nested_closures () =
  (* A 5-switch chain with one rule per switch: the closure adds an
     edge for every vertex pair (i, j), i < j, so a path can be built
     entirely of closure edges. expand_path must splice each witness
     interior back in, producing the base-edge chain. *)
  let topo = Openflow.Topology.create ~n_switches:5 in
  for i = 0 to 3 do
    Openflow.Topology.add_link topo ~sw_a:i ~port_a:2 ~sw_b:(i + 1) ~port_b:1
  done;
  let net = Network.create ~header_len:4 topo in
  let rule sw action =
    Network.add_entry net ~switch:sw ~priority:1 ~match_:(Cube.of_string "1xxx") action
  in
  let rules =
    List.init 4 (fun i -> rule i (FE.Output 2)) @ [ rule 4 FE.Drop ]
  in
  let r = RG.build net in
  let vv i = RG.vertex_of_entry r (List.nth rules i).FE.id in
  let chain = List.init 5 vv in
  (* Two consecutive closure edges: 0 -> 2 -> 4. *)
  check_bool "0->2 closure" true (RG.is_closure_edge r (vv 0) (vv 2));
  check_bool "2->4 closure" true (RG.is_closure_edge r (vv 2) (vv 4));
  check_bool "two-hop expansion" true
    (RG.expand_path r [ vv 0; vv 2; vv 4 ] = chain);
  (* A single closure edge spanning the whole chain. *)
  check_bool "0->4 closure" true (RG.is_closure_edge r (vv 0) (vv 4));
  check_bool "full-span expansion" true (RG.expand_path r [ vv 0; vv 4 ] = chain);
  check_bool "expansion legal" true
    (not (Hs.is_empty (RG.forward_space r chain)));
  (* A pair that is neither a base nor a closure edge is rejected. *)
  check_bool "reverse pair rejected" true
    (try
       ignore (RG.expand_path r [ vv 4; vv 0 ]);
       false
     with Invalid_argument _ -> true)

let test_cyclic_policy_through_rewrites () =
  (* Two switches bouncing a packet via set-field rewrites: sw0 sends
     0xxx as 1xxx, sw1 sends it back as 0xxx. The match fields are
     disjoint, so the loop exists only through the rewrites — build
     must still reject it. *)
  let topo = Openflow.Topology.create ~n_switches:2 in
  Openflow.Topology.add_link topo ~sw_a:0 ~port_a:1 ~sw_b:1 ~port_b:1;
  let net = Network.create ~header_len:4 topo in
  let a =
    Network.add_entry net ~switch:0 ~priority:1 ~match_:(Cube.of_string "0xxx")
      ~set_field:(Cube.of_string "1xxx") (FE.Output 1)
  in
  let b =
    Network.add_entry net ~switch:1 ~priority:1 ~match_:(Cube.of_string "1xxx")
      ~set_field:(Cube.of_string "0xxx") (FE.Output 1)
  in
  check_bool "raises with both entries" true
    (try
       ignore (RG.build net);
       false
     with RG.Cyclic_policy cycle ->
       List.sort compare cycle = List.sort compare [ a.FE.id; b.FE.id ])

(* ------------------------------------------------------------------ *)
(* Inputs/outputs and lookup *)

let test_vertex_roundtrip () =
  let r = Lazy.force rg in
  check_int "10 vertices" 10 (RG.n_vertices r);
  for i = 0 to RG.n_vertices r - 1 do
    let e = RG.vertex_entry r i in
    check_int "roundtrip" i (RG.vertex_of_entry r e.FE.id)
  done

let test_cyclic_policy_rejected () =
  (* Two switches forwarding the same header space at each other. *)
  let topo = Openflow.Topology.create ~n_switches:2 in
  Openflow.Topology.add_link topo ~sw_a:0 ~port_a:1 ~sw_b:1 ~port_b:1;
  let net = Network.create ~header_len:4 topo in
  let m = Cube.of_string "1xxx" in
  let _ = Network.add_entry net ~switch:0 ~priority:1 ~match_:m (FE.Output 1) in
  let _ = Network.add_entry net ~switch:1 ~priority:1 ~match_:m (FE.Output 1) in
  check_bool "raises" true
    (try
       ignore (RG.build net);
       false
     with RG.Cyclic_policy cycle -> List.length cycle >= 2)

let test_multi_table_goto () =
  (* A single switch with two tables chained by goto; edge must exist
     between the matching entries. *)
  let topo = Openflow.Topology.create ~n_switches:2 in
  Openflow.Topology.add_link topo ~sw_a:0 ~port_a:1 ~sw_b:1 ~port_b:1;
  let net = Network.create ~header_len:4 ~tables_per_switch:2 topo in
  let t0 =
    Network.add_entry net ~switch:0 ~table:0 ~priority:1 ~match_:(Cube.of_string "1xxx")
      (FE.Goto_table 1)
  in
  let t1 =
    Network.add_entry net ~switch:0 ~table:1 ~priority:1 ~match_:(Cube.of_string "11xx")
      (FE.Output 1)
  in
  let sink =
    Network.add_entry net ~switch:1 ~priority:1 ~match_:(Cube.of_string "xxxx") FE.Drop
  in
  let r = RG.build net in
  let vv e = RG.vertex_of_entry r e.FE.id in
  check_bool "goto edge" true (Digraph.mem_edge (RG.base_graph r) (vv t0) (vv t1));
  check_bool "cross switch" true (Digraph.mem_edge (RG.base_graph r) (vv t1) (vv sink));
  check_bool "goto path legal" true (RG.is_legal r [ vv t0; vv t1; vv sink ])

(* ------------------------------------------------------------------ *)
(* Incremental updates *)

(* What [update] promises (rule_graph.mli): adjacency-order identical
   graphs, the same witnesses and representation-identical spaces.
   Compared per vertex in entry ids, the one name both graphs share. *)
let same_cubes = List.equal Cube.equal

let repr_equal a b = same_cubes (Hs.cubes a) (Hs.cubes b)

let same_graphs rg_inc rg_full =
  check_int "same vertex count" (RG.n_vertices rg_full) (RG.n_vertices rg_inc);
  let id rg v = (RG.vertex_entry rg v).FE.id in
  let succ_ids rg g v = List.map (id rg) (Digraph.succ g v) in
  let witness_ids rg u v = List.map (List.map (id rg)) (RG.witnesses rg u v) in
  for v = 0 to RG.n_vertices rg_full - 1 do
    let vi = RG.vertex_of_entry rg_inc (id rg_full v) in
    check_bool "same base successor order" true
      (succ_ids rg_inc (RG.base_graph rg_inc) vi = succ_ids rg_full (RG.base_graph rg_full) v);
    let full_inc = Digraph.succ (RG.graph rg_inc) vi
    and full_full = Digraph.succ (RG.graph rg_full) v in
    check_bool "same full successor order" true
      (List.map (id rg_inc) full_inc = List.map (id rg_full) full_full);
    List.iter2
      (fun wi w ->
        check_bool "same witnesses" true (witness_ids rg_inc vi wi = witness_ids rg_full v w))
      full_inc full_full;
    check_bool "same input cubes" true (repr_equal (RG.input rg_inc vi) (RG.input rg_full v));
    check_bool "same output cubes" true
      (repr_equal (RG.output rg_inc vi) (RG.output rg_full v))
  done

let test_incremental_add () =
  let f = Fixtures.figure3 () in
  let rg0 = RG.build f.Fixtures.net in
  (* Add a new high-priority rule on switch C: it shadows part of c2 and
     changes C's inputs, edges, and closure paths. *)
  let _new_rule =
    Network.add_entry f.Fixtures.net ~switch:Fixtures.sw_c ~priority:3
      ~match_:(Cube.of_string "0011xxxx")
      (FE.Output 2)
  in
  let rg_inc = RG.update rg0 ~changed_tables:[ (Fixtures.sw_c, 0) ] in
  let rg_full = RG.build f.Fixtures.net in
  same_graphs rg_inc rg_full

let test_incremental_remove () =
  let f = Fixtures.figure3 () in
  let rg0 = RG.build f.Fixtures.net in
  (* Removing c1 un-shadows c2's input (0010xxxx returns to it). *)
  Network.remove_entry f.Fixtures.net f.Fixtures.c1.FE.id;
  let rg_inc = RG.update rg0 ~changed_tables:[ (Fixtures.sw_c, 0) ] in
  let rg_full = RG.build f.Fixtures.net in
  same_graphs rg_inc rg_full

let test_incremental_random_churn () =
  let rng = Sdn_util.Prng.create 23 in
  for _ = 1 to 8 do
    let net =
      Fixtures.random_line_net rng ~n_switches:5 ~rules_per_switch:4 ~header_len:8
    in
    let rg0 = RG.build net in
    (* Random churn: remove one entry, add one entry, on random switches. *)
    let entries = Network.all_entries net in
    let victim = List.nth entries (Sdn_util.Prng.int rng (List.length entries)) in
    Network.remove_entry net victim.FE.id;
    let sw = Sdn_util.Prng.int rng 4 in
    let added =
      Network.add_entry net ~switch:sw
        ~priority:(1 + Sdn_util.Prng.int rng 9)
        ~match_:(Hspace.Cube.random rng 8)
        (FE.Output 2)
    in
    let changed_tables =
      List.sort_uniq compare [ (victim.FE.switch, victim.FE.table); (added.FE.switch, 0) ]
    in
    let rg_inc = RG.update rg0 ~changed_tables in
    let rg_full = RG.build net in
    same_graphs rg_inc rg_full
  done

let test_incremental_cycle_detected () =
  let topo = Openflow.Topology.create ~n_switches:2 in
  Openflow.Topology.add_link topo ~sw_a:0 ~port_a:1 ~sw_b:1 ~port_b:1;
  let net = Network.create ~header_len:4 topo in
  let m = Cube.of_string "1xxx" in
  let _ = Network.add_entry net ~switch:0 ~priority:1 ~match_:m (FE.Output 1) in
  let rg0 = RG.build net in
  (* Adding the reverse rule closes a loop. *)
  let _ = Network.add_entry net ~switch:1 ~priority:1 ~match_:m (FE.Output 1) in
  check_bool "cycle raised" true
    (try
       ignore (RG.update rg0 ~changed_tables:[ (1, 0) ]);
       false
     with RG.Cyclic_policy _ -> true)

(* A legality claim through a dirty vertex must not survive an edit,
   even when no vertex of the chain changed. Line 0-1-2-3: [u] reaches
   [v] through [x1] (0xxx) or [x2] (1xxx), and [x1] is explored first,
   so the claim [a; u; v] expands through [x1] and holds. Reinstalling
   an identical [x1] gives it a larger id: it now sorts after [x2], the
   closure edge's first witness becomes [x2], and [a]'s 0xxx cannot
   take it. *)
let test_incremental_dirty_claim () =
  let topo = Openflow.Topology.create ~n_switches:4 in
  for i = 0 to 2 do
    Openflow.Topology.add_link topo ~sw_a:i ~port_a:2 ~sw_b:(i + 1) ~port_b:1
  done;
  let net = Network.create ~header_len:4 topo in
  let add sw m action =
    Network.add_entry net ~switch:sw ~priority:1 ~match_:(Cube.of_string m) action
  in
  let a = add 0 "0xxx" (FE.Output 2) and u = add 1 "xxxx" (FE.Output 2) in
  let x1 = add 2 "0xxx" (FE.Output 2) in
  let _x2 = add 2 "1xxx" (FE.Output 2) and v = add 3 "xxxx" FE.Drop in
  let chain rg = List.map (fun e -> RG.vertex_of_entry rg e.FE.id) [ a; u; v ] in
  let old = RG.build net in
  check_bool "claim holds through x1" true (RG.is_injectable old (chain old));
  Network.remove_entry net x1.FE.id;
  ignore (add 2 "0xxx" (FE.Output 2));
  let upd = RG.update old ~changed_tables:[ (2, 0) ] in
  check_bool "fresh build refutes it" false
    (RG.is_injectable (RG.build net) (chain upd));
  check_bool "updated graph refutes it" false (RG.is_injectable upd (chain upd));
  check_bool "old graph still holds it" true (RG.is_injectable old (chain old))

(* Stores that [update] carries over are exact, and [update] leaves its
   argument usable. A small generated network (single- or two-table)
   has its caches warmed by a solve, then takes random remove/reinstall
   churn. Every query below is answered by the updated graph as by a
   fresh build of the mutated network: the start, forward and injection
   spaces of every fresh cover path and of every closure-graph 2-chain
   (expanded), and the legality of those chains. *)
let answers rg paths =
  let id v = (RG.vertex_entry rg v).FE.id in
  List.map
    (fun chain ->
      let path = RG.expand_path rg chain in
      ( Hs.cubes (RG.start_space rg path),
        Hs.cubes (RG.forward_space rg path),
        Option.map
          (fun (rules, hs) -> (List.map id rules, Hs.cubes hs))
          (RG.injection_plan rg path),
        RG.is_injectable rg chain ))
    paths

let queries rg =
  let g = RG.graph rg in
  List.map (fun (p : Mlpc.Cover.path) -> p.Mlpc.Cover.vertices)
    (Mlpc.Legal_matching.solve rg).Mlpc.Cover.paths
  @ List.map (fun (u, v) -> [ u; v ]) (Digraph.edges g)

let cover_repr (c : Mlpc.Cover.t) =
  ( List.map
      (fun (p : Mlpc.Cover.path) ->
        (p.Mlpc.Cover.vertices, p.Mlpc.Cover.rules, Hs.cubes p.Mlpc.Cover.start_space))
      c.Mlpc.Cover.paths,
    c.Mlpc.Cover.untestable )

let same_answers a b =
  List.equal
    (fun (s, f, i, l) (s', f', i', l') ->
      same_cubes s s' && same_cubes f f'
      && Option.equal (fun (r, h) (r', h') -> r = r' && same_cubes h h') i i'
      && l = l')
    a b

let carried_stores_exact (seed, ops) =
  let rng = Sdn_util.Prng.create seed in
  (* Two-table pipelines grow the closure fast: fewer switches there. *)
  let two_table = seed mod 2 = 1 in
  let topo =
    Topogen.Topo_gen.rocketfuel_like rng ~n_switches:(if two_table then 4 else 6) ()
  in
  let spec =
    if two_table then
      { Topogen.Rule_gen.default_spec with acl_rules_per_switch = 1; flows_per_destination = 2 }
    else Topogen.Rule_gen.default_spec
  in
  let net = Topogen.Rule_gen.install ~spec rng topo in
  let old = RG.build net in
  let old_queries = queries old in
  let old_answers = answers old old_queries in
  let misses rg = List.assoc "space_cache_misses" (RG.cache_stats rg) in
  let old_misses = misses old in
  let changed_tables =
    List.sort_uniq compare
      (List.init ops (fun _ ->
           let entries = Network.all_entries net in
           let v = List.nth entries (Sdn_util.Prng.int rng (List.length entries)) in
           Network.remove_entry net v.FE.id;
           if Sdn_util.Prng.bool rng then
             ignore
               (Network.add_entry net ~switch:v.FE.switch ~table:v.FE.table
                  ~priority:v.FE.priority ~match_:v.FE.match_ ~set_field:v.FE.set_field
                  v.FE.action);
           (v.FE.switch, v.FE.table)))
  in
  match RG.update old ~changed_tables with
  | exception RG.Cyclic_policy _ -> QCheck.assume_fail ()
  | upd ->
      let fresh = RG.build net in
      same_graphs upd fresh;
      (* Same network, same entry order: vertex numbers agree. The old
         cover's surviving chains join the queries: their claims were
         cached before the edit. *)
      let survivors =
        List.filter_map
          (fun chain ->
            try
              Some
                (List.map
                   (fun v -> RG.vertex_of_entry upd (RG.vertex_entry old v).FE.id)
                   chain)
            with Not_found -> None)
          old_queries
        |> List.filter (fun chain ->
               try RG.expand_path fresh chain <> [] with Invalid_argument _ -> false)
      in
      let fresh_queries = queries fresh @ survivors in
      same_answers (answers upd fresh_queries) (answers fresh fresh_queries)
      && same_answers (answers old old_queries) old_answers
      && misses old = old_misses
      &&
      let warm = cover_repr (Mlpc.Legal_matching.solve upd) in
      RG.invalidate_caches upd;
      warm = cover_repr (Mlpc.Legal_matching.solve upd)

let test_incremental_carried_stores =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"carried-over stores exact, argument intact" ~count:20
       QCheck.(pair (int_bound 100_000) (1 -- 3))
       carried_stores_exact)

(* ------------------------------------------------------------------ *)
(* Static policy checks: the lint engine's loop, blackhole and shadow
   passes, in pass order *)

module D = Lint.Diagnostic

let static_checks net =
  (Lint.Engine.run ~only:[ "L001"; "L002"; "L003" ] net).Lint.Engine.diagnostics

let test_static_clean () =
  let f = Fixtures.figure3 () in
  check_bool "figure3 is clean of loops/shadows" true
    (List.for_all
       (fun (d : D.t) -> d.D.check = "L002-blackhole")
       (static_checks f.Fixtures.net))

let test_static_loop () =
  let topo = Openflow.Topology.create ~n_switches:2 in
  Openflow.Topology.add_link topo ~sw_a:0 ~port_a:1 ~sw_b:1 ~port_b:1;
  let net = Network.create ~header_len:4 topo in
  let m = Cube.of_string "1xxx" in
  let a = Network.add_entry net ~switch:0 ~priority:1 ~match_:m (FE.Output 1) in
  let b = Network.add_entry net ~switch:1 ~priority:1 ~match_:m (FE.Output 1) in
  match static_checks net with
  | { D.check = "L001-forwarding-loop"; entries; _ } :: _ ->
      check_bool "both entries on the loop" true
        (List.sort compare entries = List.sort compare [ a.FE.id; b.FE.id ])
  | _ -> Alcotest.fail "expected a loop issue first"

let test_static_blackhole () =
  let topo = Openflow.Topology.create ~n_switches:2 in
  Openflow.Topology.add_link topo ~sw_a:0 ~port_a:1 ~sw_b:1 ~port_b:1;
  let net = Network.create ~header_len:4 topo in
  (* Switch 0 forwards 1xxx; switch 1 only matches 11xx: 10xx dies. *)
  let fwd =
    Network.add_entry net ~switch:0 ~priority:1 ~match_:(Cube.of_string "1xxx")
      (FE.Output 1)
  in
  let _ =
    Network.add_entry net ~switch:1 ~priority:1 ~match_:(Cube.of_string "11xx") FE.Drop
  in
  match static_checks net with
  | [ { D.check = "L002-blackhole"; entries; switch; witness; _ } ] ->
      check_bool "leaking rule" true (entries = [ fwd.FE.id ]);
      check_bool "at switch" true (switch = Some 1);
      check_bool "leaked space" true
        (Hs.equal_sets witness (Hs.of_cubes 4 [ Cube.of_string "10xx" ]))
  | _ -> Alcotest.fail "expected exactly one blackhole"

let test_static_shadowed () =
  let topo = Openflow.Topology.create ~n_switches:2 in
  Openflow.Topology.add_link topo ~sw_a:0 ~port_a:1 ~sw_b:1 ~port_b:1;
  let net = Network.create ~header_len:4 topo in
  let _hi =
    Network.add_entry net ~switch:0 ~priority:2 ~match_:(Cube.of_string "1xxx")
      (FE.Output 1)
  in
  let shadowed =
    Network.add_entry net ~switch:0 ~priority:1 ~match_:(Cube.of_string "11xx")
      (FE.Output 1)
  in
  let _sink =
    Network.add_entry net ~switch:1 ~priority:1 ~match_:(Cube.of_string "xxxx") FE.Drop
  in
  check_bool "shadow reported" true
    (List.exists
       (fun (d : D.t) ->
         d.D.check = "L003-shadowed-rule" && List.hd d.D.entries = shadowed.FE.id)
       (static_checks net))

(* ------------------------------------------------------------------ *)
(* Space caches *)

let test_cache_hits_and_invalidation () =
  let f = Fixtures.figure3 () in
  let rg = RG.build f.Fixtures.net in
  let v e = RG.vertex_of_entry rg e.FE.id in
  let path = List.map v [ f.Fixtures.a1; f.Fixtures.b1; f.Fixtures.c2; f.Fixtures.e1 ] in
  let stat name rg = List.assoc name (RG.cache_stats rg) in
  (* build itself may have consulted the caches; measure deltas *)
  let h0 = stat "space_cache_hits" rg and m0 = stat "space_cache_misses" rg in
  let s1 = RG.start_space rg path in
  let m1 = stat "space_cache_misses" rg in
  check_bool "cold query misses" true (m1 > m0);
  let s2 = RG.start_space rg path in
  check_bool "warm query hits" true (stat "space_cache_hits" rg > h0);
  check_int "no new misses" m1 (stat "space_cache_misses" rg);
  check_bool "memoized result identical" true (Hs.equal_sets s1 s2);
  RG.invalidate_caches rg;
  let s3 = RG.start_space rg path in
  check_bool "invalidate forces recompute" true (stat "space_cache_misses" rg > m1);
  check_bool "recomputed result identical" true (Hs.equal_sets s1 s3);
  (* forward_space and injection_plan go through the same machinery *)
  let fwd1 = RG.forward_space rg path and fwd2 = RG.forward_space rg path in
  check_bool "forward memoized" true (Hs.equal_sets fwd1 fwd2)

let test_cached_spaces_match_fresh_graph () =
  (* Memoized answers on a warm graph = answers from a fresh build. *)
  let rng = Sdn_util.Prng.create 17 in
  let topo = Topogen.Topo_gen.rocketfuel_like rng ~n_switches:8 () in
  let net = Topogen.Rule_gen.install rng topo in
  let rg = RG.build net in
  let cover = Mlpc.Legal_matching.solve rg in
  let fresh = RG.build net in
  List.iter
    (fun (p : Mlpc.Cover.path) ->
      let rules = p.Mlpc.Cover.rules in
      (* second query per graph is served from cache *)
      ignore (RG.start_space rg rules);
      check_bool "start space stable" true
        (Hs.equal_sets (RG.start_space rg rules) (RG.start_space fresh rules));
      check_bool "forward space stable" true
        (Hs.equal_sets (RG.forward_space rg rules) (RG.forward_space fresh rules)))
    cover.Mlpc.Cover.paths

let test_static_generated_clean () =
  (* The synthetic policies are loop-free and shadow-free by
     construction. *)
  let rng = Sdn_util.Prng.create 31 in
  let topo = Topogen.Topo_gen.rocketfuel_like rng ~n_switches:10 () in
  let net = Topogen.Rule_gen.install rng topo in
  List.iter
    (fun (d : D.t) ->
      (* Blackholes are fine: unused selector values die by design. *)
      if d.D.check <> "L002-blackhole" then
        Alcotest.failf "unexpected issue: %s" (Format.asprintf "%a" D.pp d))
    (static_checks net)

let () =
  Alcotest.run "rulegraph"
    [
      ( "figure3 base",
        [
          Alcotest.test_case "edges present" `Quick test_figure3_base_edges;
          Alcotest.test_case "edges absent" `Quick test_figure3_no_edges;
          Alcotest.test_case "dag" `Quick test_figure3_dag;
        ] );
      ( "legal paths",
        [
          Alcotest.test_case "positive" `Quick test_legal_path_positive;
          Alcotest.test_case "negative (MPC trap)" `Quick test_legal_path_negative;
          Alcotest.test_case "set field" `Quick test_legal_path_with_set_field;
          Alcotest.test_case "forward space" `Quick test_forward_space;
        ] );
      ( "closure",
        [
          Alcotest.test_case "adds b2->e2" `Quick test_closure_adds_b2_e2;
          Alcotest.test_case "witness expansion" `Quick test_closure_witness_expansion;
          Alcotest.test_case "no illegal closure edges" `Quick test_closure_does_not_add_illegal;
          Alcotest.test_case "all closure edges legal" `Quick test_closure_edges_all_legal;
          Alcotest.test_case "closure off" `Quick test_no_closure_build;
          Alcotest.test_case "nested closure expansion" `Quick test_expand_path_nested_closures;
        ] );
      ( "structure",
        [
          Alcotest.test_case "vertex roundtrip" `Quick test_vertex_roundtrip;
          Alcotest.test_case "cyclic policy rejected" `Quick test_cyclic_policy_rejected;
          Alcotest.test_case "cyclic through rewrites" `Quick test_cyclic_policy_through_rewrites;
          Alcotest.test_case "multi-table goto" `Quick test_multi_table_goto;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "add rule" `Quick test_incremental_add;
          Alcotest.test_case "remove rule" `Quick test_incremental_remove;
          Alcotest.test_case "random churn" `Quick test_incremental_random_churn;
          Alcotest.test_case "cycle detected" `Quick test_incremental_cycle_detected;
          Alcotest.test_case "dirty legality claim evicted" `Quick
            test_incremental_dirty_claim;
          test_incremental_carried_stores;
        ] );
      ( "space caches",
        [
          Alcotest.test_case "hits and invalidation" `Quick test_cache_hits_and_invalidation;
          Alcotest.test_case "match fresh build" `Quick test_cached_spaces_match_fresh_graph;
        ] );
      ( "static checks",
        [
          Alcotest.test_case "figure3 clean" `Quick test_static_clean;
          Alcotest.test_case "loop" `Quick test_static_loop;
          Alcotest.test_case "blackhole" `Quick test_static_blackhole;
          Alcotest.test_case "shadowed" `Quick test_static_shadowed;
          Alcotest.test_case "generated policies clean" `Quick test_static_generated_clean;
        ] );
    ]
