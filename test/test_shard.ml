(* Sharded planning (docs/SHARD.md): partitioner invariants, the
   two-level cover's determinism (byte-identical at any domain count,
   golden digest pinned), hierarchical slicing, and the PR's acceptance
   property — sharded planning + hierarchical localization flags the
   exact same faulty-switch set as the flat pipeline, with and without
   seeded loss, at domains 1 and 4. *)

module Prng = Sdn_util.Prng
module Network = Openflow.Network
module FE = Openflow.Flow_entry
module Partition = Shard.Partition
module Splan = Shard.Splan
module Plan = Sdnprobe.Plan
module Runner = Sdnprobe.Runner
module Report = Sdnprobe.Report
module Config = Sdnprobe.Config
module Suspicion = Sdnprobe.Suspicion
module Emu = Dataplane.Emulator
module Impairment = Dataplane.Impairment
module W = Experiments.Workloads

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let pool n = Sdn_parallel.pool ~domains:n

let make_net ~switches ~seed =
  let rng = Prng.create seed in
  let topo = Topogen.Topo_gen.rocketfuel_like rng ~n_switches:switches () in
  Topogen.Rule_gen.install rng topo

(* Same per-probe encoding as test_parallel's plan_fingerprint, so the
   digests are comparable across plan flavours. *)
let fingerprint (probes : Sdnprobe.Probe.t list) =
  String.concat ";"
    (List.map
       (fun (pr : Sdnprobe.Probe.t) ->
         Printf.sprintf "%d:%s:%s" pr.Sdnprobe.Probe.id
           (String.concat "," (List.map string_of_int pr.Sdnprobe.Probe.rules))
           (Hspace.Header.to_string pr.Sdnprobe.Probe.header))
       probes)

let digest probes = Digest.to_hex (Digest.string (fingerprint probes))

(* ------------------------------------------------------------------ *)
(* Partition *)

let test_partition_covers () =
  let net = make_net ~switches:50 ~seed:3 in
  let topo = Network.topology net in
  let part = Partition.make ~target:12 topo in
  let n = Openflow.Topology.n_switches topo in
  let seen = Array.make (Partition.n_regions part) 0 in
  for sw = 0 to n - 1 do
    let r = Partition.region_of part sw in
    check_bool "region in range" true (r >= 0 && r < Partition.n_regions part);
    seen.(r) <- seen.(r) + 1
  done;
  Array.iteri
    (fun r count ->
      check_int (Printf.sprintf "size of region %d" r) count (Partition.size part r);
      check_bool "region non-empty" true (count > 0);
      (* switches lists are ascending and consistent with region_of *)
      let sws = Partition.switches part r in
      check_int "switches length" count (List.length sws);
      check_bool "ascending" true (List.sort compare sws = sws);
      List.iter
        (fun sw -> check_int "region_of agrees" r (Partition.region_of part sw))
        sws)
    seen;
  check_int "sizes sum to n" n (Array.fold_left ( + ) 0 seen)

let test_partition_deterministic () =
  let net = make_net ~switches:50 ~seed:3 in
  let topo = Network.topology net in
  let a = Partition.make ~target:12 topo and b = Partition.make ~target:12 topo in
  check_int "regions" (Partition.n_regions a) (Partition.n_regions b);
  check_int "cut edges" (Partition.cut_edges a) (Partition.cut_edges b);
  for sw = 0 to Openflow.Topology.n_switches topo - 1 do
    check_int "region_of" (Partition.region_of a sw) (Partition.region_of b sw)
  done

(* ------------------------------------------------------------------ *)
(* Sharded plan: structure, determinism across domain counts, golden. *)

let splan ?domains ?target net =
  let pool = Option.map pool domains in
  Splan.create ?pool ?target net

(* The two planners agree on one region (docs/SHARD.md, "One region is
   the flat plan"): with [~target] at least the switch count there is
   nothing to stitch, the region's cover IS the flat cover, and the
   probes — ids, rule paths and Sat_unique headers — and the untestable
   entries are byte-identical to [Pipeline.create]'s. *)
let test_splan_single_region_matches_flat () =
  List.iter
    (fun (label, net) ->
      let flat = Pipeline.plan (Pipeline.create net) in
      let n = Openflow.Topology.n_switches (Network.topology net) in
      List.iter
        (fun sp ->
          check_int (label ^ ": one region") 1 sp.Splan.stats.Splan.regions;
          check_int (label ^ ": nothing stitched") 0 sp.Splan.stats.Splan.stitched;
          check_str (label ^ ": probes match flat plan") (fingerprint flat.Plan.probes)
            (fingerprint sp.Splan.probes);
          check_bool (label ^ ": untestable match flat plan") true
            (sp.Splan.untestable
            = List.map
                (fun v -> (Rulegraph.Rule_graph.vertex_entry flat.Plan.rulegraph v).FE.id)
                flat.Plan.cover.Mlpc.Cover.untestable))
        [ splan net; splan ~target:n net ])
    [
      ("rocketfuel 16", make_net ~switches:16 ~seed:1);
      ("preset 16", snd (Topogen.Preset.scale ~n_switches:16));
    ]

let test_splan_covers_all_testable () =
  (* Two-level cover coverage: every entry is on some probe's rule list
     or reported untestable, regardless of how the net is cut. *)
  let net = make_net ~switches:16 ~seed:1 in
  let sp = splan ~target:4 net in
  check_bool "multi-region" true (sp.Splan.stats.Splan.regions > 1);
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun (p : Sdnprobe.Probe.t) ->
      List.iter (fun r -> Hashtbl.replace covered r ()) p.Sdnprobe.Probe.rules)
    sp.Splan.probes;
  List.iter (fun r -> Hashtbl.replace covered r ()) sp.Splan.untestable;
  List.iter
    (fun (e : FE.t) ->
      if not (Hashtbl.mem covered e.FE.id) then
        Alcotest.failf "entry %d neither covered nor untestable" e.FE.id)
    (Network.all_entries net)

let test_splan_identical_across_domains () =
  let net = make_net ~switches:16 ~seed:1 in
  let d1 = digest (splan ~domains:1 ~target:4 net).Splan.probes in
  let d2 = digest (splan ~domains:2 ~target:4 net).Splan.probes in
  let d4 = digest (splan ~domains:4 ~target:4 net).Splan.probes in
  check_str "domains 1 = 2" d1 d2;
  check_str "domains 2 = 4" d2 d4

(* Golden digest for the sharded plan (16 switches, seed 1, target 4 —
   6 regions, stitched cross-border probes), pinned under a 4-domain
   pool. If this moves, the sharded planner's bytes changed: partition,
   stitch order, lowering, or header assignment. *)
let test_splan_golden () =
  let net = make_net ~switches:16 ~seed:1 in
  let sp = splan ~domains:4 ~target:4 net in
  check_str "golden sharded digest" "af4518200c274702c3431867809026c8"
    (digest sp.Splan.probes)

(* ------------------------------------------------------------------ *)
(* Hierarchical slicing & region suspicion *)

let test_slice_prefers_region_border () =
  let net = make_net ~switches:16 ~seed:1 in
  let sp = splan ~target:4 net in
  let region_of sw = Splan.region_of sp sw in
  let next = ref 100_000 in
  let fresh_id () = incr next; !next in
  let checked = ref 0 in
  List.iter
    (fun (p : Sdnprobe.Probe.t) ->
      let rules = Array.of_list p.Sdnprobe.Probe.rules in
      let n = Array.length rules in
      (* The cuts Probe.slice considers border cuts: a table-0 rule
         whose switch is in a different region than its predecessor. *)
      let border_cut_exists =
        List.exists
          (fun i ->
            (Network.entry net rules.(i)).FE.table = 0
            && region_of (Network.entry net rules.(i)).FE.switch
               <> region_of (Network.entry net rules.(i - 1)).FE.switch)
          (List.init (max 0 (n - 1)) (fun k -> k + 1))
      in
      if border_cut_exists then
        match Sdnprobe.Probe.slice ~region_of net ~fresh_id p with
        | None -> Alcotest.fail "border cut exists but slice returned None"
        | Some (a, b) ->
            incr checked;
            let last_a =
              List.nth a.Sdnprobe.Probe.rules
                (List.length a.Sdnprobe.Probe.rules - 1)
            in
            let first_b = List.hd b.Sdnprobe.Probe.rules in
            check_bool "cut is at a region border" true
              (region_of (Network.entry net last_a).FE.switch
              <> region_of (Network.entry net first_b).FE.switch))
    sp.Splan.probes;
  check_bool "some cross-region probe was sliced" true (!checked > 0)

let test_slice_without_region_of_unchanged () =
  (* region_of = const: no border exists, behaviour must equal the
     legacy table-0/middle cut. *)
  let net = make_net ~switches:16 ~seed:1 in
  let plan = Pipeline.plan (Pipeline.create net) in
  let next = ref 0 in
  let fresh_id () = incr next; !next in
  List.iter
    (fun (p : Sdnprobe.Probe.t) ->
      next := 0;
      let legacy = Sdnprobe.Probe.slice net ~fresh_id p in
      next := 0;
      let flat_region = Sdnprobe.Probe.slice ~region_of:(fun _ -> 0) net ~fresh_id p in
      let enc = function
        | None -> "none"
        | Some (a, b) ->
            fingerprint [ a ] ^ "|" ^ fingerprint [ b ]
      in
      check_str "same slice" (enc legacy) (enc flat_region))
    plan.Plan.probes

let test_region_levels () =
  let s = Suspicion.create ~threshold:3 in
  (* rules 0,1,2 in region 0; rules 10,11 in region 1; rule 20 region 2 *)
  let region_of_rule r = r / 10 in
  List.iter
    (fun (rule, bumps) ->
      for _ = 1 to bumps do
        Suspicion.bump_rule s rule
      done)
    [ (0, 2); (1, 1); (2, 1); (10, 3); (11, 1); (20, 4) ];
  let got = Suspicion.region_levels s ~region_of_rule in
  (* region 0: 4, region 1: 4, region 2: 4 — level ties break on the
     region id, ascending: a total order. *)
  check_bool "totals and order" true (got = [ (0, 4); (1, 4); (2, 4) ]);
  Suspicion.decay_rule s 0 ~amount:2;
  let got = Suspicion.region_levels s ~region_of_rule in
  check_bool "after decay" true (got = [ (1, 4); (2, 4); (0, 2) ])

(* ------------------------------------------------------------------ *)
(* Acceptance property: sharded + hierarchical localization flags the
   exact same switch set as the flat pipeline. *)

let flat_flagged ~net ~seed ~impair ~domains =
  let emu = Emu.create net in
  if impair then
    Emu.set_impairment emu (Impairment.create (Impairment.spec ~seed:77 ~loss_rate:0.02 ()));
  let truth = W.inject (Prng.create (seed + 1)) ~kind:W.Drop_only ~fraction:0.02 emu in
  let config =
    Config.with_domains domains
      (Config.with_max_rounds 60 (if impair then Config.resilient else Config.default))
  in
  let plan = Pipeline.plan (Pipeline.create ?pool:(Config.pool config) net) in
  let report =
    Runner.execute ~stop:(Runner.stop_when_flagged truth) ~config ~emulator:emu plan
  in
  Report.flagged_switches report

let sharded_flagged ~net ~seed ~impair ~domains ~target =
  let emu = Emu.create net in
  if impair then
    Emu.set_impairment emu (Impairment.create (Impairment.spec ~seed:77 ~loss_rate:0.02 ()));
  let truth = W.inject (Prng.create (seed + 1)) ~kind:W.Drop_only ~fraction:0.02 emu in
  let config =
    Config.with_domains domains
      (Config.with_max_rounds 60 (if impair then Config.resilient else Config.default))
  in
  let sp = Splan.create ?pool:(Config.pool config) ~target net in
  let backend = Sdnprobe.Backend.of_emulator emu in
  let report =
    Runner.execute_probes ~stop:(Runner.stop_when_flagged truth)
      ~name:"sharded-sdnprobe" ~region_of:(Splan.region_of sp) ~config ~backend
      ~generation_s:sp.Splan.generation_s sp.Splan.probes
  in
  Report.flagged_switches report

let test_equivalence_16 =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"sharded localization = flat localization (16 sw, domains 1/4, ±loss)"
       ~count:4
       QCheck.(pair (int_bound 1000) bool)
       (fun (seed, impair) ->
         let net = make_net ~switches:16 ~seed in
         let flat = flat_flagged ~net ~seed ~impair ~domains:1 in
         let s1 = sharded_flagged ~net ~seed ~impair ~domains:1 ~target:4 in
         let s4 = sharded_flagged ~net ~seed ~impair ~domains:4 ~target:4 in
         flat = s1 && s1 = s4))

let test_equivalence_50 () =
  let net = make_net ~switches:50 ~seed:3 in
  List.iter
    (fun impair ->
      let flat = flat_flagged ~net ~seed:3 ~impair ~domains:1 in
      let s1 = sharded_flagged ~net ~seed:3 ~impair ~domains:1 ~target:12 in
      let s4 = sharded_flagged ~net ~seed:3 ~impair ~domains:4 ~target:12 in
      check_bool "flat localized something" true (flat <> []);
      check_bool
        (Printf.sprintf "flat = sharded@1 (impair %b)" impair)
        true (flat = s1);
      check_bool
        (Printf.sprintf "sharded@1 = sharded@4 (impair %b)" impair)
        true (s1 = s4))
    [ false; true ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "shard"
    [
      ( "partition",
        [
          Alcotest.test_case "covers all switches" `Quick test_partition_covers;
          Alcotest.test_case "deterministic" `Quick test_partition_deterministic;
        ] );
      ( "splan",
        [
          Alcotest.test_case "single region = flat plan" `Quick
            test_splan_single_region_matches_flat;
          Alcotest.test_case "covers all testable entries" `Quick
            test_splan_covers_all_testable;
          Alcotest.test_case "identical across domains" `Quick
            test_splan_identical_across_domains;
          Alcotest.test_case "golden digest" `Quick test_splan_golden;
        ] );
      ( "hierarchical",
        [
          Alcotest.test_case "slice prefers region borders" `Quick
            test_slice_prefers_region_border;
          Alcotest.test_case "slice w/o region_of unchanged" `Quick
            test_slice_without_region_of_unchanged;
          Alcotest.test_case "suspicion region levels" `Quick test_region_levels;
        ] );
      ( "equivalence",
        [
          test_equivalence_16;
          Alcotest.test_case "50 switches, ±loss, domains 1/4" `Slow
            test_equivalence_50;
        ] );
    ]
