(* End-to-end tests for SDNProbe: plan generation, slicing, and fault
   localization against the emulator (Algorithm 2). *)

module Emu = Dataplane.Emulator
module Fault = Dataplane.Fault
module Cube = Hspace.Cube
module Header = Hspace.Header
module FE = Openflow.Flow_entry
module Prng = Sdn_util.Prng
module Plan = Sdnprobe.Plan
module Probe = Sdnprobe.Probe
module Runner = Sdnprobe.Runner
module Report = Sdnprobe.Report
module Config = Sdnprobe.Config
module Suspicion = Sdnprobe.Suspicion

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let config = Config.default

(* Plan the emulator's network — static through a Pipeline session,
   randomized when [rng] is given — and run detection over it. *)
let detect ?stop ?rng ~config emu =
  let net = Emu.network emu in
  let plan =
    match rng with
    | Some rng -> Plan.randomized rng net
    | None -> Pipeline.plan (Pipeline.create net)
  in
  Runner.execute ?stop ~config ~emulator:emu plan

(* ------------------------------------------------------------------ *)
(* Probe mechanics *)

let test_probe_make () =
  let { Fixtures.cnet; r_a; r_b; r_c } = Fixtures.chain3 () in
  let p =
    Probe.make cnet ~id:0
      ~rules:[ r_a.FE.id; r_b.FE.id; r_c.FE.id ]
      ~header:(Header.of_string "10000001")
  in
  check_int "inject" 0 p.Probe.inject_switch;
  check_int "terminal switch" 2 p.Probe.terminal_switch;
  check_int "terminal rule" r_c.FE.id p.Probe.terminal_rule;
  check_bool "identity rewrite" true
    (Header.equal p.Probe.expected_header (Header.of_string "10000001"));
  check_int "hops" 3 (Probe.hop_count p)

let test_probe_expected_header_set_field () =
  let fx = Fixtures.figure3 () in
  let p =
    Probe.make fx.Fixtures.net ~id:0
      ~rules:[ fx.Fixtures.b3.FE.id; fx.Fixtures.d1.FE.id; fx.Fixtures.e3.FE.id ]
      ~header:(Header.of_string "00010101")
  in
  Alcotest.(check string) "after d1's set field" "01110101"
    (Header.to_string p.Probe.expected_header)

let test_probe_slice () =
  let { Fixtures.cnet; r_a; r_b; r_c } = Fixtures.chain3 () in
  let p =
    Probe.make cnet ~id:0
      ~rules:[ r_a.FE.id; r_b.FE.id; r_c.FE.id ]
      ~header:(Header.of_string "10000001")
  in
  let counter = ref 100 in
  let fresh_id () = incr counter; !counter in
  match Probe.slice cnet ~fresh_id p with
  | None -> Alcotest.fail "expected a slice"
  | Some (a, b) ->
      check_bool "first half" true (a.Probe.rules = [ r_a.FE.id ]);
      check_bool "second half" true (b.Probe.rules = [ r_b.FE.id; r_c.FE.id ]);
      check_int "b injects at switch 1" 1 b.Probe.inject_switch;
      check_bool "headers propagate" true
        (Header.equal b.Probe.header (Header.of_string "10000001"));
      check_bool "fresh ids" true (a.Probe.id > 100 && b.Probe.id > 100)

let test_probe_slice_singleton () =
  let { Fixtures.cnet; r_a; _ } = Fixtures.chain3 () in
  let p = Probe.make cnet ~id:0 ~rules:[ r_a.FE.id ] ~header:(Header.of_string "10000001") in
  check_bool "no slice" true (Probe.slice cnet ~fresh_id:(fun () -> 1) p = None)

let test_probe_slice_respects_set_fields () =
  let fx = Fixtures.figure3 () in
  let p =
    Probe.make fx.Fixtures.net ~id:0
      ~rules:[ fx.Fixtures.b3.FE.id; fx.Fixtures.d1.FE.id; fx.Fixtures.e3.FE.id ]
      ~header:(Header.of_string "00010101")
  in
  let counter = ref 0 in
  match Probe.slice fx.Fixtures.net ~fresh_id:(fun () -> incr counter; !counter) p with
  | None -> Alcotest.fail "expected slice"
  | Some (_, b) ->
      (* The second half starts at d1 or e3; its injected header must be
         the in-flight header at that point. *)
      (match b.Probe.rules with
      | first :: _ when first = fx.Fixtures.d1.FE.id ->
          Alcotest.(check string) "header before d1" "00010101"
            (Header.to_string b.Probe.header)
      | first :: _ when first = fx.Fixtures.e3.FE.id ->
          Alcotest.(check string) "header before e3" "01110101"
            (Header.to_string b.Probe.header)
      | _ -> Alcotest.fail "unexpected split")

(* ------------------------------------------------------------------ *)
(* Plan generation *)

let test_plan_generation () =
  let fx = Fixtures.figure3 () in
  let plan = Pipeline.plan (Pipeline.create fx.Fixtures.net) in
  check_int "four probes" 4 (Plan.size plan);
  (* All probes' headers lie in their paths' start spaces and are
     pairwise distinct (Sat_unique policy). *)
  let headers = List.map (fun p -> p.Probe.header) plan.Plan.probes in
  check_int "distinct" 4 (List.length (List.sort_uniq Header.compare headers))

let test_plan_probes_pass_cleanly () =
  (* On a fault-free network every probe must return: zero functional
     false positives by construction. *)
  let fx = Fixtures.figure3 () in
  let plan = Pipeline.plan (Pipeline.create fx.Fixtures.net) in
  let emu = Emu.create fx.Fixtures.net in
  List.iter
    (fun (p : Probe.t) ->
      Emu.install_trap emu ~probe:p.Probe.id ~switch:p.Probe.terminal_switch
        ~rule:p.Probe.terminal_rule ~header:p.Probe.expected_header;
      (match (Emu.inject emu ~at:p.Probe.inject_switch p.Probe.header).Emu.outcome with
      | Emu.Returned { probe; _ } when probe = p.Probe.id -> ()
      | _ -> Alcotest.failf "probe %d did not return" p.Probe.id);
      Emu.remove_probe_traps emu ~probe:p.Probe.id)
    plan.Plan.probes

let test_plan_redraw_varies () =
  let fx = Fixtures.figure3 () in
  let rng = Prng.create 3 in
  let plan = Plan.randomized rng fx.Fixtures.net in
  let covers =
    List.init 6 (fun _ ->
        let p = Plan.redraw plan rng in
        List.sort compare (List.map (fun pr -> pr.Probe.rules) p.Plan.probes))
  in
  check_bool "redraw varies" true (List.length (List.sort_uniq compare covers) > 1)

(* [Plan.randomized] and [Plan.redraw] share one draw: re-drawing over
   any plan's kept rule graph from a fresh PRNG gives the same bytes as
   planning from scratch with that seed. *)
let test_redraw_matches_randomized () =
  let bytes (p : Plan.t) =
    List.map
      (fun (pr : Probe.t) -> (pr.Probe.id, pr.Probe.rules, Header.to_string pr.Probe.header))
      p.Plan.probes
  in
  let rng = Prng.create 21 in
  let topo = Topogen.Topo_gen.rocketfuel_like rng ~n_switches:16 () in
  List.iter
    (fun net ->
      let fresh = Plan.randomized (Prng.create 8) net in
      List.iter
        (fun (label, (kept : Plan.t)) ->
          check_bool label true (bytes (Plan.redraw kept (Prng.create 8)) = bytes fresh))
        [
          ("over a randomized plan", Plan.randomized (Prng.create 99) net);
          ("over a static plan", Pipeline.plan (Pipeline.create net));
        ])
    [ (Fixtures.figure3 ()).Fixtures.net; Topogen.Rule_gen.install rng topo ]

(* ------------------------------------------------------------------ *)
(* End-to-end localization *)

let run_static ?(cfg = config) ?stop emu =
  detect ?stop ~config:cfg emu

let test_no_fault_no_detection () =
  let fx = Fixtures.figure3 () in
  let emu = Emu.create fx.Fixtures.net in
  let cfg = Config.with_max_rounds 10 config in
  let report = run_static ~cfg emu in
  check_bool "nothing flagged" true (Report.flagged_switches report = []);
  check_int "10 rounds" 10 report.Report.rounds;
  check_bool "time advanced" true (report.Report.duration_s > 0.)

let test_single_drop_fault_localized () =
  let fx = Fixtures.figure3 () in
  let emu = Emu.create fx.Fixtures.net in
  Emu.set_fault emu ~entry:fx.Fixtures.b1.FE.id (Fault.make Fault.Drop_packet);
  let report = run_static ~stop:(Runner.stop_when_flagged [ Fixtures.sw_b ]) emu in
  check_bool "exactly B flagged" true (Report.flagged_switches report = [ Fixtures.sw_b ]);
  check_bool "no false positives" true (List.length report.Report.detections = 1);
  check_bool "fast" true (report.Report.duration_s < 5.)

let test_single_modify_fault_localized () =
  let fx = Fixtures.figure3 () in
  let emu = Emu.create fx.Fixtures.net in
  Emu.set_fault emu ~entry:fx.Fixtures.c2.FE.id
    (Fault.make (Fault.Rewrite (Cube.of_string "xxxxxx11")));
  let report = run_static ~stop:(Runner.stop_when_flagged [ Fixtures.sw_c ]) emu in
  check_bool "exactly C flagged" true (Report.flagged_switches report = [ Fixtures.sw_c ])

let test_single_misdirect_fault_localized () =
  let fx = Fixtures.figure3 () in
  let emu = Emu.create fx.Fixtures.net in
  (* d1 misdirects to port 1 (back towards B) instead of port 2. *)
  Emu.set_fault emu ~entry:fx.Fixtures.d1.FE.id (Fault.make (Fault.Misdirect 1));
  let report = run_static ~stop:(Runner.stop_when_flagged [ Fixtures.sw_d ]) emu in
  check_bool "exactly D flagged" true (Report.flagged_switches report = [ Fixtures.sw_d ])

let test_multiple_faults_localized () =
  let fx = Fixtures.figure3 () in
  let emu = Emu.create fx.Fixtures.net in
  Emu.set_fault emu ~entry:fx.Fixtures.b2.FE.id (Fault.make Fault.Drop_packet);
  Emu.set_fault emu ~entry:fx.Fixtures.d1.FE.id (Fault.make Fault.Drop_packet);
  let report =
    run_static ~stop:(Runner.stop_when_flagged [ Fixtures.sw_b; Fixtures.sw_d ]) emu
  in
  check_bool "B and D flagged, nothing else" true
    (Report.flagged_switches report = [ Fixtures.sw_b; Fixtures.sw_d ])

let test_fault_on_shared_rule_no_fp () =
  (* c2 serves two tested paths; a fault on b2 must not frame c2. *)
  let fx = Fixtures.figure3 () in
  let emu = Emu.create fx.Fixtures.net in
  Emu.set_fault emu ~entry:fx.Fixtures.b2.FE.id (Fault.make Fault.Drop_packet);
  let report = run_static ~stop:(Runner.stop_when_flagged [ Fixtures.sw_b ]) emu in
  check_bool "only B" true (Report.flagged_switches report = [ Fixtures.sw_b ])

let test_intermittent_fault_localized () =
  let fx = Fixtures.figure3 () in
  let emu = Emu.create fx.Fixtures.net in
  (* Pseudo-random 30 ms bursts, active 30% of the time: occurrences are
     shorter than a localization cycle and cannot phase-lock with the
     probing cadence. *)
  Emu.set_fault emu ~entry:fx.Fixtures.b1.FE.id
    (Fault.make
       ~activation:(Fault.Random_bursts { window_us = 30_000; active_ratio = 0.3; seed = 42 })
       Fault.Drop_packet);
  let cfg = Config.with_max_rounds 400 config in
  let report = run_static ~cfg ~stop:(Runner.stop_when_flagged [ Fixtures.sw_b ]) emu in
  check_bool "B eventually flagged" true
    (List.mem Fixtures.sw_b (Report.flagged_switches report));
  check_bool "no false positives" true
    (List.for_all (fun s -> s = Fixtures.sw_b) (Report.flagged_switches report))

let test_targeting_fault_static_misses () =
  (* Target a corner of b1's match that the deterministic header choice
     avoids; static SDNProbe must miss it (Table I: FN). *)
  let fx = Fixtures.figure3 () in
  let plan = Pipeline.plan (Pipeline.create fx.Fixtures.net) in
  (* Find the static probe that traverses b1 and target a different
     header under b1's match. *)
  let static_probe =
    List.find (fun p -> List.mem fx.Fixtures.b1.FE.id p.Probe.rules) plan.Plan.probes
  in
  let target =
    (* Flip the last bit of the static header to stay inside 0010xxxx
       but miss the static probe. *)
    let s = Header.to_string static_probe.Probe.header in
    let flipped =
      String.mapi
        (fun i c -> if i = 7 then (if c = '0' then '1' else '0') else c)
        s
    in
    Cube.of_string flipped
  in
  let emu = Emu.create fx.Fixtures.net in
  Emu.set_fault emu ~entry:fx.Fixtures.b1.FE.id
    (Fault.make ~activation:(Fault.Targeting target) Fault.Drop_packet);
  let cfg = Config.with_max_rounds 30 config in
  let report = run_static ~cfg emu in
  check_bool "static misses targeting fault" true (Report.flagged_switches report = [])

let test_targeting_fault_randomized_catches () =
  (* The same fault with a larger target: randomized headers hit it
     within a reasonable number of cycles. *)
  let fx = Fixtures.figure3 () in
  let emu = Emu.create fx.Fixtures.net in
  (* Target half of b1's traffic: 00101xx1. *)
  Emu.set_fault emu ~entry:fx.Fixtures.b1.FE.id
    (Fault.make ~activation:(Fault.Targeting (Cube.of_string "0010xxx1")) Fault.Drop_packet);
  let cfg = Config.with_max_rounds 400 config in
  let report =
    detect
      ~stop:(Runner.stop_when_flagged [ Fixtures.sw_b ])
      ~rng:(Prng.create 11)
      ~config:cfg emu
  in
  check_bool "randomized catches targeting fault" true
    (List.mem Fixtures.sw_b (Report.flagged_switches report))

let test_detour_static_blind () =
  (* a1 detours to C; the static cover's path through a1 still reaches
     its terminal with the right header, so static SDNProbe is blind. *)
  let fx = Fixtures.figure3 () in
  let emu = Emu.create fx.Fixtures.net in
  Emu.set_fault emu ~entry:fx.Fixtures.a1.FE.id (Fault.make (Fault.Detour Fixtures.sw_c));
  let cfg = Config.with_max_rounds 20 config in
  let report = run_static ~cfg emu in
  check_bool "static blind to detour" true (Report.flagged_switches report = [])

let test_detour_randomized_detects () =
  let fx = Fixtures.figure3 () in
  let emu = Emu.create fx.Fixtures.net in
  Emu.set_fault emu ~entry:fx.Fixtures.a1.FE.id (Fault.make (Fault.Detour Fixtures.sw_c));
  let cfg = Config.with_max_rounds 600 config in
  let report =
    detect
      ~stop:(Runner.stop_when_flagged [ Fixtures.sw_a ])
      ~rng:(Prng.create 4)
      ~config:cfg emu
  in
  check_bool "randomized detects detour" true
    (List.mem Fixtures.sw_a (Report.flagged_switches report))

let test_report_accounting () =
  let fx = Fixtures.figure3 () in
  let emu = Emu.create fx.Fixtures.net in
  Emu.set_fault emu ~entry:fx.Fixtures.b1.FE.id (Fault.make Fault.Drop_packet);
  let report = run_static ~stop:(Runner.stop_when_flagged [ Fixtures.sw_b ]) emu in
  check_bool "packets > plan" true (report.Report.packets_sent >= report.Report.plan_size);
  check_int "bytes" (report.Report.packets_sent * config.Config.probe_size_bytes)
    report.Report.bytes_sent;
  check_bool "suspicion ranks b1 first" true
    (match report.Report.suspicion_ranking with
    | (rule, _) :: _ -> rule = fx.Fixtures.b1.FE.id
    | [] -> false);
  match Report.time_to_detect_all report ~ground_truth:[ Fixtures.sw_b ] with
  | Some t -> check_bool "detect-all time positive" true (t > 0.)
  | None -> Alcotest.fail "expected detection time"

let test_empty_network () =
  (* A network with no flow entries: generation yields no probes and
     detection terminates cleanly with nothing to report. *)
  let topo = Openflow.Topology.create ~n_switches:2 in
  Openflow.Topology.add_link topo ~sw_a:0 ~port_a:1 ~sw_b:1 ~port_b:1;
  let net = Openflow.Network.create ~header_len:8 topo in
  let plan = Pipeline.plan (Pipeline.create net) in
  check_int "no probes" 0 (Plan.size plan);
  let emu = Emu.create net in
  let cfg = Config.with_max_rounds 5 config in
  let report = detect ~config:cfg emu in
  check_bool "no detections" true (Report.flagged_switches report = []);
  check_int "no packets" 0 report.Report.packets_sent

let test_single_switch_plan () =
  (* Rules on a switch with no links usable for forwarding: only Drop
     delivery rules; the plan still covers them with singleton probes. *)
  let topo = Openflow.Topology.create ~n_switches:2 in
  Openflow.Topology.add_link topo ~sw_a:0 ~port_a:1 ~sw_b:1 ~port_b:1;
  let net = Openflow.Network.create ~header_len:8 topo in
  let e =
    Openflow.Network.add_entry net ~switch:0 ~priority:1
      ~match_:(Cube.of_string "1xxxxxxx") FE.Drop
  in
  let plan = Pipeline.plan (Pipeline.create net) in
  check_int "one probe" 1 (Plan.size plan);
  let p = List.hd plan.Plan.probes in
  check_bool "covers the rule" true (p.Probe.rules = [ e.FE.id ]);
  (* It passes on a healthy emulator... *)
  let emu = Emu.create net in
  let report = detect ~config:(Config.with_max_rounds 3 config) emu in
  check_bool "healthy" true (Report.flagged_switches report = []);
  (* ... and a fault on it is localized. *)
  Emu.set_fault emu ~entry:e.FE.id (Fault.make Fault.Drop_packet);
  let report =
    detect ~stop:(Runner.stop_when_flagged [ 0 ]) ~config emu
  in
  check_bool "flagged" true (Report.flagged_switches report = [ 0 ])

(* ------------------------------------------------------------------ *)
(* Suspicion unit behaviour *)

let test_suspicion () =
  let s = Suspicion.create ~threshold:2 in
  check_int "initial" 0 (Suspicion.level s 5);
  Suspicion.bump_rule s 5;
  Suspicion.bump_rule s 5;
  check_bool "at threshold not exceeding" false (Suspicion.exceeds_threshold s 5);
  Suspicion.bump_rule s 5;
  check_bool "exceeds" true (Suspicion.exceeds_threshold s 5);
  Suspicion.flag s ~switch:1 ~time_s:2.0 ~round:4;
  Suspicion.flag s ~switch:1 ~time_s:9.0 ~round:9;
  check_bool "first flag wins" true (Suspicion.detections s = [ (1, 2.0, 4) ]);
  check_bool "ranking" true (Suspicion.rule_levels s = [ (5, 3) ])

let () =
  Alcotest.run "core"
    [
      ( "probe",
        [
          Alcotest.test_case "make" `Quick test_probe_make;
          Alcotest.test_case "expected header" `Quick test_probe_expected_header_set_field;
          Alcotest.test_case "slice" `Quick test_probe_slice;
          Alcotest.test_case "slice singleton" `Quick test_probe_slice_singleton;
          Alcotest.test_case "slice set fields" `Quick test_probe_slice_respects_set_fields;
        ] );
      ( "plan",
        [
          Alcotest.test_case "generation" `Quick test_plan_generation;
          Alcotest.test_case "clean pass" `Quick test_plan_probes_pass_cleanly;
          Alcotest.test_case "redraw varies" `Quick test_plan_redraw_varies;
          Alcotest.test_case "redraw = randomized" `Quick test_redraw_matches_randomized;
        ] );
      ( "localization",
        [
          Alcotest.test_case "no fault" `Quick test_no_fault_no_detection;
          Alcotest.test_case "single drop" `Quick test_single_drop_fault_localized;
          Alcotest.test_case "single modify" `Quick test_single_modify_fault_localized;
          Alcotest.test_case "single misdirect" `Quick test_single_misdirect_fault_localized;
          Alcotest.test_case "multiple faults" `Quick test_multiple_faults_localized;
          Alcotest.test_case "no FP on shared rule" `Quick test_fault_on_shared_rule_no_fp;
          Alcotest.test_case "intermittent" `Quick test_intermittent_fault_localized;
          Alcotest.test_case "targeting static FN" `Quick test_targeting_fault_static_misses;
          Alcotest.test_case "targeting randomized" `Quick test_targeting_fault_randomized_catches;
          Alcotest.test_case "detour static FN" `Quick test_detour_static_blind;
          Alcotest.test_case "detour randomized" `Quick test_detour_randomized_detects;
          Alcotest.test_case "report accounting" `Quick test_report_accounting;
          Alcotest.test_case "empty network" `Quick test_empty_network;
          Alcotest.test_case "single drop rule" `Quick test_single_switch_plan;
        ] );
      ("suspicion", [ Alcotest.test_case "levels" `Quick test_suspicion ]);
    ]
