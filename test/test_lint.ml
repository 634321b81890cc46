(* Tests for the lint engine: the diagnostics framework, each analysis
   pass against a hand-built policy exhibiting exactly its defect, and
   the engine plumbing (pass selection, exit codes, JSON, timings). *)

module Cube = Hspace.Cube
module Hs = Hspace.Hs
module FE = Openflow.Flow_entry
module Topology = Openflow.Topology
module Network = Openflow.Network
module D = Lint.Diagnostic
module Engine = Lint.Engine

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let of_check report id =
  List.filter (fun (d : D.t) -> d.check = id) report.Engine.diagnostics

(* A two-switch line: sw0 --(1:1)-- sw1 --(2:1)-- sw2. *)
let line3 ~header_len =
  let topo = Topology.create ~n_switches:3 in
  Topology.add_link topo ~sw_a:0 ~port_a:1 ~sw_b:1 ~port_b:1;
  Topology.add_link topo ~sw_a:1 ~port_a:2 ~sw_b:2 ~port_b:1;
  Network.create ~header_len topo

let add net ~switch ?table ~priority ~match_ ?set_field action =
  Network.add_entry net ~switch ?table ~priority ~match_:(Cube.of_string match_)
    ?set_field:(Option.map Cube.of_string set_field)
    action

(* ------------------------------------------------------------------ *)
(* L001 forwarding loop *)

let test_loop () =
  let topo = Topology.create ~n_switches:2 in
  Topology.add_link topo ~sw_a:0 ~port_a:1 ~sw_b:1 ~port_b:1;
  let net = Network.create ~header_len:4 topo in
  let a = add net ~switch:0 ~priority:1 ~match_:"1xxx" (FE.Output 1) in
  let b = add net ~switch:1 ~priority:1 ~match_:"1xxx" (FE.Output 1) in
  let report = Engine.run net in
  match of_check report "L001-forwarding-loop" with
  | [ d ] ->
      check_string "severity" "error" (D.severity_to_string d.D.severity);
      check_bool "cycle entries" true
        (List.sort compare d.D.entries = List.sort compare [ a.FE.id; b.FE.id ]);
      (* Headers at the loop head that survive a round trip: all of 1xxx. *)
      check_bool "witness" true (Hs.equal_sets d.D.witness (Hs.of_cubes 4 [ Cube.of_string "1xxx" ]))
  | ds -> Alcotest.failf "expected one loop diagnostic, got %d" (List.length ds)

let test_loop_witness_through_rewrite () =
  (* Mutual forwarding only through set-field rewrites: sw0 rewrites
     0xxx to 1xxx, sw1 rewrites back. *)
  let topo = Topology.create ~n_switches:2 in
  Topology.add_link topo ~sw_a:0 ~port_a:1 ~sw_b:1 ~port_b:1;
  let net = Network.create ~header_len:4 topo in
  let _ = add net ~switch:0 ~priority:1 ~match_:"0xxx" ~set_field:"1xxx" (FE.Output 1) in
  let _ = add net ~switch:1 ~priority:1 ~match_:"1xxx" ~set_field:"0xxx" (FE.Output 1) in
  let report = Engine.run net in
  match of_check report "L001-forwarding-loop" with
  | [ d ] -> check_bool "witness nonempty" false (Hs.is_empty d.D.witness)
  | _ -> Alcotest.fail "expected a loop"

(* ------------------------------------------------------------------ *)
(* L002 blackhole *)

let test_blackhole () =
  let topo = Topology.create ~n_switches:2 in
  Topology.add_link topo ~sw_a:0 ~port_a:1 ~sw_b:1 ~port_b:1;
  let net = Network.create ~header_len:4 topo in
  let fwd = add net ~switch:0 ~priority:1 ~match_:"1xxx" (FE.Output 1) in
  let _ = add net ~switch:1 ~priority:1 ~match_:"11xx" FE.Drop in
  let report = Engine.run net in
  match of_check report "L002-blackhole" with
  | [ d ] ->
      check_string "severity" "warning" (D.severity_to_string d.D.severity);
      check_bool "leaking rule" true (d.D.entries = [ fwd.FE.id ]);
      check_bool "at switch" true (d.D.switch = Some 1);
      check_bool "leaked space" true
        (Hs.equal_sets d.D.witness (Hs.of_cubes 4 [ Cube.of_string "10xx" ]))
  | ds -> Alcotest.failf "expected one blackhole, got %d" (List.length ds)

(* ------------------------------------------------------------------ *)
(* L003 / L004 shadowing *)

let test_full_shadow () =
  let net = line3 ~header_len:4 in
  let _hi = add net ~switch:0 ~priority:2 ~match_:"1xxx" (FE.Output 1) in
  let dead = add net ~switch:0 ~priority:1 ~match_:"11xx" (FE.Output 1) in
  let _sink = add net ~switch:1 ~priority:1 ~match_:"xxxx" FE.Drop in
  let report = Engine.run net in
  match of_check report "L003-shadowed-rule" with
  | [ d ] ->
      check_string "severity" "error" (D.severity_to_string d.D.severity);
      check_int "shadowed entry" dead.FE.id (List.hd d.D.entries);
      check_bool "witness is whole match" true
        (Hs.equal_sets d.D.witness (Hs.of_cubes 4 [ Cube.of_string "11xx" ]))
  | ds -> Alcotest.failf "expected one shadow, got %d" (List.length ds)

let test_partial_shadow () =
  let net = line3 ~header_len:4 in
  let _hi = add net ~switch:0 ~priority:2 ~match_:"11xx" (FE.Output 1) in
  let lo = add net ~switch:0 ~priority:1 ~match_:"1xxx" (FE.Output 1) in
  let _sink = add net ~switch:1 ~priority:1 ~match_:"xxxx" FE.Drop in
  let report = Engine.run net in
  match of_check report "L004-partial-shadow" with
  | [ d ] ->
      check_int "entry" lo.FE.id (List.hd d.D.entries);
      check_bool "stolen portion" true
        (Hs.equal_sets d.D.witness (Hs.of_cubes 4 [ Cube.of_string "11xx" ]))
  | ds -> Alcotest.failf "expected one partial shadow, got %d" (List.length ds)

(* ------------------------------------------------------------------ *)
(* L005 equal-priority ambiguity *)

let test_priority_ambiguity () =
  let net = line3 ~header_len:4 in
  let a = add net ~switch:0 ~priority:5 ~match_:"1xxx" (FE.Output 1) in
  let b = add net ~switch:0 ~priority:5 ~match_:"11xx" FE.Drop in
  let _sink = add net ~switch:1 ~priority:1 ~match_:"xxxx" FE.Drop in
  let report = Engine.run net in
  match of_check report "L005-priority-ambiguity" with
  | [ d ] ->
      check_bool "pair" true (d.D.entries = [ a.FE.id; b.FE.id ]);
      check_bool "contested space" true
        (Hs.equal_sets d.D.witness (Hs.of_cubes 4 [ Cube.of_string "11xx" ]))
  | ds -> Alcotest.failf "expected one ambiguity, got %d" (List.length ds)

let test_priority_ambiguity_identical_behavior () =
  (* Same action and set field: order is irrelevant, no ambiguity. *)
  let net = line3 ~header_len:4 in
  let _ = add net ~switch:0 ~priority:5 ~match_:"1xxx" (FE.Output 1) in
  let _ = add net ~switch:0 ~priority:5 ~match_:"11xx" (FE.Output 1) in
  let _sink = add net ~switch:1 ~priority:1 ~match_:"xxxx" FE.Drop in
  let report = Engine.run net in
  check_int "no ambiguity" 0 (List.length (of_check report "L005-priority-ambiguity"))

(* ------------------------------------------------------------------ *)
(* L006 dead switches, L007 dead ports *)

let test_dead_switch () =
  let net = line3 ~header_len:4 in
  (* sw0 forwards into sw1; sw1 has no entries; sw2 has no entries
     either but nothing feeds it. *)
  let _ = add net ~switch:0 ~priority:1 ~match_:"1xxx" (FE.Output 1) in
  let report = Engine.run net in
  let deads = of_check report "L006-dead-switch" in
  (* sw1/sw2 have no entries (warnings); sw0 is merely not fed by any
     neighbour policy (info). *)
  check_bool "sw1 and sw2 warned" true
    (List.sort compare
       (List.filter_map
          (fun (d : D.t) -> if d.D.severity = D.Warning then d.D.switch else None)
          deads)
    = [ 1; 2 ]);
  check_bool "sw0 only informational" true
    (List.for_all
       (fun (d : D.t) -> d.D.switch <> Some 0 || d.D.severity = D.Info)
       deads)

let test_isolated_switch () =
  let topo3 = Topology.create ~n_switches:3 in
  Topology.add_link topo3 ~sw_a:0 ~port_a:1 ~sw_b:1 ~port_b:1;
  let net = Network.create ~header_len:4 topo3 in
  let _ = add net ~switch:0 ~priority:1 ~match_:"xxxx" (FE.Output 1) in
  let _ = add net ~switch:1 ~priority:1 ~match_:"xxxx" FE.Drop in
  let report = Engine.run net in
  check_bool "isolated sw2 flagged" true
    (List.exists
       (fun (d : D.t) -> d.D.switch = Some 2 && d.D.severity = D.Warning)
       (of_check report "L006-dead-switch"))

let test_dead_port () =
  let net = line3 ~header_len:4 in
  let _ = add net ~switch:0 ~priority:1 ~match_:"1xxx" (FE.Output 1) in
  let _ = add net ~switch:1 ~priority:1 ~match_:"xxxx" FE.Drop in
  let _ = add net ~switch:2 ~priority:1 ~match_:"xxxx" FE.Drop in
  let report = Engine.run net in
  let ports = of_check report "L007-dead-port" in
  (* Unused: sw1 ports 1 (back) and 2 (on), sw2 port 1. sw0:1 is used. *)
  check_int "three dead ports" 3 (List.length ports);
  check_bool "sw0 port used" true
    (List.for_all (fun (d : D.t) -> d.D.switch <> Some 0) ports);
  check_bool "witness empty" true
    (List.for_all (fun (d : D.t) -> Hs.is_empty d.D.witness) ports)

(* ------------------------------------------------------------------ *)
(* L008 redundant rules *)

let test_redundant () =
  let net = line3 ~header_len:4 in
  let r = add net ~switch:0 ~priority:2 ~match_:"11xx" (FE.Output 1) in
  let _lo = add net ~switch:0 ~priority:1 ~match_:"1xxx" (FE.Output 1) in
  let report = Engine.run ~only:[ "L008-redundant-rule" ] net in
  match of_check report "L008-redundant-rule" with
  | [ d ] ->
      check_int "redundant entry" r.FE.id (List.hd d.D.entries);
      check_bool "witness is input" true
        (Hs.equal_sets d.D.witness (Hs.of_cubes 4 [ Cube.of_string "11xx" ]))
  | ds -> Alcotest.failf "expected one redundant rule, got %d" (List.length ds)

let test_not_redundant_different_action () =
  let net = line3 ~header_len:4 in
  (* A Drop over an Output (and an Output over table-miss): neither rule
     is removable. *)
  let _hi = add net ~switch:0 ~priority:2 ~match_:"11xx" FE.Drop in
  let _lo = add net ~switch:0 ~priority:1 ~match_:"1xxx" (FE.Output 1) in
  let report = Engine.run ~only:[ "L008-redundant-rule" ] net in
  check_int "none redundant" 0 (List.length (of_check report "L008-redundant-rule"))

let test_redundant_drop_fallthrough () =
  (* An explicit Drop whose residual falls through to table-miss is
     behavior-preserving to remove. *)
  let net = line3 ~header_len:4 in
  let r = add net ~switch:0 ~priority:1 ~match_:"0xxx" FE.Drop in
  let report = Engine.run ~only:[ "L008-redundant-rule" ] net in
  match of_check report "L008-redundant-rule" with
  | [ d ] -> check_int "drop rule" r.FE.id (List.hd d.D.entries)
  | ds -> Alcotest.failf "expected one redundant drop, got %d" (List.length ds)

(* ------------------------------------------------------------------ *)
(* L009 probe-plan coverage *)

let coverage_net () =
  let net = line3 ~header_len:4 in
  let a = add net ~switch:0 ~priority:1 ~match_:"1xxx" (FE.Output 1) in
  let b = add net ~switch:1 ~priority:1 ~match_:"1xxx" (FE.Output 2) in
  let c = add net ~switch:2 ~priority:1 ~match_:"1xxx" FE.Drop in
  (net, a, b, c)

let test_coverage_complete () =
  let net, a, b, c = coverage_net () in
  let report = Engine.run ~probes:[ [ a.FE.id; b.FE.id; c.FE.id ] ] net in
  check_int "no uncovered" 0 (List.length (of_check report "L009-uncovered-rule"));
  check_bool "not skipped" true (not (List.mem "L009-uncovered-rule" report.Engine.skipped))

let test_coverage_hole () =
  let net, a, b, c = coverage_net () in
  let report = Engine.run ~probes:[ [ a.FE.id; b.FE.id ] ] net in
  match of_check report "L009-uncovered-rule" with
  | [ d ] ->
      check_string "severity" "error" (D.severity_to_string d.D.severity);
      check_int "uncovered entry" c.FE.id (List.hd d.D.entries);
      check_bool "witness is input space" true
        (Hs.equal_sets d.D.witness (Hs.of_cubes 4 [ Cube.of_string "1xxx" ]))
  | ds -> Alcotest.failf "expected one uncovered rule, got %d" (List.length ds)

let test_coverage_skipped_without_plan () =
  let net, _, _, _ = coverage_net () in
  let report = Engine.run net in
  check_bool "skipped" true (List.mem "L009-uncovered-rule" report.Engine.skipped);
  check_bool "no timing entry" true
    (not (List.mem_assoc "L009-uncovered-rule" report.Engine.timings))

(* ------------------------------------------------------------------ *)
(* Engine plumbing *)

let test_pass_selection () =
  let net, _, _, _ = coverage_net () in
  let report = Engine.run ~only:[ "l001"; "L003-shadowed-rule" ] net in
  check_int "two passes" 2 (List.length report.Engine.timings);
  check_bool "unknown pass raises" true
    (try
       ignore (Engine.run ~only:[ "L999" ] net);
       false
     with Engine.Unknown_pass _ -> true)

let test_exit_codes () =
  let warn_only =
    {
      Engine.diagnostics =
        [ D.make ~check:"x" ~severity:D.Warning ~witness:(Hs.empty 4) "w" ];
      timings = [];
      skipped = [];
    }
  in
  let with_error =
    {
      Engine.diagnostics =
        [
          D.make ~check:"x" ~severity:D.Info ~witness:(Hs.empty 4) "i";
          D.make ~check:"y" ~severity:D.Error ~witness:(Hs.empty 4) "e";
        ];
      timings = [];
      skipped = [];
    }
  in
  check_int "warnings pass under fail-on error" 0
    (Engine.exit_code ~fail_on:Engine.Fail_error warn_only);
  check_int "warnings fail under fail-on warning" 1
    (Engine.exit_code ~fail_on:Engine.Fail_warning warn_only);
  check_int "errors exit 2" 2 (Engine.exit_code ~fail_on:Engine.Fail_error with_error);
  check_int "never is 0" 0 (Engine.exit_code ~fail_on:Engine.Fail_never with_error)

let test_json_shape () =
  let net, a, b, c = coverage_net () in
  let report = Engine.run ~probes:[ [ a.FE.id; b.FE.id; c.FE.id ] ] net in
  let json = Engine.to_json report in
  check_bool "object" true
    (String.length json > 2 && json.[0] = '{' && json.[String.length json - 1] = '}');
  List.iter
    (fun key ->
      let re = Printf.sprintf "\"%s\"" key in
      check_bool key true
        (let rec find i =
           i + String.length re <= String.length json
           && (String.sub json i (String.length re) = re || find (i + 1))
         in
         find 0))
    [ "diagnostics"; "summary"; "timings"; "skipped"; "error"; "warning"; "info" ]

(* The report JSON parses with the shared reader and carries each
   diagnostic's fields back: the blackhole of [test_blackhole]. *)
let test_json_roundtrip () =
  let module J = Sdn_util.Json in
  let topo = Topology.create ~n_switches:2 in
  Topology.add_link topo ~sw_a:0 ~port_a:1 ~sw_b:1 ~port_b:1;
  let net = Network.create ~header_len:4 topo in
  let fwd = add net ~switch:0 ~priority:1 ~match_:"1xxx" (FE.Output 1) in
  let _ = add net ~switch:1 ~priority:1 ~match_:"11xx" FE.Drop in
  let report = Engine.run net in
  let json =
    match J.of_string (Engine.to_json report) with
    | Ok j -> j
    | Error msg -> Alcotest.failf "lint JSON does not parse: %s" msg
  in
  let diagnostics = Option.value ~default:[] (J.obj_list "diagnostics" json) in
  check_int "every diagnostic" (List.length report.Engine.diagnostics)
    (List.length diagnostics);
  match
    List.filter (fun d -> J.obj_str "check" d = Some "L002-blackhole") diagnostics
  with
  | [ d ] ->
      check_bool "severity" true (J.obj_str "severity" d = Some "warning");
      check_bool "switch" true (J.obj_int "switch" d = Some 1);
      check_bool "entries" true
        (Option.map (List.filter_map J.to_int) (J.obj_list "entries" d)
        = Some [ fwd.FE.id ]);
      check_bool "witness" true
        (Option.map (List.filter_map J.to_str) (J.obj_list "witness" d)
        = Some [ "10xx" ]);
      check_bool "warning count" true
        (Option.bind (J.member "summary" json) (J.obj_int "warning") = Some 1);
      check_bool "timings per pass" true
        (match J.member "timings" json with
        | Some (J.Obj ts) ->
            List.length ts = List.length report.Engine.timings
            && List.for_all (fun (_, v) -> J.to_float v <> None) ts
        | _ -> false)
  | ds -> Alcotest.failf "expected one blackhole in the JSON, got %d" (List.length ds)

let test_sorted_severity_order () =
  let net = line3 ~header_len:4 in
  (* Blackhole (warning) plus a shadowed rule (error): sorted puts the
     error first even though the blackhole pass runs first. *)
  let _fwd = add net ~switch:0 ~priority:3 ~match_:"1xxx" (FE.Output 1) in
  let _hi = add net ~switch:1 ~priority:2 ~match_:"11xx" FE.Drop in
  let _dead = add net ~switch:1 ~priority:1 ~match_:"110x" FE.Drop in
  let report = Engine.run net in
  (match Engine.sorted report with
  | first :: _ -> check_string "error first" "error" (D.severity_to_string first.D.severity)
  | [] -> Alcotest.fail "expected diagnostics");
  (* Unsorted, diagnostics keep pass order: the blackhole, then the
     shadowed rule. *)
  check_bool "emission order" true
    (List.map
       (fun (d : D.t) -> d.D.check)
       (Engine.run ~only:[ "L001"; "L002"; "L003" ] net).Engine.diagnostics
    = [ "L002-blackhole"; "L003-shadowed-rule" ])

(* ------------------------------------------------------------------ *)
(* Scale: the full registry over a generated Rocketfuel-like policy *)

let test_generated_scale () =
  let rng = Sdn_util.Prng.create 7 in
  let topo = Topogen.Topo_gen.rocketfuel_like rng ~n_switches:50 () in
  let net = Topogen.Rule_gen.install rng topo in
  let rg = Rulegraph.Rule_graph.build net in
  let cover = Mlpc.Legal_matching.solve rg in
  let probes =
    List.map
      (fun (p : Mlpc.Cover.path) ->
        List.map
          (fun v -> (Rulegraph.Rule_graph.vertex_entry rg v).FE.id)
          p.Mlpc.Cover.rules)
      cover.Mlpc.Cover.paths
  in
  let report = Engine.run ~probes net in
  (* All nine passes ran and were timed. *)
  check_int "nine passes timed" 9 (List.length report.Engine.timings);
  check_int "none skipped" 0 (List.length report.Engine.skipped);
  (* Generated policies are loop-free and shadow-free by construction,
     and the legal path cover exercises every testable rule: no
     Error-severity findings. *)
  check_int "no errors" 0 (Engine.count report D.Error);
  (* Every diagnostic names its check and location. *)
  List.iter
    (fun (d : D.t) ->
      check_bool "check id" true (String.length d.D.check >= 4);
      check_bool "has location" true (d.D.switch <> None || d.D.entries <> []))
    report.Engine.diagnostics

let () =
  Alcotest.run "lint"
    [
      ( "loops",
        [
          Alcotest.test_case "two-switch loop" `Quick test_loop;
          Alcotest.test_case "loop through rewrites" `Quick test_loop_witness_through_rewrite;
        ] );
      ("blackholes", [ Alcotest.test_case "leak" `Quick test_blackhole ]);
      ( "shadowing",
        [
          Alcotest.test_case "full" `Quick test_full_shadow;
          Alcotest.test_case "partial" `Quick test_partial_shadow;
        ] );
      ( "ambiguity",
        [
          Alcotest.test_case "different behavior" `Quick test_priority_ambiguity;
          Alcotest.test_case "identical behavior" `Quick test_priority_ambiguity_identical_behavior;
        ] );
      ( "dead configuration",
        [
          Alcotest.test_case "dead switch" `Quick test_dead_switch;
          Alcotest.test_case "isolated switch" `Quick test_isolated_switch;
          Alcotest.test_case "dead port" `Quick test_dead_port;
        ] );
      ( "redundancy",
        [
          Alcotest.test_case "covered by identical" `Quick test_redundant;
          Alcotest.test_case "different action" `Quick test_not_redundant_different_action;
          Alcotest.test_case "drop fallthrough" `Quick test_redundant_drop_fallthrough;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "complete" `Quick test_coverage_complete;
          Alcotest.test_case "hole" `Quick test_coverage_hole;
          Alcotest.test_case "skipped without plan" `Quick test_coverage_skipped_without_plan;
        ] );
      ( "engine",
        [
          Alcotest.test_case "pass selection" `Quick test_pass_selection;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "json shape" `Quick test_json_shape;
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "sorted order" `Quick test_sorted_severity_order;
        ] );
      ( "scale",
        [ Alcotest.test_case "50-switch generated" `Slow test_generated_scale ] );
    ]
