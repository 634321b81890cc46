(* Tests for the OpenFlow network model. *)

module Cube = Hspace.Cube
module Hs = Hspace.Hs
module Header = Hspace.Header
module FE = Openflow.Flow_entry
module FT = Openflow.Flow_table
module Topology = Openflow.Topology
module Network = Openflow.Network

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Flow entries *)

let entry ?(id = 0) ?(switch = 0) ?(table = 0) ~priority ~match_ ?set_field action =
  FE.make ~id ~switch ~table ~priority ~match_:(Cube.of_string match_)
    ?set_field:(Option.map Cube.of_string set_field)
    action

let test_entry_matches () =
  let e = entry ~priority:1 ~match_:"0010xxxx" FE.Drop in
  check_bool "match" true (FE.matches e (Header.of_string "00101111"));
  check_bool "no match" false (FE.matches e (Header.of_string "01101111"))

let test_entry_apply () =
  let e = entry ~priority:1 ~match_:"000xxxxx" ~set_field:"0111xxxx" FE.Drop in
  Alcotest.(check string) "rewrite" "01110101"
    (Header.to_string (FE.apply e (Header.of_string "00010101")));
  let id = entry ~priority:1 ~match_:"000xxxxx" FE.Drop in
  check_bool "identity" true (FE.is_identity_set id);
  check_bool "not identity" false (FE.is_identity_set e)

let test_entry_overlaps () =
  let a = entry ~id:1 ~priority:2 ~match_:"0010xxxx" FE.Drop in
  let b = entry ~id:2 ~priority:1 ~match_:"001xxxxx" FE.Drop in
  let c = entry ~id:3 ~priority:1 ~match_:"1xxxxxxx" FE.Drop in
  check_bool "overlap" true (FE.overlaps a b);
  check_bool "no overlap" false (FE.overlaps a c);
  let d = entry ~id:4 ~switch:1 ~priority:1 ~match_:"001xxxxx" FE.Drop in
  check_bool "different switch" false (FE.overlaps a d)

let test_entry_set_length_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Flow_entry.make: set field length mismatch") (fun () ->
      ignore
        (FE.make ~id:0 ~switch:0 ~table:0 ~priority:1
           ~match_:(Cube.of_string "0000")
           ~set_field:(Cube.of_string "00")
           FE.Drop))

(* ------------------------------------------------------------------ *)
(* Flow tables *)

let test_table_lookup_priority () =
  let lo = entry ~id:1 ~priority:1 ~match_:"001xxxxx" FE.Drop in
  let hi = entry ~id:2 ~priority:2 ~match_:"00100xxx" (FE.Goto_table 1) in
  let t = FT.of_entries [ lo; hi ] in
  (match FT.lookup t (Header.of_string "00100111") with
  | Some e -> check_int "highest priority wins" 2 e.FE.id
  | None -> Alcotest.fail "expected match");
  (match FT.lookup t (Header.of_string "00111111") with
  | Some e -> check_int "fallthrough" 1 e.FE.id
  | None -> Alcotest.fail "expected match");
  check_bool "miss" true (FT.lookup t (Header.of_string "11111111") = None)

let test_table_tie_break () =
  (* Equal priorities: lower id wins deterministically. *)
  let a = entry ~id:5 ~priority:1 ~match_:"xxxxxxxx" FE.Drop in
  let b = entry ~id:3 ~priority:1 ~match_:"xxxxxxxx" FE.Drop in
  let t = FT.of_entries [ a; b ] in
  match FT.lookup t (Header.of_string "00000000") with
  | Some e -> check_int "lower id" 3 e.FE.id
  | None -> Alcotest.fail "expected match"

let test_overlaps_tie_break () =
  (* The analytic side of the tiebreak: with equal priorities, the
     lower-id entry takes precedence, so it overlaps the higher-id one
     but not vice versa — and the higher-id entry's input space is
     exactly what the lower-id entry leaves behind. *)
  let a = entry ~id:5 ~priority:1 ~match_:"00xxxxxx" FE.Drop in
  let b = entry ~id:3 ~priority:1 ~match_:"000xxxxx" FE.Drop in
  let t = FT.of_entries [ a; b ] in
  check_bool "b precedes a" true (FT.higher_priority_overlaps t a = [ b ]);
  check_bool "a does not precede b" true (FT.higher_priority_overlaps t b = []);
  check_bool "b.in is its whole match" true
    (Hs.equal_sets (FT.input_space t b) (Hs.of_cubes 8 [ Cube.of_string "000xxxxx" ]));
  check_bool "a.in is the remainder" true
    (Hs.equal_sets (FT.input_space t a) (Hs.of_cubes 8 [ Cube.of_string "001xxxxx" ]));
  (* Identical matches at equal priority: the higher id is fully
     shadowed by the lower id. *)
  let c = entry ~id:7 ~priority:1 ~match_:"000xxxxx" FE.Drop in
  let t = FT.add t c in
  check_bool "c shadowed by b" true (Hs.is_empty (FT.input_space t c))

let test_table_add_remove () =
  let a = entry ~id:1 ~priority:1 ~match_:"0xxxxxxx" FE.Drop in
  let t = FT.add FT.empty a in
  check_int "size" 1 (FT.size t);
  let t = FT.remove t 1 in
  check_int "removed" 0 (FT.size t);
  check_int "remove missing is noop" 0 (FT.size (FT.remove t 9))

let test_input_space () =
  (* Figure 3 switch E: e2.in = 001xxxxx − 0010xxxx = 0011xxxx. *)
  let e1 = entry ~id:1 ~priority:3 ~match_:"0010xxxx" FE.Drop in
  let e2 = entry ~id:2 ~priority:2 ~match_:"001xxxxx" FE.Drop in
  let t = FT.of_entries [ e1; e2 ] in
  let in2 = FT.input_space t e2 in
  check_bool "e2 input" true
    (Hs.equal_sets in2 (Hs.of_cubes 8 [ Cube.of_string "0011xxxx" ]));
  let in1 = FT.input_space t e1 in
  check_bool "e1 input untouched" true
    (Hs.equal_sets in1 (Hs.of_cubes 8 [ Cube.of_string "0010xxxx" ]))

let test_output_space () =
  (* Figure 3 d1: in 000xxxxx, out 0111xxxx. *)
  let d1 = entry ~id:1 ~priority:1 ~match_:"000xxxxx" ~set_field:"0111xxxx" FE.Drop in
  let t = FT.of_entries [ d1 ] in
  check_bool "d1 out" true
    (Hs.equal_sets (FT.output_space t d1) (Hs.of_cubes 8 [ Cube.of_string "0111xxxx" ]))

(* Property: an entry's input space is empty exactly when the lint
   engine's L003 pass reports it shadowed — [Flow_table.input_space]
   (including the equal-priority id tiebreak) and the static checks
   agree on every random table. *)

let gen_table =
  QCheck.Gen.(
    let gen_bit =
      frequency [ (2, return Cube.Zero); (2, return Cube.One); (3, return Cube.Any) ]
    in
    let gen_cube =
      map (fun bits -> Cube.of_bits (Array.of_list bits)) (list_size (return 8) gen_bit)
    in
    list_size (int_range 2 8) (pair (int_range 1 3) gen_cube))

let arb_table =
  QCheck.make
    ~print:(fun rows ->
      String.concat "; "
        (List.map (fun (p, c) -> Printf.sprintf "p%d %s" p (Cube.to_string c)) rows))
    gen_table

let prop_shadow_iff_empty_input =
  QCheck.Test.make ~name:"shadowed iff empty input space" ~count:200 arb_table
    (fun rows ->
      let net = Network.create ~header_len:8 (Topology.create ~n_switches:2) in
      let entries =
        List.map
          (fun (priority, match_) ->
            Network.add_entry net ~switch:0 ~priority ~match_ FE.Drop)
          rows
      in
      let shadowed =
        List.filter_map
          (fun (d : Lint.Diagnostic.t) ->
            match (d.check, d.entries) with
            | "L003-shadowed-rule", id :: _ -> Some id
            | _ -> None)
          (Lint.Engine.run ~only:[ "L001"; "L002"; "L003" ] net).Lint.Engine.diagnostics
      in
      List.for_all
        (fun (e : FE.t) ->
          Hs.is_empty (Network.input_space net e) = List.mem e.id shadowed)
        entries)

(* ------------------------------------------------------------------ *)
(* Topology *)

let test_topology_links () =
  let t = Topology.create ~n_switches:3 in
  Topology.add_link t ~sw_a:0 ~port_a:1 ~sw_b:1 ~port_b:1;
  Topology.add_link t ~sw_a:1 ~port_a:2 ~sw_b:2 ~port_b:1;
  check_int "links" 2 (Topology.n_links t);
  check_bool "peer" true (Topology.peer t ~sw:0 ~port:1 = Some (1, 1));
  check_bool "peer back" true (Topology.peer t ~sw:1 ~port:1 = Some (0, 1));
  check_bool "no peer" true (Topology.peer t ~sw:2 ~port:9 = None);
  check_bool "ports" true (Topology.ports_of t 1 = [ 1; 2 ]);
  check_bool "neighbors" true (Topology.neighbors t 1 = [ 0; 2 ]);
  check_bool "towards" true (Topology.port_towards t ~src:1 ~dst:2 = Some 2);
  check_bool "not adjacent" true (Topology.port_towards t ~src:0 ~dst:2 = None);
  check_int "fresh port" 2 (Topology.fresh_port t 0)

let test_topology_invalid () =
  let t = Topology.create ~n_switches:2 in
  Topology.add_link t ~sw_a:0 ~port_a:1 ~sw_b:1 ~port_b:1;
  Alcotest.check_raises "self link" (Invalid_argument "Topology.add_link: self-link")
    (fun () -> Topology.add_link t ~sw_a:0 ~port_a:2 ~sw_b:0 ~port_b:3);
  Alcotest.check_raises "port reuse"
    (Invalid_argument "Topology.add_link: port in use on side a") (fun () ->
      Topology.add_link t ~sw_a:0 ~port_a:1 ~sw_b:1 ~port_b:2)

let test_topology_digraph () =
  let t = Topology.create ~n_switches:3 in
  Topology.add_link t ~sw_a:0 ~port_a:1 ~sw_b:1 ~port_b:1;
  let g = Topology.to_digraph t in
  check_bool "both directions" true
    (Sdngraph.Digraph.mem_edge g 0 1 && Sdngraph.Digraph.mem_edge g 1 0)

(* ------------------------------------------------------------------ *)
(* Network *)

let test_network_add_entry () =
  let { Fixtures.cnet; r_a; _ } = Fixtures.chain3 () in
  check_int "entries" 3 (Network.n_entries cnet);
  check_bool "find" true (Network.find_entry cnet r_a.FE.id = Some r_a);
  check_bool "next switch" true (Network.next_switch cnet r_a = Some 1);
  let ids = List.map (fun (e : FE.t) -> e.id) (Network.all_entries cnet) in
  check_bool "sorted ids" true (ids = List.sort compare ids)

let test_network_validation () =
  let { Fixtures.cnet; _ } = Fixtures.chain3 () in
  Alcotest.check_raises "dead output port"
    (Invalid_argument "Network.add_entry: output port has no link") (fun () ->
      ignore
        (Network.add_entry cnet ~switch:0 ~priority:1
           ~match_:(Cube.of_string "xxxxxxxx")
           (FE.Output 7)));
  Alcotest.check_raises "goto backwards"
    (Invalid_argument "Network.add_entry: goto must target a later table") (fun () ->
      ignore
        (Network.add_entry cnet ~switch:0 ~priority:1
           ~match_:(Cube.of_string "xxxxxxxx")
           (FE.Goto_table 0)));
  Alcotest.check_raises "bad match length"
    (Invalid_argument "Network.add_entry: match length") (fun () ->
      ignore
        (Network.add_entry cnet ~switch:0 ~priority:1 ~match_:(Cube.of_string "xx")
           FE.Drop))

let test_network_remove () =
  let { Fixtures.cnet; r_b; _ } = Fixtures.chain3 () in
  Network.remove_entry cnet r_b.FE.id;
  check_int "removed" 2 (Network.n_entries cnet);
  check_bool "gone" true (Network.find_entry cnet r_b.FE.id = None);
  check_bool "table updated" true
    (FT.lookup (Network.table cnet ~switch:1 ~table:0) (Header.of_string "10000000") = None)

let test_network_spaces () =
  let fx = Fixtures.figure3 () in
  let in_e2 = Network.input_space fx.Fixtures.net fx.Fixtures.e2 in
  check_bool "e2.in" true (Hs.equal_sets in_e2 (Hs.of_cubes 8 [ Cube.of_string "0011xxxx" ]));
  let out_d1 = Network.output_space fx.Fixtures.net fx.Fixtures.d1 in
  check_bool "d1.out" true (Hs.equal_sets out_d1 (Hs.of_cubes 8 [ Cube.of_string "0111xxxx" ]))

(* ------------------------------------------------------------------ *)
(* Serialization *)

module Serial = Openflow.Serial

let behaviourally_equal net net2 =
  let rng = Sdn_util.Prng.create 77 in
  let entries = Array.of_list (Network.all_entries net) in
  let emu1 = Dataplane.Emulator.create net and emu2 = Dataplane.Emulator.create net2 in
  let ok = ref (Network.n_entries net = Network.n_entries net2) in
  for _ = 1 to 100 do
    let e = Sdn_util.Prng.choose rng entries in
    let header = Header.of_cube (Cube.sample rng e.FE.match_) in
    let at = Sdn_util.Prng.int rng (Network.n_switches net) in
    let tr r = List.map (fun h -> h.Dataplane.Emulator.switch) r.Dataplane.Emulator.trace in
    let r1 = Dataplane.Emulator.inject emu1 ~at header in
    let r2 = Dataplane.Emulator.inject emu2 ~at header in
    if tr r1 <> tr r2 then ok := false
  done;
  !ok

let test_serial_roundtrip_figure3 () =
  let fx = Fixtures.figure3 () in
  let text = Serial.to_string fx.Fixtures.net in
  match Serial.of_string text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok net2 ->
      check_bool "same behaviour" true (behaviourally_equal fx.Fixtures.net net2);
      (* Printing again is a fixpoint. *)
      Alcotest.(check string) "print fixpoint" text (Serial.to_string net2)

let test_serial_roundtrip_generated () =
  let rng = Sdn_util.Prng.create 3 in
  let topo = Topogen.Topo_gen.rocketfuel_like rng ~n_switches:9 () in
  let spec =
    {
      Topogen.Rule_gen.default_spec with
      Topogen.Rule_gen.flows_per_destination = 3;
      acl_rules_per_switch = 3;
    }
  in
  let net = Topogen.Rule_gen.install ~spec rng topo in
  match Serial.of_string (Serial.to_string net) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok net2 -> check_bool "same behaviour" true (behaviourally_equal net net2)

let test_serial_errors () =
  let expect_error s text =
    match Serial.of_string text with
    | Ok _ -> Alcotest.failf "expected failure for %s" s
    | Error _ -> ()
  in
  expect_error "missing magic" "header_len 8\nswitches 1\ntables 1\n";
  expect_error "bad version" "sdnprobe-policy 9\n";
  expect_error "bad directive" "sdnprobe-policy 1\nheader_len 8\nswitches 1\ntables 1\nwat 3\n";
  expect_error "bad action"
    "sdnprobe-policy 1\nheader_len 4\nswitches 2\ntables 1\nlink 0 1 1 1\nentry switch=0 table=0 priority=1 match=xxxx action=teleport:3\n";
  expect_error "bad match"
    "sdnprobe-policy 1\nheader_len 4\nswitches 2\ntables 1\nlink 0 1 1 1\nentry switch=0 table=0 priority=1 match=22 action=drop\n"

let test_serial_comments_and_blanks () =
  let text =
    "# a policy\nsdnprobe-policy 1\n\nheader_len 4\nswitches 2\ntables 1\n# the link\nlink 0 1 1 1\nentry switch=0 table=0 priority=1 match=1xxx action=output:1\n"
  in
  match Serial.of_string text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok net -> check_int "one entry" 1 (Network.n_entries net)

(* The packed lookup against the list scan it replaced. Tables are built
   by [of_entries] and then edited by random [add]/[remove] calls
   (absent ids included), with priority ties and empty tables, at
   header lengths of one, two and three 62-bit chunks. The reference
   model is the former list implementation: [List.sort], [List.merge]
   and [List.filter] in lookup order. *)
let prop_packed_lookup =
  QCheck.Test.make ~name:"lookup = list scan over entries" ~count:300
    QCheck.(pair (oneofl [ 8; 62; 63; 130 ]) (int_bound 1_000_000))
    (fun (len, seed) ->
      let rng = Sdn_util.Prng.create seed in
      let wildcard_prob = Sdn_util.Prng.choose rng [| 0.5; 0.9; 0.98 |] in
      let next_id = ref 0 in
      let fresh () =
        let id = !next_id in
        incr next_id;
        FE.make ~id ~switch:0 ~table:0
          ~priority:(1 + Sdn_util.Prng.int rng 3)
          ~match_:(Cube.random rng ~wildcard_prob len)
          FE.Drop
      in
      let order (a : FE.t) (b : FE.t) =
        match compare b.priority a.priority with 0 -> compare a.id b.id | c -> c
      in
      let initial = List.init (Sdn_util.Prng.int rng 10) (fun _ -> fresh ()) in
      let initial = Sdn_util.Prng.shuffle_list rng initial in
      let t = ref (FT.of_entries initial) and model = ref (List.sort order initial) in
      for _ = 1 to Sdn_util.Prng.int rng 12 do
        if Sdn_util.Prng.bool rng then begin
          let e = fresh () in
          t := FT.add !t e;
          model := List.merge order [ e ] !model
        end
        else begin
          let id = Sdn_util.Prng.int rng (!next_id + 2) in
          t := FT.remove !t id;
          model := List.filter (fun (e : FE.t) -> e.id <> id) !model
        end
      done;
      let ids l = List.map (fun (e : FE.t) -> e.id) l in
      let query () =
        match !model with
        | _ :: _ when Sdn_util.Prng.int rng 4 > 0 ->
            Header.sample rng (Sdn_util.Prng.choose_list rng !model).match_
        | _ -> Header.sample rng (Cube.wildcard len)
      in
      let same_lookup (h : Header.t) =
        let scan = List.find_opt (fun (e : FE.t) -> Cube.subset (h :> Cube.t) e.match_) in
        match (FT.lookup !t h, scan (FT.entries !t)) with
        | None, None -> true
        | Some a, Some b -> a == b
        | _ -> false
      in
      let reference_overlaps (r : FE.t) =
        List.filter
          (fun (q : FE.t) ->
            q.id <> r.id && order q r < 0 && not (Cube.disjoint q.match_ r.match_))
          !model
      in
      ids (FT.entries !t) = ids !model
      && FT.size !t = List.length !model
      && List.for_all (fun _ -> same_lookup (query ())) (List.init 24 Fun.id)
      && List.for_all
           (fun r -> ids (FT.higher_priority_overlaps !t r) = ids (reference_overlaps r))
           !model)

let () =
  Alcotest.run "openflow"
    [
      ( "flow entry",
        [
          Alcotest.test_case "matches" `Quick test_entry_matches;
          Alcotest.test_case "apply set field" `Quick test_entry_apply;
          Alcotest.test_case "overlaps" `Quick test_entry_overlaps;
          Alcotest.test_case "set length mismatch" `Quick test_entry_set_length_mismatch;
        ] );
      ( "flow table",
        [
          Alcotest.test_case "lookup priority" `Quick test_table_lookup_priority;
          Alcotest.test_case "tie break" `Quick test_table_tie_break;
          Alcotest.test_case "overlaps tie break" `Quick test_overlaps_tie_break;
          Alcotest.test_case "add/remove" `Quick test_table_add_remove;
          Alcotest.test_case "input space" `Quick test_input_space;
          Alcotest.test_case "output space" `Quick test_output_space;
          QCheck_alcotest.to_alcotest prop_shadow_iff_empty_input;
          QCheck_alcotest.to_alcotest prop_packed_lookup;
        ] );
      ( "topology",
        [
          Alcotest.test_case "links" `Quick test_topology_links;
          Alcotest.test_case "invalid" `Quick test_topology_invalid;
          Alcotest.test_case "digraph" `Quick test_topology_digraph;
        ] );
      ( "network",
        [
          Alcotest.test_case "add entry" `Quick test_network_add_entry;
          Alcotest.test_case "validation" `Quick test_network_validation;
          Alcotest.test_case "remove" `Quick test_network_remove;
          Alcotest.test_case "figure3 spaces" `Quick test_network_spaces;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "figure3 roundtrip" `Quick test_serial_roundtrip_figure3;
          Alcotest.test_case "generated roundtrip" `Quick test_serial_roundtrip_generated;
          Alcotest.test_case "errors" `Quick test_serial_errors;
          Alcotest.test_case "comments" `Quick test_serial_comments_and_blanks;
        ] );
    ]
