(* Tests for the symbolic invariant verifier: the invariant language,
   the plumbing graph and its incremental patching, the closure
   engine's exactness against brute-force concrete-header simulation,
   incremental-vs-from-scratch equivalence under random edits, witness
   certification (including rejection of corrupted witnesses), the
   L001/L002 lint delegation (pinned against an inline copy of the
   historical graph-walk). *)

module Cube = Hspace.Cube
module Hs = Hspace.Hs
module Header = Hspace.Header
module FE = Openflow.Flow_entry
module Topology = Openflow.Topology
module Network = Openflow.Network
module Flow_table = Openflow.Flow_table
module Digraph = Sdngraph.Digraph
module Invariant = Verify.Invariant
module Plumbing = Verify.Plumbing
module Closure = Verify.Closure
module Witness = Verify.Witness
module Report = Verify.Report
module Engine = Verify.Engine

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let add net ~switch ?table ~priority ~match_ ?set_field action =
  Network.add_entry net ~switch ?table ~priority ~match_:(Cube.of_string match_)
    ?set_field:(Option.map Cube.of_string set_field)
    action

(* A 2-switch mutual-forwarding loop on 1xxx. *)
let loop_net () =
  let topo = Topology.create ~n_switches:2 in
  Topology.add_link topo ~sw_a:0 ~port_a:1 ~sw_b:1 ~port_b:1;
  let net = Network.create ~header_len:4 topo in
  let a = add net ~switch:0 ~priority:1 ~match_:"1xxx" (FE.Output 1) in
  let b = add net ~switch:1 ~priority:1 ~match_:"1xxx" (FE.Output 1) in
  (net, a, b)

(* sw0 forwards 1xxx to sw1, whose only rule matches 11xx: 10xx leaks. *)
let leak_net () =
  let topo = Topology.create ~n_switches:2 in
  Topology.add_link topo ~sw_a:0 ~port_a:1 ~sw_b:1 ~port_b:1;
  let net = Network.create ~header_len:4 topo in
  let r = add net ~switch:0 ~priority:1 ~match_:"1xxx" (FE.Output 1) in
  let _ = add net ~switch:1 ~priority:1 ~match_:"11xx" FE.Drop in
  (net, r)

(* ------------------------------------------------------------------ *)
(* Invariant language *)

let test_invariant_round_trip () =
  List.iter
    (fun inv ->
      match Invariant.of_string (Invariant.to_string inv) with
      | Ok inv' -> check_bool (Invariant.to_string inv) true (Invariant.equal inv inv')
      | Error msg -> Alcotest.failf "round trip failed: %s" msg)
    [
      Invariant.Reach (0, 5);
      Invariant.Isolated (3, 1);
      Invariant.Loop_free;
      Invariant.No_blackhole;
      Invariant.Waypoint (0, 3, 5);
    ]

let test_invariant_parse_errors () =
  let bad s =
    match Invariant.of_string s with
    | Ok _ -> Alcotest.failf "expected parse error for %S" s
    | Error _ -> ()
  in
  bad "";
  bad "reach 0";
  bad "reach 0 x";
  bad "reach 0 -1";
  bad "waypoint 1 2";
  bad "frobnicate 1 2"

let test_invariant_spec () =
  let spec = "# header comment\nreach 0 2\n\nloop-free  # trailing\nwaypoint 0 1 2\n" in
  (match Invariant.parse_spec spec with
  | Ok [ Invariant.Reach (0, 2); Invariant.Loop_free; Invariant.Waypoint (0, 1, 2) ] -> ()
  | Ok invs -> Alcotest.failf "unexpected parse: %d invariants" (List.length invs)
  | Error msg -> Alcotest.failf "spec rejected: %s" msg);
  match Invariant.parse_spec "loop-free\nbogus 1\n" with
  | Error msg -> check_bool "line number in error" true (String.length msg > 0 && String.sub msg 0 7 = "line 2:")
  | Ok _ -> Alcotest.fail "expected spec error"

let test_invariant_validate () =
  check_bool "in range" true
    (Result.is_ok (Invariant.validate ~n_switches:3 (Invariant.Reach (0, 2))));
  check_bool "out of range" true
    (Result.is_error (Invariant.validate ~n_switches:3 (Invariant.Waypoint (0, 3, 2))))

(* ------------------------------------------------------------------ *)
(* Brute-force differential: closure vs concrete simulation *)

let all_headers len = List.init (1 lsl len) (fun i ->
    Header.of_string
      (String.init len (fun k ->
           if i land (1 lsl (len - 1 - k)) <> 0 then '1' else '0')))

(* Entry ids traversed (with the header each rule emits) when [h] is
   injected at [source]'s table 0, through real lookup semantics. *)
let simulate net ~source h =
  let bound = Network.n_entries net + 2 in
  let rec go acc h sw tb steps =
    if steps > bound then acc
    else
      match Flow_table.lookup (Network.table net ~switch:sw ~table:tb) h with
      | None -> acc
      | Some e -> (
          let h' = FE.apply e h in
          let acc = (e.FE.id, h') :: acc in
          match e.FE.action with
          | FE.Drop -> acc
          | FE.Output _ -> (
              match Network.next_switch net e with
              | None -> acc
              | Some sw' -> go acc h' sw' 0 (steps + 1))
          | FE.Goto_table tb' -> go acc h' e.FE.switch tb' (steps + 1))
  in
  go [] h source 0 0

let sorted_ids l = List.sort_uniq Int.compare l

let prop_closure_vs_brute_force =
  QCheck.Test.make ~name:"closure agrees with brute-force simulation" ~count:60
    QCheck.small_nat (fun seed ->
      let rng = Sdn_util.Prng.create (seed + 1) in
      let header_len = 6 in
      let net =
        Fixtures.random_line_net rng ~n_switches:4 ~rules_per_switch:3 ~header_len
      in
      let plumbing = Plumbing.build net in
      let headers = all_headers header_len in
      List.for_all
        (fun source ->
          let st = Closure.compute plumbing ~source () in
          (* Per-entry output-header sets from exhaustive simulation. *)
          let brute = Hashtbl.create 32 in
          List.iter
            (fun h ->
              List.iter
                (fun (id, (h' : Header.t)) ->
                  let prev =
                    Option.value (Hashtbl.find_opt brute id)
                      ~default:(Hs.empty header_len)
                  in
                  Hashtbl.replace brute id (Hs.union prev (Hs.of_cube (h' :> Cube.t))))
                (simulate net ~source h))
            headers;
          let brute_ids =
            List.sort_uniq Int.compare
              (Hashtbl.fold (fun id _ acc -> id :: acc) brute [])
          in
          let closure_ids =
            sorted_ids
              (List.map
                 (fun v -> (Plumbing.vertex_entry plumbing v).FE.id)
                 (Closure.reached st))
          in
          brute_ids = closure_ids
          && List.for_all
               (fun v ->
                 let id = (Plumbing.vertex_entry plumbing v).FE.id in
                 Hs.equal_sets (Closure.acc_at st v) (Hashtbl.find brute id))
               (Closure.reached st))
        (List.init (Network.n_switches net) Fun.id))

(* ------------------------------------------------------------------ *)
(* Incremental: plumbing patch and state re-propagation vs from-scratch *)

let random_edit rng net =
  let entries = Network.all_entries net in
  let victim = List.nth entries (Sdn_util.Prng.int rng (List.length entries)) in
  Network.remove_entry net victim.FE.id;
  let sw = Sdn_util.Prng.int rng (Network.n_switches net - 1) in
  let added =
    Network.add_entry net ~switch:sw
      ~priority:(1 + Sdn_util.Prng.int rng 9)
      ~match_:(Cube.random rng (Network.header_len net))
      (FE.Output 2)
  in
  List.sort_uniq compare
    [ (victim.FE.switch, victim.FE.table); (added.FE.switch, 0) ]

(* A patched graph must equal a fresh build exactly: the same cube
   lists (not merely the same sets) and the same successor order. *)
let same_repr a b =
  let ca = Hs.cubes a and cb = Hs.cubes b in
  List.compare_lengths ca cb = 0 && List.for_all2 Cube.equal ca cb

let same_plumbing a b =
  check_int "vertices" (Plumbing.n_vertices a) (Plumbing.n_vertices b);
  for v = 0 to Plumbing.n_vertices a - 1 do
    check_int "entry id" (Plumbing.vertex_entry a v).FE.id
      (Plumbing.vertex_entry b v).FE.id;
    check_bool "input" true (same_repr (Plumbing.input a v) (Plumbing.input b v));
    check_bool "output" true (same_repr (Plumbing.output a v) (Plumbing.output b v));
    let sa = Plumbing.succ a v in
    check_bool "succ" true (sa = Plumbing.succ b v);
    List.iter
      (fun w ->
        check_bool "label" true (same_repr (Plumbing.label a v w) (Plumbing.label b v w)))
      sa
  done

let same_state plumbing inc scratch =
  let ids st =
    sorted_ids
      (List.map (fun v -> (Plumbing.vertex_entry plumbing v).FE.id) (Closure.reached st))
  in
  check_bool "reached sets" true (ids inc = ids scratch);
  List.iter
    (fun v ->
      check_bool "acc" true
        (Hs.equal_sets (Closure.acc_at inc v) (Closure.acc_at scratch v)))
    (Closure.reached scratch)

let test_incremental_random_churn () =
  let rng = Sdn_util.Prng.create 42 in
  for _ = 1 to 10 do
    let net =
      Fixtures.random_line_net rng ~n_switches:5 ~rules_per_switch:4 ~header_len:8
    in
    let plumbing = ref (Plumbing.build net) in
    let sources = List.init (Network.n_switches net) Fun.id in
    let states = List.map (fun s -> Closure.compute !plumbing ~source:s ()) sources in
    for _ = 1 to 3 do
      let changed_tables = random_edit rng net in
      let patch = Plumbing.patch !plumbing ~changed_tables in
      plumbing := patch.Plumbing.plumbing;
      List.iter (fun st -> ignore (Closure.update !plumbing patch st)) states
    done;
    let fresh = Plumbing.build net in
    same_plumbing !plumbing fresh;
    List.iter2
      (fun s st -> same_state fresh st (Closure.compute fresh ~source:s ()))
      sources states
  done

let prop_incremental_vs_scratch =
  QCheck.Test.make ~name:"incremental closure equals from-scratch after k edits"
    ~count:40 QCheck.small_nat (fun seed ->
      let rng = Sdn_util.Prng.create (seed + 1000) in
      let net =
        Fixtures.random_line_net rng ~n_switches:4 ~rules_per_switch:3 ~header_len:6
      in
      let plumbing = ref (Plumbing.build net) in
      let sources = List.init (Network.n_switches net) Fun.id in
      let states = List.map (fun s -> Closure.compute !plumbing ~source:s ()) sources in
      let k = 1 + (seed mod 4) in
      for _ = 1 to k do
        let changed_tables = random_edit rng net in
        let patch = Plumbing.patch !plumbing ~changed_tables in
        plumbing := patch.Plumbing.plumbing;
        List.iter (fun st -> ignore (Closure.update !plumbing patch st)) states
      done;
      let fresh = Plumbing.build net in
      List.for_all2
        (fun s st ->
          let scratch = Closure.compute fresh ~source:s () in
          let ids st =
            sorted_ids
              (List.map
                 (fun v -> (Plumbing.vertex_entry fresh v).FE.id)
                 (Closure.reached st))
          in
          ids st = ids scratch
          && List.for_all
               (fun v -> Hs.equal_sets (Closure.acc_at st v) (Closure.acc_at scratch v))
               (Closure.reached scratch))
        sources states)

(* ------------------------------------------------------------------ *)
(* Engine: invariants on the paper's Fig. 3 example *)

let test_figure3_invariants () =
  let f = Fixtures.figure3 () in
  let engine = Engine.create f.Fixtures.net in
  let a = Fixtures.sw_a and c = Fixtures.sw_c and d = Fixtures.sw_d and e = Fixtures.sw_e in
  let report =
    Engine.check engine
      [
        Invariant.Loop_free;
        Invariant.Reach (a, e);
        Invariant.Reach (a, d);
        Invariant.Isolated (a, d);
        Invariant.Waypoint (a, c, e);
        Invariant.Waypoint (a, d, e);
      ]
  in
  let status inv =
    match List.assoc_opt inv report.Report.results with
    | Some s -> s
    | None -> Alcotest.failf "missing result for %s" (Invariant.to_string inv)
  in
  check_bool "loop-free holds" true (status Invariant.Loop_free = Report.Holds);
  check_bool "reach A E holds" true (status (Invariant.Reach (a, e)) = Report.Holds);
  (* A's only injectable traffic (00101xxx) goes A->B->C->E; D is never hit. *)
  check_bool "reach A D violated" true
    (match status (Invariant.Reach (a, d)) with Report.Violated _ -> true | _ -> false);
  check_bool "isolated A D holds" true (status (Invariant.Isolated (a, d)) = Report.Holds);
  check_bool "waypoint A C E holds" true
    (status (Invariant.Waypoint (a, c, e)) = Report.Holds);
  (match status (Invariant.Waypoint (a, d, e)) with
  | Report.Violated [ v ] ->
      check_bool "waypoint witness certified" true (v.Report.certificate = Witness.Replayed);
      check_bool "witness avoids D" true
        (List.for_all
           (fun id -> (Network.entry f.Fixtures.net id).FE.switch <> d)
           v.Report.witness.Witness.rules)
  | _ -> Alcotest.fail "expected one waypoint A D E violation");
  (* Isolation violation comes with a replayable path witness. *)
  let report2 = Engine.check engine [ Invariant.Isolated (a, e) ] in
  match Report.violations report2 with
  | [ v ] ->
      check_bool "isolated witness certified" true (v.Report.certificate = Witness.Replayed);
      check_bool "path ends at E" true
        ((Network.entry f.Fixtures.net
            (List.nth v.Report.witness.Witness.rules
               (List.length v.Report.witness.Witness.rules - 1)))
           .FE.switch = e)
  | vs -> Alcotest.failf "expected one isolation violation, got %d" (List.length vs)

let test_loop_detection_and_edit () =
  let net, a, _b = loop_net () in
  let engine = Engine.create net in
  (match Report.violations (Engine.check engine [ Invariant.Loop_free ]) with
  | [ v ] ->
      check_bool "replayed loop" true (v.Report.certificate = Witness.Replayed);
      (* The unrolled path revisits an entry. *)
      let rules = v.Report.witness.Witness.rules in
      check_bool "path revisits" true
        (List.length (sorted_ids rules) < List.length rules)
  | vs -> Alcotest.failf "expected one loop violation, got %d" (List.length vs));
  (* Removing one loop rule fixes it, incrementally. *)
  Network.remove_entry net a.FE.id;
  Engine.update engine ~changed_tables:[ (0, 0) ];
  check_bool "loop gone after edit" true
    (Report.ok (Engine.check engine [ Invariant.Loop_free ]));
  (* Reinstalling it brings the loop back. *)
  let _ =
    Network.add_entry net ~switch:0 ~priority:1 ~match_:(Cube.of_string "1xxx")
      (FE.Output 1)
  in
  Engine.update engine ~changed_tables:[ (0, 0) ];
  check_int "loop back" 1
    (List.length (Report.violations (Engine.check engine [ Invariant.Loop_free ])))

let test_blackhole_witness () =
  let net, r = leak_net () in
  let engine = Engine.create net in
  match Report.violations (Engine.check engine [ Invariant.No_blackhole ]) with
  | [ v ] ->
      check_bool "warning" true (v.Report.severity = Report.Warning);
      check_bool "replayed" true (v.Report.certificate = Witness.Replayed);
      check_bool "path ends at leaking rule" true
        (List.nth v.Report.witness.Witness.rules
           (List.length v.Report.witness.Witness.rules - 1)
        = r.FE.id);
      (* The witness header must actually fall into the leak (10xx). *)
      (match v.Report.witness.Witness.header with
      | Some h -> check_bool "header in leak" true (Header.matches h (Cube.of_string "10xx"))
      | None -> Alcotest.fail "expected a concrete header")
  | vs -> Alcotest.failf "expected one blackhole violation, got %d" (List.length vs)

(* ------------------------------------------------------------------ *)
(* Witness certification rejects corrupted witnesses *)

let test_certification_rejects_corruption () =
  let net, _, _ = loop_net () in
  let engine = Engine.create net in
  match Report.violations (Engine.check engine [ Invariant.Loop_free ]) with
  | [ v ] ->
      let w = v.Report.witness in
      check_bool "genuine witness accepted" true
        (Result.is_ok (Witness.certify net v.Report.kind w));
      (* Header outside the loop space: replay diverges. *)
      let corrupt_header = { w with Witness.header = Some (Header.of_string "0000") } in
      check_bool "corrupt header rejected" true
        (Result.is_error (Witness.certify net v.Report.kind corrupt_header));
      (* Truncated path: no entry repeats, postcondition fails. *)
      let truncated = { w with Witness.rules = [ List.hd w.Witness.rules ] } in
      check_bool "truncated path rejected" true
        (Result.is_error (Witness.certify net v.Report.kind truncated))
  | _ -> Alcotest.fail "expected a loop violation"

let test_every_violation_certified () =
  (* On a policy with loops, blackholes and reach failures, every
     reported violation must carry a certificate (the engine raises
     otherwise); re-certify each explicitly. *)
  let net, _, _ = loop_net () in
  let engine = Engine.create net in
  let report =
    Engine.check engine
      [ Invariant.Loop_free; Invariant.No_blackhole; Invariant.Reach (0, 1); Invariant.Isolated (0, 1) ]
  in
  List.iter
    (fun v ->
      match Witness.certify net v.Report.kind v.Report.witness with
      | Ok cert -> check_bool "certificate matches" true (cert = v.Report.certificate)
      | Error msg -> Alcotest.failf "witness failed recertification: %s" msg)
    (Report.violations report)

(* ------------------------------------------------------------------ *)
(* Engine-level incremental behaviour *)

let test_cache_hits_on_disjoint_component () =
  (* Two disjoint 2-switch lines; an edit in one component must leave
     the other component's states untouched (cache hits). *)
  let topo = Topology.create ~n_switches:4 in
  Topology.add_link topo ~sw_a:0 ~port_a:1 ~sw_b:1 ~port_b:1;
  Topology.add_link topo ~sw_a:2 ~port_a:1 ~sw_b:3 ~port_b:1;
  let net = Network.create ~header_len:4 topo in
  let r0 = add net ~switch:0 ~priority:1 ~match_:"1xxx" (FE.Output 1) in
  let _ = add net ~switch:1 ~priority:1 ~match_:"1xxx" FE.Drop in
  let _ = add net ~switch:2 ~priority:1 ~match_:"0xxx" (FE.Output 1) in
  let _ = add net ~switch:3 ~priority:1 ~match_:"0xxx" FE.Drop in
  let engine = Engine.create net in
  let invs = [ Invariant.Reach (0, 1); Invariant.Reach (2, 3) ] in
  check_bool "both reach" true (Report.ok (Engine.check engine invs));
  Network.remove_entry net r0.FE.id;
  Engine.update engine ~changed_tables:[ (0, 0) ];
  let report = Engine.check engine invs in
  (* Source 2's state was untouched by the edit. *)
  check_bool "cache hit recorded" true
    (List.assoc "state_cache_hits" report.Report.metrics >= 1);
  (* reach 0 1 now fails, reach 2 3 still holds. *)
  (match List.assoc_opt (Invariant.Reach (0, 1)) report.Report.results with
  | Some (Report.Violated _) -> ()
  | _ -> Alcotest.fail "reach 0 1 should be violated after edit");
  match List.assoc_opt (Invariant.Reach (2, 3)) report.Report.results with
  | Some Report.Holds -> ()
  | _ -> Alcotest.fail "reach 2 3 should still hold"

let test_incremental_verdicts_match_scratch () =
  let rng = Sdn_util.Prng.create 7 in
  for _ = 1 to 6 do
    let net =
      Fixtures.random_line_net rng ~n_switches:5 ~rules_per_switch:4 ~header_len:8
    in
    let engine = Engine.create net in
    let invs =
      [ Invariant.Loop_free; Invariant.No_blackhole; Invariant.Reach (0, 4);
        Invariant.Isolated (0, 4) ]
    in
    ignore (Engine.check engine invs);
    for _ = 1 to 3 do
      let changed_tables = random_edit rng net in
      Engine.update engine ~changed_tables
    done;
    let incremental = Engine.check engine invs in
    let scratch = Engine.check (Engine.create net) invs in
    List.iter2
      (fun (inv_i, st_i) (inv_s, st_s) ->
        check_bool "same invariant" true (Invariant.equal inv_i inv_s);
        let verdict = function Report.Holds -> "holds" | Report.Violated _ -> "violated" in
        check_string
          ("verdict for " ^ Invariant.to_string inv_i)
          (verdict st_s) (verdict st_i);
        (* Violation multisets agree too (witness paths may differ). *)
        let n = function Report.Holds -> 0 | Report.Violated vs -> List.length vs in
        check_int "violation count" (n st_s) (n st_i))
      incremental.Report.results scratch.Report.results
  done

(* Golden reports: the canonical JSON (no timings) of a full default
   check on the preset workloads. It carries [label_cubes],
   [cubes_propagated] and [worklist_iterations], so a changed cube list
   anywhere in the header-space algebra fails here even when every
   verdict still holds. *)
let golden_report n_switches expect () =
  let _, net = Topogen.Preset.scale ~n_switches in
  let report = Engine.check (Engine.create net) Engine.default_invariants in
  check_string
    (Printf.sprintf "report digest, %d switches" n_switches)
    expect
    (Digest.to_hex (Digest.string (Report.to_json report)))

(* ------------------------------------------------------------------ *)
(* L001/L002 delegation: pinned against the historical inline walk *)

(* Verbatim re-implementation of the pre-delegation L001/L002 data
   computation (base rule-graph edges / next-hop diff fold), kept here
   as the regression oracle for the lint passes now delegating to
   Verify.Plumbing. *)
let old_l001 net =
  let entries = Array.of_list (Network.all_entries net) in
  let index_of = Hashtbl.create 16 in
  Array.iteri (fun i (e : FE.t) -> Hashtbl.add index_of e.FE.id i) entries;
  let inputs = Array.map (Network.input_space net) entries in
  let outputs = Array.map (Network.output_space net) entries in
  let successor_entries (r : FE.t) =
    match r.FE.action with
    | FE.Drop -> []
    | FE.Output _ -> (
        match Network.next_switch net r with
        | None -> []
        | Some sw -> Flow_table.entries (Network.table net ~switch:sw ~table:0))
    | FE.Goto_table tb -> Flow_table.entries (Network.table net ~switch:r.FE.switch ~table:tb)
  in
  let g = Digraph.create (Array.length entries) in
  Array.iteri
    (fun i (r : FE.t) ->
      List.iter
        (fun (q : FE.t) ->
          let j = Hashtbl.find index_of q.FE.id in
          if not (Hs.is_empty (Hs.inter outputs.(i) inputs.(j))) then
            Digraph.add_edge g i j)
        (successor_entries r))
    entries;
  match Digraph.find_cycle g with
  | None -> None
  | Some cycle ->
      let head = List.hd cycle in
      let backward path =
        List.fold_right
          (fun v after ->
            let r = entries.(v) in
            Hs.inter inputs.(v) (Hs.inverse_set_field ~set:r.FE.set_field after))
          path
          (Hs.full (Network.header_len net))
      in
      let round_trip = backward (cycle @ [ head ]) in
      let witness =
        if not (Hs.is_empty round_trip) then round_trip
        else
          match cycle with
          | x :: y :: _ -> Hs.inter outputs.(x) inputs.(y)
          | [ x ] -> Hs.inter outputs.(x) inputs.(x)
          | [] -> assert false
      in
      Some (List.map (fun v -> entries.(v).FE.id) cycle, witness)

let old_l002 net =
  List.filter_map
    (fun (r : FE.t) ->
      match r.FE.action with
      | FE.Output _ -> (
          match Network.next_switch net r with
          | None -> None
          | Some sw ->
              let leaked =
                List.fold_left
                  (fun space (q : FE.t) -> Hs.diff_cube space q.FE.match_)
                  (Network.output_space net r)
                  (Flow_table.entries (Network.table net ~switch:sw ~table:0))
              in
              if Hs.is_empty leaked then None else Some (r.FE.id, sw, leaked))
      | FE.Drop | FE.Goto_table _ -> None)
    (Network.all_entries net)

let cubes_exact a b =
  List.map Cube.to_string (Hs.cubes a) = List.map Cube.to_string (Hs.cubes b)

let lint_diagnostics net pass =
  let report = Lint.Engine.run ~only:[ pass ] net in
  List.filter
    (fun (d : Lint.Diagnostic.t) ->
      String.length d.Lint.Diagnostic.check >= 4
      && String.sub d.Lint.Diagnostic.check 0 4 = pass)
    report.Lint.Engine.diagnostics

let test_l001_delegation_pinned () =
  let nets =
    [ (let net, _, _ = loop_net () in net); (Fixtures.figure3 ()).Fixtures.net ]
    @ List.init 5 (fun i ->
          let rng = Sdn_util.Prng.create (100 + i) in
          Fixtures.random_line_net rng ~n_switches:5 ~rules_per_switch:4 ~header_len:8)
  in
  List.iter
    (fun net ->
      let expected = old_l001 net in
      let got = lint_diagnostics net "L001" in
      match (expected, got) with
      | None, [] -> ()
      | Some (ids, witness), [ d ] ->
          check_bool "same cycle ids" true (d.Lint.Diagnostic.entries = ids);
          check_string "severity" "error"
            (Lint.Diagnostic.severity_to_string d.Lint.Diagnostic.severity);
          check_bool "witness bit-identical" true
            (cubes_exact d.Lint.Diagnostic.witness witness)
      | None, _ :: _ -> Alcotest.fail "L001 reported a cycle the old walk did not"
      | Some _, _ -> Alcotest.fail "L001 missed the old walk's cycle")
    nets

let test_l002_delegation_pinned () =
  let nets =
    [ (let net, _ = leak_net () in net); (Fixtures.figure3 ()).Fixtures.net ]
    @ List.init 5 (fun i ->
          let rng = Sdn_util.Prng.create (200 + i) in
          Fixtures.random_line_net rng ~n_switches:5 ~rules_per_switch:4 ~header_len:8)
  in
  List.iter
    (fun net ->
      let expected = old_l002 net in
      let got = lint_diagnostics net "L002" in
      check_int "same finding count" (List.length expected) (List.length got);
      List.iter2
        (fun (id, sw, leaked) (d : Lint.Diagnostic.t) ->
          check_bool "same entry" true (d.Lint.Diagnostic.entries = [ id ]);
          check_bool "same switch" true (d.Lint.Diagnostic.switch = Some sw);
          check_string "severity" "warning"
            (Lint.Diagnostic.severity_to_string d.Lint.Diagnostic.severity);
          check_bool "witness bit-identical" true
            (cubes_exact d.Lint.Diagnostic.witness leaked))
        expected got)
    nets

(* ------------------------------------------------------------------ *)
(* Metrics instrumentation *)

let test_metrics_counters () =
  Metrics.Counter.reset_all ();
  let net, _, _ = loop_net () in
  let engine = Engine.create net in
  ignore (Engine.check engine [ Invariant.Loop_free ]);
  let snapshot = Metrics.Counter.snapshot () in
  let value k = Option.value (List.assoc_opt k snapshot) ~default:0 in
  check_bool "states counter" true (value "verify.states.computed" > 0);
  check_bool "iterations counter" true (value "verify.closure.iterations" > 0);
  check_bool "cubes counter" true (value "verify.closure.cubes" > 0)

let () =
  Alcotest.run "verify"
    [
      ( "invariant",
        [
          Alcotest.test_case "round trip" `Quick test_invariant_round_trip;
          Alcotest.test_case "parse errors" `Quick test_invariant_parse_errors;
          Alcotest.test_case "spec file" `Quick test_invariant_spec;
          Alcotest.test_case "validate" `Quick test_invariant_validate;
        ] );
      ( "closure",
        [
          QCheck_alcotest.to_alcotest prop_closure_vs_brute_force;
          Alcotest.test_case "incremental churn" `Quick test_incremental_random_churn;
          QCheck_alcotest.to_alcotest prop_incremental_vs_scratch;
        ] );
      ( "engine",
        [
          Alcotest.test_case "figure 3 invariants" `Quick test_figure3_invariants;
          Alcotest.test_case "loop detect and edit" `Quick test_loop_detection_and_edit;
          Alcotest.test_case "blackhole witness" `Quick test_blackhole_witness;
          Alcotest.test_case "cache hits" `Quick test_cache_hits_on_disjoint_component;
          Alcotest.test_case "incremental verdicts" `Quick
            test_incremental_verdicts_match_scratch;
          Alcotest.test_case "golden report s16" `Quick
            (golden_report 16 "b60e73698c0e77ad7b628a13ed10e32a");
          Alcotest.test_case "golden report s50" `Slow
            (golden_report 50 "c4c36ea1d8f6f3e4b829d8cd6f3f0f64");
        ] );
      ( "witness",
        [
          Alcotest.test_case "rejects corruption" `Quick
            test_certification_rejects_corruption;
          Alcotest.test_case "all violations certified" `Quick
            test_every_violation_certified;
        ] );
      ( "lint-delegation",
        [
          Alcotest.test_case "L001 pinned" `Quick test_l001_delegation_pinned;
          Alcotest.test_case "L002 pinned" `Quick test_l002_delegation_pinned;
        ] );
      ("metrics", [ Alcotest.test_case "counters" `Quick test_metrics_counters ]);
    ]
