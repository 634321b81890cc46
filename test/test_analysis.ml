(* sdncheck, the determinism & domain-safety analyzer (lib/analysis):
   per-rule fixtures that must fire, a clean fixture dir, suppression
   parsing (mandatory reason), the lint-shaped JSON round-trip, and
   the self-scan gate — the repository's own sources must come out
   clean, which is the same property the analyze-self CI job enforces
   on the real tree. *)

module Source = Sdn_analysis.Source
module Finding = Sdn_analysis.Finding
module Rules = Sdn_analysis.Rules
module Engine = Sdn_analysis.Engine
module Modgraph = Sdn_analysis.Modgraph
module J = Sdn_util.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* Fixtures are copied next to the test binary (source_tree dep);
   under `dune exec` from the checkout root, fall back to test/. *)
let fixture_root =
  if Sys.file_exists "analysis_fixtures" then "analysis_fixtures"
  else Filename.concat "test" "analysis_fixtures"

let fixture sub name =
  let path = Filename.concat (Filename.concat fixture_root sub) name in
  In_channel.with_open_bin path In_channel.input_all

(* Run the full catalogue over one synthetic source, everything
   considered pooled-reachable (D005's worst case). *)
let run_rel ?(pooled = fun _ -> true) ~rel text =
  let src = Source.of_string ~rel text in
  Engine.run_sources ~rules:Rules.all ~pooled [ src ]

(* The (rule, line) witness list, in report order. *)
let witnesses report =
  List.map
    (fun (f : Finding.t) -> (f.Finding.check, f.Finding.line))
    report.Engine.diagnostics

let check_witnesses what expected report =
  Alcotest.(check (list (pair string int))) what expected (witnesses report)

(* ------------------------------------------------------------------ *)
(* One failing fixture per rule. *)

let test_d001_fires () =
  let r = run_rel ~rel:"lib/bad/d001.ml" (fixture "bad" "d001.ml") in
  check_witnesses "fold and iter" [ ("D001", 3); ("D001", 4) ] r

let test_d002_fires () =
  let r = run_rel ~rel:"lib/bad/d002.ml" (fixture "bad" "d002.ml") in
  check_witnesses "three clocks" [ ("D002", 2); ("D002", 3); ("D002", 4) ] r

let test_d003_fires () =
  let r = run_rel ~rel:"lib/bad/d003.ml" (fixture "bad" "d003.ml") in
  check_witnesses "self_init and int" [ ("D003", 2); ("D003", 3) ] r

let test_d004_fires () =
  let r = run_rel ~rel:"lib/bad/d004.ml" (fixture "bad" "d004.ml") in
  check_witnesses "name/field/compare/hash/alias"
    [ ("D004", 8); ("D004", 9); ("D004", 10); ("D004", 11); ("D004", 12) ]
    r

let test_d005_fires () =
  let r = run_rel ~rel:"lib/bad/d005.ml" (fixture "bad" "d005.ml") in
  check_witnesses "four mutable toplevels"
    [ ("D005", 3); ("D005", 4); ("D005", 5); ("D005", 8) ]
    r

let test_d005_needs_reachability () =
  (* The same file outside the pooled-reachable set is not flagged. *)
  let r =
    run_rel ~pooled:(fun _ -> false) ~rel:"lib/bad/d005.ml"
      (fixture "bad" "d005.ml")
  in
  check_witnesses "not pooled, not flagged" [] r

let test_d006_fires () =
  let r = run_rel ~rel:"lib/bad/d006.ml" (fixture "bad" "d006.ml") in
  check_witnesses "print_string and printf" [ ("D006", 2); ("D006", 3) ] r

let test_d006_scope () =
  (* Same text under bin/ (a CLI) or lib/experiments/ (the stdout
     renderers): out of scope by design. *)
  let text = fixture "bad" "d006.ml" in
  check_witnesses "bin is fine" [] (run_rel ~rel:"bin/d006.ml" text);
  check_witnesses "experiments are fine" []
    (run_rel ~rel:"lib/experiments/d006.ml" text)

(* ------------------------------------------------------------------ *)
(* Suppressions. *)

let test_suppression_without_reason_rejected () =
  let r = run_rel ~rel:"lib/bad/noreason.ml" (fixture "bad" "noreason.ml") in
  (* The reasonless comment is S001 AND the finding it hangs over
     still fires. *)
  check_witnesses "S001 plus unsilenced D001" [ ("S001", 5); ("D001", 6) ] r;
  check_int "nothing suppressed" 0 r.Engine.suppressed

let test_good_dir_clean () =
  let r = run_rel ~rel:"lib/good/clean.ml" (fixture "good" "clean.ml") in
  check_witnesses "clean" [] r;
  check_int "the one reasoned suppression was used" 1 r.Engine.suppressed

let test_suppression_parsing () =
  let covers text =
    let src = Source.of_string ~rel:"lib/x.ml" text in
    (List.length src.Source.suppressions, List.length src.Source.malformed)
  in
  Alcotest.(check (pair int int))
    "em dash" (1, 0)
    (covers "(* sdncheck: allow D001 \xe2\x80\x94 order-free *)\nlet x = 1\n");
  Alcotest.(check (pair int int))
    "double hyphen" (1, 0)
    (covers "(* sdncheck: allow D001, D005 -- guarded by m *)\nlet x = 1\n");
  Alcotest.(check (pair int int))
    "no reason" (0, 1)
    (covers "(* sdncheck: allow D001 *)\nlet x = 1\n");
  Alcotest.(check (pair int int))
    "no valid ids" (0, 1)
    (covers "(* sdncheck: allow determinism \xe2\x80\x94 because *)\nlet x = 1\n");
  Alcotest.(check (pair int int))
    "unrelated comment ignored" (0, 0)
    (covers "(* plain prose about sdncheck rules *)\nlet x = 1\n")

let test_unparseable_is_flagged () =
  let r = run_rel ~rel:"lib/broken.ml" "let x = (\n" in
  match r.Engine.diagnostics with
  | [ f ] ->
      check_str "rule" "S001" f.Finding.check;
      check_str "file" "lib/broken.ml" f.Finding.file
  | l -> Alcotest.failf "expected one S001, got %d findings" (List.length l)

(* ------------------------------------------------------------------ *)
(* JSON: lint-shaped schema, round-trip through Sdn_util.Json. *)

let test_json_roundtrip () =
  let r =
    run_rel ~rel:"lib/bad/d004.ml" (fixture "bad" "d004.ml")
  in
  let j = Engine.to_json r in
  (match J.member "schema_version" j with
  | Some (J.Int v) -> check_int "schema_version" Engine.schema_version v
  | _ -> Alcotest.fail "schema_version missing");
  (match J.member "tool" j with
  | Some (J.Str t) -> check_str "tool" "sdncheck" t
  | _ -> Alcotest.fail "tool missing");
  let text = J.to_string j in
  match J.of_string text with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok j' -> (
      match Engine.of_json j' with
      | Error e -> Alcotest.failf "of_json failed: %s" e
      | Ok r' ->
          check_int "files_scanned" r.Engine.files_scanned r'.Engine.files_scanned;
          check_int "suppressed" r.Engine.suppressed r'.Engine.suppressed;
          check_bool "diagnostics survive" true
            (List.equal
               (fun a b -> Finding.compare a b = 0)
               r.Engine.diagnostics r'.Engine.diagnostics))

(* ------------------------------------------------------------------ *)
(* Self-scan: the repository's own sources must be clean. Tests run in
   _build/default/test, and dune copies the sources it builds into
   _build/default — a repo-shaped tree find_root resolves. *)

let test_self_scan_clean () =
  match Engine.find_root () with
  | None -> Alcotest.fail "cannot find repo root from the test runtime dir"
  | Some root ->
      let r = Engine.run ~root () in
      check_bool "scanned a real tree" true (r.Engine.files_scanned > 50);
      (match r.Engine.diagnostics with
      | [] -> ()
      | f :: _ ->
          Alcotest.failf "self-scan not clean (%d findings), first: %s"
            (List.length r.Engine.diagnostics)
            (Format.asprintf "%a" Finding.pp f));
      check_bool "suppressions in use" true (r.Engine.suppressed > 0)

(* D005's scope: the files every pooled stage can reach from its seed.
   A sharded plan builds whole rule graphs and matchings inside its
   per-region tasks, so those modules must be in scope with it. *)
let test_d005_scope_covers_pooled_stages () =
  match Engine.find_root () with
  | None -> Alcotest.fail "cannot find repo root from the test runtime dir"
  | Some root ->
      let files =
        List.map
          (fun rel -> (rel, (Source.load ~root ~rel).Source.stripped))
          (Engine.collect_files root)
      in
      let pooled =
        Modgraph.reachable (Modgraph.build ~root ~files) ~seeds:Engine.pooled_seeds
      in
      List.iter
        (fun rel -> check_bool rel true (pooled rel))
        [
          "lib/shard/splan.ml";
          "lib/rulegraph/rule_graph.ml";
          "lib/mlpc/legal_matching.ml";
          "lib/mlpc/headers.ml";
        ]

let test_exit_codes () =
  let bad = run_rel ~rel:"lib/bad/d001.ml" (fixture "bad" "d001.ml") in
  let warn = run_rel ~rel:"lib/bad/d006.ml" (fixture "bad" "d006.ml") in
  let clean = run_rel ~rel:"lib/good/clean.ml" (fixture "good" "clean.ml") in
  check_int "errors gate" 2 (Engine.exit_code ~fail_on:Engine.Fail_warning bad);
  check_int "warnings gate at fail-on warning" 1
    (Engine.exit_code ~fail_on:Engine.Fail_warning warn);
  check_int "warnings pass at fail-on error" 0
    (Engine.exit_code ~fail_on:Engine.Fail_error warn);
  check_int "never never fails" 0 (Engine.exit_code ~fail_on:Engine.Fail_never bad);
  check_int "clean is clean" 0 (Engine.exit_code ~fail_on:Engine.Fail_warning clean)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "analysis"
    [
      ( "rules",
        [
          Alcotest.test_case "D001 fires" `Quick test_d001_fires;
          Alcotest.test_case "D002 fires" `Quick test_d002_fires;
          Alcotest.test_case "D003 fires" `Quick test_d003_fires;
          Alcotest.test_case "D004 fires" `Quick test_d004_fires;
          Alcotest.test_case "D005 fires" `Quick test_d005_fires;
          Alcotest.test_case "D005 reachability" `Quick test_d005_needs_reachability;
          Alcotest.test_case "D005 scope covers pooled stages" `Quick
            test_d005_scope_covers_pooled_stages;
          Alcotest.test_case "D006 fires" `Quick test_d006_fires;
          Alcotest.test_case "D006 scope" `Quick test_d006_scope;
        ] );
      ( "suppressions",
        [
          Alcotest.test_case "no reason rejected" `Quick
            test_suppression_without_reason_rejected;
          Alcotest.test_case "good dir clean" `Quick test_good_dir_clean;
          Alcotest.test_case "parsing" `Quick test_suppression_parsing;
          Alcotest.test_case "unparseable file" `Quick test_unparseable_is_flagged;
        ] );
      ( "report",
        [
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "self scan clean" `Quick test_self_scan_clean;
        ] );
    ]
