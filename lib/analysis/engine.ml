(* sdncheck driver: collect sources, run every rule, apply in-source
   suppressions, and render the report (text or the lint-shaped JSON).
   The scan itself is deterministic — files are walked in sorted
   order, findings are sorted by (file, line, col, rule) — so two runs
   over the same tree produce byte-identical output. *)

module J = Sdn_util.Json

(* Directories whose .ml files the repo contract covers. *)
let scan_roots = [ "lib"; "bin"; "test"; "bench" ]

(* Never scanned: build artifacts, dot-dirs, and the deliberately-bad
   rule fixtures under test/analysis_fixtures. *)
let skip_dir name =
  name = "_build" || name = "analysis_fixtures"
  || (String.length name > 0 && name.[0] = '.')

(* The files that hand closures to a pool — per-region sharded builds
   and per-component header assignment: every module their closures can
   reach is in scope for D005 (see Modgraph). *)
let pooled_seeds = [ "lib/shard/splan.ml"; "lib/mlpc/headers.ml" ]

(* ------------------------------------------------------------------ *)
(* Root autodetect: walk up from [start] until the tree looks like
   this repo (tests run from _build/default/test, the CLI from
   anywhere inside a checkout). *)

let looks_like_root dir =
  Sys.file_exists (Filename.concat dir "lib/util/misc.ml")

let find_root ?(start = Sys.getcwd ()) () =
  let rec up dir n =
    if n > 12 then None
    else if looks_like_root dir then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent (n + 1)
  in
  up start 0

(* ------------------------------------------------------------------ *)
(* File collection, sorted for determinism. *)

let collect_files root =
  let acc = ref [] in
  let rec walk rel_dir =
    let abs = if rel_dir = "" then root else Filename.concat root rel_dir in
    match Sys.readdir abs with
    | exception Sys_error _ -> ()
    | entries ->
        Array.sort String.compare entries;
        Array.iter
          (fun name ->
            let rel = if rel_dir = "" then name else rel_dir ^ "/" ^ name in
            let abs_entry = Filename.concat root rel in
            if Sys.is_directory abs_entry then begin
              if not (skip_dir name) then walk rel
            end
            else if Filename.check_suffix name ".ml" then acc := rel :: !acc)
          entries
  in
  List.iter (fun r -> if Sys.file_exists (Filename.concat root r) then walk r) scan_roots;
  List.sort String.compare !acc

(* ------------------------------------------------------------------ *)

type report = {
  root : string;
  files_scanned : int;
  diagnostics : Finding.t list; (* unsuppressed, sorted *)
  suppressed : int; (* findings silenced by a valid suppression *)
  suppression_count : int; (* valid suppression comments seen *)
}

let suppressed_at src (f : Finding.t) =
  List.exists
    (fun s ->
      List.mem f.Finding.check s.Source.s_rules
      && f.Finding.line >= s.Source.s_first
      && f.Finding.line <= s.Source.s_last)
    src.Source.suppressions

(* Run [rules] over already-loaded sources (the test fixtures go
   through this entry point with synthetic Source.t values). *)
let run_sources ~rules ~pooled sources =
  let ctx = { Rules.pooled } in
  let kept = ref [] in
  let suppressed = ref 0 in
  let suppression_count = ref 0 in
  List.iter
    (fun src ->
      suppression_count := !suppression_count + List.length src.Source.suppressions;
      (* S001: malformed sdncheck comments and unparseable files are
         themselves errors — a suppression that silently failed to
         parse must not silently allow anything. Not suppressible. *)
      List.iter
        (fun m ->
          kept :=
            Finding.make ~check:"S001" ~severity:Finding.Error
              ~file:src.Source.rel ~line:m.Source.m_line ~col:0
              ("malformed sdncheck suppression: " ^ m.Source.m_text)
            :: !kept)
        src.Source.malformed;
      (match src.Source.parse_error with
      | Some (line, msg) ->
          kept :=
            Finding.make ~check:"S001" ~severity:Finding.Error
              ~file:src.Source.rel ~line ~col:0 msg
            :: !kept
      | None -> ());
      List.iter
        (fun (r : Rules.rule) ->
          List.iter
            (fun f ->
              if suppressed_at src f then incr suppressed else kept := f :: !kept)
            (r.Rules.check ctx src))
        rules)
    sources;
  {
    root = "";
    files_scanned = List.length sources;
    diagnostics = List.sort Finding.compare !kept;
    suppressed = !suppressed;
    suppression_count = !suppression_count;
  }

let run ?(rules = Rules.all) ~root () =
  let rels = collect_files root in
  let sources = List.map (fun rel -> Source.load ~root ~rel) rels in
  let graph =
    Modgraph.build ~root
      ~files:(List.map (fun s -> (s.Source.rel, s.Source.stripped)) sources)
  in
  let pooled = Modgraph.reachable graph ~seeds:pooled_seeds in
  { (run_sources ~rules ~pooled sources) with root }

(* ------------------------------------------------------------------ *)
(* Exit codes mirror lib/lint: 0 clean, 1 warnings, 2 errors. *)

type fail_on = Fail_never | Fail_error | Fail_warning

let worst report =
  List.fold_left
    (fun acc (f : Finding.t) ->
      match acc with
      | Some s when Finding.severity_rank s <= Finding.severity_rank f.Finding.severity
        ->
          acc
      | _ -> Some f.Finding.severity)
    None report.diagnostics

let exit_code ~fail_on report =
  match (fail_on, worst report) with
  | Fail_never, _ | _, None -> 0
  | (Fail_error | Fail_warning), Some Finding.Error -> 2
  | Fail_warning, Some Finding.Warning -> 1
  | Fail_error, Some Finding.Warning -> 0
  | _, Some Finding.Info -> 0

(* ------------------------------------------------------------------ *)
(* Rendering. *)

let pp_text fmt report =
  List.iter
    (fun f -> Format.fprintf fmt "%a@." Finding.pp f)
    report.diagnostics;
  let errors =
    List.length
      (List.filter (fun f -> f.Finding.severity = Finding.Error) report.diagnostics)
  in
  let warnings =
    List.length
      (List.filter (fun f -> f.Finding.severity = Finding.Warning) report.diagnostics)
  in
  Format.fprintf fmt "sdncheck: %d file%s scanned, %d error%s, %d warning%s, %d suppressed@."
    report.files_scanned
    (if report.files_scanned = 1 then "" else "s")
    errors
    (if errors = 1 then "" else "s")
    warnings
    (if warnings = 1 then "" else "s")
    report.suppressed

let schema_version = 1

let to_json report =
  let count sev =
    List.length
      (List.filter (fun f -> f.Finding.severity = sev) report.diagnostics)
  in
  J.Obj
    [
      ("schema_version", J.Int schema_version);
      ("tool", J.Str "sdncheck");
      ( "summary",
        J.Obj
          [
            ("errors", J.Int (count Finding.Error));
            ("warnings", J.Int (count Finding.Warning));
            ("info", J.Int (count Finding.Info));
          ] );
      ("files_scanned", J.Int report.files_scanned);
      ("suppressed", J.Int report.suppressed);
      ("diagnostics", J.List (List.map Finding.to_json report.diagnostics));
    ]

let of_json j =
  let ( let* ) = Result.bind in
  let* fields =
    match j with J.Obj f -> Ok f | _ -> Error "report is not an object"
  in
  let int k =
    match List.assoc_opt k fields with
    | Some (J.Int n) -> Ok n
    | _ -> Error (Printf.sprintf "missing int field %S" k)
  in
  let* v = int "schema_version" in
  let* () =
    if v = schema_version then Ok ()
    else Error (Printf.sprintf "unsupported schema_version %d" v)
  in
  let* files_scanned = int "files_scanned" in
  let* suppressed = int "suppressed" in
  let* diags =
    match List.assoc_opt "diagnostics" fields with
    | Some (J.List l) ->
        List.fold_left
          (fun acc d ->
            let* acc = acc in
            let* f = Finding.of_json d in
            Ok (f :: acc))
          (Ok []) l
        |> Result.map List.rev
    | _ -> Error "missing diagnostics array"
  in
  Ok
    {
      root = "";
      files_scanned;
      diagnostics = diags;
      suppressed;
      suppression_count = 0;
    }
