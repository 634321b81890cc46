module D = Diagnostic

type report = {
  diagnostics : D.t list;
  timings : (string * float) list;
  skipped : string list;
}

let resolve_passes only =
  match only with
  | None -> Ok Passes.all
  | Some keys ->
      let rec resolve acc = function
        | [] -> Ok (List.rev acc)
        | key :: rest -> (
            match Passes.find key with
            | Some p -> resolve (if List.memq p acc then acc else p :: acc) rest
            | None -> Error key)
      in
      resolve [] keys

exception Unknown_pass of string

let run ?only ?probes net =
  let passes =
    match resolve_passes only with
    | Ok ps -> ps
    | Error key -> raise (Unknown_pass key)
  in
  let ctx = Passes.make_ctx ?probes net in
  let timer = Metrics.Timing.create () in
  let skipped = ref [] in
  let diagnostics =
    List.concat_map
      (fun (p : Passes.t) ->
        if p.needs_probes && Passes.probes ctx = None then begin
          skipped := p.id :: !skipped;
          []
        end
        else Metrics.Timing.time timer p.id (fun () -> p.run ctx))
      passes
  in
  { diagnostics; timings = Metrics.Timing.timings timer; skipped = List.rev !skipped }

let count report severity =
  List.length (List.filter (fun (d : D.t) -> d.severity = severity) report.diagnostics)

let sorted report = List.stable_sort D.compare report.diagnostics

let worst report =
  List.fold_left
    (fun acc (d : D.t) ->
      match acc with
      | Some s when D.severity_rank s <= D.severity_rank d.severity -> acc
      | _ -> Some d.severity)
    None report.diagnostics

type fail_on = Fail_never | Fail_error | Fail_warning

let exit_code ~fail_on report =
  match (fail_on, worst report) with
  | Fail_never, _ | _, None -> 0
  | (Fail_error | Fail_warning), Some D.Error -> 2
  | Fail_warning, Some D.Warning -> 1
  | _ -> 0

(* ------------------------------------------------------------------ *)
(* Rendering *)

let findings_by_pass report =
  List.map
    (fun (id, seconds) ->
      let n =
        List.length (List.filter (fun (d : D.t) -> d.check = id) report.diagnostics)
      in
      (id, n, seconds))
    report.timings

let pp_text fmt report =
  List.iter (fun d -> Format.fprintf fmt "%a@." D.pp d) (sorted report);
  let table = Metrics.Table.create [ "pass"; "findings"; "time" ] in
  List.iter
    (fun (id, n, seconds) ->
      Metrics.Table.add_row table
        [
          id;
          Metrics.Table.cell_i n;
          (if seconds >= 1. then Printf.sprintf "%.2f s" seconds
           else if seconds >= 1e-3 then Printf.sprintf "%.2f ms" (seconds *. 1e3)
           else Printf.sprintf "%.0f us" (seconds *. 1e6));
        ])
    (findings_by_pass report);
  Format.fprintf fmt "%s@." (Metrics.Table.render table);
  List.iter
    (fun id -> Format.fprintf fmt "pass %s skipped (no probe plan)@." id)
    report.skipped;
  Format.fprintf fmt "%d error(s), %d warning(s), %d info(s)@."
    (count report D.Error) (count report D.Warning) (count report D.Info)

let to_json report =
  let module J = Sdn_util.Json in
  J.to_string
    (J.Obj
       [
         ("diagnostics", J.List (List.map D.to_json (sorted report)));
         ( "summary",
           J.Obj
             [
               ("error", J.Int (count report D.Error));
               ("warning", J.Int (count report D.Warning));
               ("info", J.Int (count report D.Info));
             ] );
         ( "timings",
           J.Obj (List.map (fun (id, seconds) -> (id, J.Float seconds)) report.timings) );
         ("skipped", J.List (List.map (fun id -> J.Str id) report.skipped));
       ])
