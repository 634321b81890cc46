(* Compare two captures (A = parent, B = change) under the noise
   protocol of README.md: each workload x metric on its own row, with
   medians and quartiles; a metric whose run-to-run spread exceeds its
   bound is unresolved unless every B run beats every A run; a gain
   needs B to win at least nine tenths of the pairs (run i of A against
   run i of B, run in alternating order) and a median difference larger
   than A's interquartile range. Failure shares are compared on their
   own, and plan or outcome digests that differ on one seed are shown
   as behaviour changes. *)

module J = Sdn_util.Json

type run = {
  workload : string;
  seed : int;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  plan_digest : string;
  outcome_digest : string;
}

let run_of_json j =
  let str k = Option.value ~default:"" (J.obj_str k j) in
  {
    workload = str "workload";
    seed = Option.value ~default:0 (J.obj_int "seed" j);
    attempted = Option.value ~default:0 (J.obj_int "attempted" j);
    failed = Option.value ~default:0 (J.obj_int "failed" j);
    metrics =
      (match J.member "metrics" j with
      | Some (J.Obj kvs) ->
          List.filter_map
            (fun (k, v) ->
              Option.map (fun f -> (k, f)) (Option.bind (J.member "value" v) J.to_float))
            kvs
      | _ -> []);
    plan_digest = str "plan_digest";
    outcome_digest = str "outcome_digest";
  }

let load path =
  match J.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok j -> List.map run_of_json (Option.value ~default:[] (J.obj_list "runs" j))

type verdict = Improved | Within | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Within -> "within bound"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* [a] and [b] are one metric's values, in run order. *)
let verdict (m : Spec.bound) a b =
  let beats x y = if m.Spec.better_lower then x < y else x > y in
  let ma = Stats.median a and mb = Stats.median b in
  let worse = (if m.Spec.better_lower then mb -. ma else ma -. mb) /. Float.abs ma in
  let b_beats_all = List.for_all (fun y -> List.for_all (fun x -> beats y x) a) b in
  if (Stats.spread a > m.Spec.bound || Stats.spread b > m.Spec.bound) && not b_beats_all
  then Unresolved
  else if worse > m.Spec.bound then Regressed
  else
    let rec pairs xs ys =
      match (xs, ys) with x :: xs, y :: ys -> (x, y) :: pairs xs ys | _ -> []
    in
    let ps = pairs a b in
    let wins = List.length (List.filter (fun (x, y) -> beats y x) ps) in
    let q1, q3 = Stats.quartiles a in
    if ps <> [] && 10 * wins >= 9 * List.length ps && beats mb ma
       && Float.abs (mb -. ma) > q3 -. q1
    then Improved
    else Within

type row = { workload : string; metric : string; verdict : verdict; line : string }

let fail_share runs =
  let att = List.fold_left (fun acc (r : run) -> acc + r.attempted) 0 runs in
  let fl = List.fold_left (fun acc (r : run) -> acc + r.failed) 0 runs in
  if att = 0 then 0. else float_of_int fl /. float_of_int att

(* Rows, workloads whose failure share rose, and behaviour changes. *)
let compare ~bounds a b =
  let workloads =
    List.sort_uniq String.compare (List.map (fun (r : run) -> r.workload) a)
    |> List.filter (fun w -> List.exists (fun (r : run) -> r.workload = w) b)
  in
  let of_w w runs = List.filter (fun (r : run) -> r.workload = w) runs in
  let rows =
    List.concat_map
      (fun w ->
        List.filter_map
          (fun (metric, (m : Spec.bound)) ->
            let vals runs =
              List.filter_map (fun (r : run) -> List.assoc_opt metric r.metrics) (of_w w runs)
            in
            match (vals a, vals b) with
            | [], _ | _, [] -> None
            | va, vb ->
                let v = verdict m va vb in
                let q v =
                  let q1, q3 = Stats.quartiles v in
                  Printf.sprintf "%.4g [%.4g, %.4g]" (Stats.median v) q1 q3
                in
                Some
                  {
                    workload = w;
                    metric;
                    verdict = v;
                    line =
                      Printf.sprintf "%-10s %-14s A %s  B %s  spread %.3f/%.3f  bound %.2f  %s"
                        w metric
                        (q va) (q vb) (Stats.spread va) (Stats.spread vb) m.Spec.bound
                        (verdict_name v);
                  })
          bounds)
      workloads
  in
  let fail_rose =
    List.filter (fun w -> fail_share (of_w w b) > fail_share (of_w w a)) workloads
  in
  let changes =
    List.concat_map
      (fun (ra : run) ->
        List.filter_map
          (fun (rb : run) ->
            if rb.workload <> ra.workload || rb.seed <> ra.seed then None
            else if rb.plan_digest <> ra.plan_digest then
              Some (Printf.sprintf "%s seed %d: plan changed" ra.workload ra.seed)
            else if rb.outcome_digest <> ra.outcome_digest then
              Some (Printf.sprintf "%s seed %d: outcomes changed" ra.workload ra.seed)
            else None)
          b)
      a
    |> List.sort_uniq String.compare
  in
  (rows, fail_rose, changes)

let print ~a ~b (rows, fail_rose, changes) =
  List.iter (fun r -> print_endline r.line) rows;
  let workloads = List.sort_uniq String.compare (List.map (fun r -> r.workload) rows) in
  List.iter
    (fun w ->
      let of_w runs = List.filter (fun (r : run) -> r.workload = w) runs in
      Printf.printf "%-10s fail share     A %.4f  B %.4f  %s\n" w (fail_share (of_w a))
        (fail_share (of_w b))
        (if List.mem w fail_rose then "ROSE" else "not worse"))
    workloads;
  List.iter (fun c -> Printf.printf "behaviour change: %s\n" c) changes

let main ~spec path_a path_b =
  let bounds = Spec.read_bounds spec in
  let a = load path_a and b = load path_b in
  let ((rows, fail_rose, _) as result) = compare ~bounds a b in
  print ~a ~b result;
  if fail_rose <> [] || List.exists (fun r -> r.verdict = Regressed) rows then 1 else 0
