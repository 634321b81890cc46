(* End-to-end benchmark of the SDNProbe reproduction (README.md).

     e2e run --workload W --seed S --seconds T --trace 0|1
         One run. Each rep runs in a fresh process (this executable,
         [rep] subcommand); the last line of stdout is the result JSON.
         Details (quartiles, sample counts, digests) go to
         perfbench/out/<W>-s<S>.json, the trace to
         perfbench/out/trace-<W>-s<S>.json.
     e2e capture --seeds A-B [--workloads W,..] [--seconds T] [--trace 0|1]
                 --out FILE [--append]
         Runs for every workload x seed, collected in one file, with the
         run-to-run spread of every end-to-end metric. [--seconds]
         defaults to BENCHMARK.json's run_seconds.
     e2e compare A.json B.json [--spec BENCHMARK.json]
         Parent (A) against change (B), see Compare.
     e2e selftest --spec BENCHMARK.json --fixtures DIR
         Compare verdicts on fixture captures, then a traced 16-switch
         smoke run of every workload kind. *)

module J = Sdn_util.Json
module W = Workload

let arg name args =
  let rec go = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("e2e: " ^ s); exit 2) fmt

let required name args =
  match arg name args with Some v -> v | None -> die "missing %s" name

let int_arg name args =
  match int_of_string_opt (required name args) with
  | Some n -> n
  | None -> die "%s: not an integer" name

let float_arg name args =
  match float_of_string_opt (required name args) with
  | Some f when f >= 0. -> f
  | _ -> die "%s: not a non-negative number" name

let workload ~smoke name =
  match W.find ~smoke name with
  | Some w -> w
  | None ->
      die "unknown workload %s (one of %s)" name
        (String.concat ", " (List.map (fun (w : W.t) -> w.W.name) W.workloads))

(* ------------------------------------------------------------------ *)
(* Reps in fresh processes *)

(* A run gives up this long after it started: a rep that hangs is
   killed, and the run fails instead of never ending. *)
let run_limit_s = 160.

(* The rep's standard output, read until it closes or [deadline]. *)
let read_until ~deadline fd =
  let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let rec go () =
    let left = deadline -. Sdn_util.Mono.now_s () in
    if left <= 0. then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> None
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> Some (Buffer.contents buf)
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let spawn_rep (w : W.t) ~smoke ~seed ~rep ~seconds ~trace ~deadline =
  let exe = Sys.executable_name in
  let args =
    [ exe; "rep"; "--workload"; w.W.name; "--seed"; string_of_int seed;
      "--rep"; string_of_int rep; "--seconds"; Printf.sprintf "%.6f" seconds ]
    @ (if smoke then [ "--smoke" ] else [])
    @ match trace with Some f -> [ "--trace"; f ] | None -> []
  in
  let ic = Unix.open_process_args_in exe (Array.of_list args) in
  let out = read_until ~deadline (Unix.descr_of_in_channel ic) in
  if out = None then Unix.kill (Unix.process_in_pid ic) Sys.sigkill;
  match (out, Unix.close_process_in ic) with
  | None, _ -> die "rep %s/%d ran past the run's %.0f s limit" w.W.name rep run_limit_s
  | Some out, Unix.WEXITED 0 -> (
      let last =
        List.fold_left (fun acc l -> if String.trim l = "" then acc else l) ""
          (String.split_on_char '\n' out)
      in
      match J.of_string last with
      | Ok j -> W.rep_of_json j
      | Error e -> die "rep %s/%d: bad output: %s" w.W.name rep e)
  | Some _, _ -> die "rep %s/%d failed" w.W.name rep

(* ------------------------------------------------------------------ *)
(* One run *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  measured : string list;  (** per-layer names a rep reported itself *)
  detail : (string * J.t) list;
}

(* Every declared metric, in declared order. A derived layer ratio over
   an empty layer (0/0) reads 0, like the layer itself. *)
let with_units table values =
  List.map
    (fun (name, unit) ->
      let v = Option.value ~default:0. (List.assoc_opt name values) in
      (name, (if Float.is_finite v then v else 0.), unit))
    table

let run_once (w : W.t) ~smoke ~seed ~seconds ~traced ~trace_path =
  let spawn_rep = spawn_rep ~deadline:(Sdn_util.Mono.now_s () +. run_limit_s) in
  let reps =
    if not traced then
      List.init w.W.reps (fun rep ->
          spawn_rep w ~smoke ~seed ~rep ~seconds:(seconds /. float_of_int w.W.reps) ~trace:None)
    else
      (* The same inputs untraced, then traced: the difference is the
         tracing overhead. *)
      [
        spawn_rep w ~smoke ~seed ~rep:0 ~seconds:(seconds /. 2.) ~trace:None;
        spawn_rep w ~smoke ~seed ~rep:0 ~seconds:(seconds /. 2.) ~trace:(Some trace_path);
      ]
  in
  let samples = List.concat_map (fun (r : W.rep) -> r.W.samples_ms) reps in
  let med f = Stats.median (List.map f reps) in
  let digests =
    List.sort_uniq String.compare (List.map (fun (r : W.rep) -> r.W.plan_digest) reps)
  in
  let attempted = List.fold_left (fun acc (r : W.rep) -> acc + r.W.attempted) 0 reps in
  (* Reps of one run plan the same network: differing plans are a
     determinism failure of the whole run. *)
  let failed =
    if List.length digests > 1 then attempted
    else List.fold_left (fun acc (r : W.rep) -> acc + r.W.failed) 0 reps
  in
  let metrics, measured =
    if not traced then
      ( with_units Spec.end_to_end
          [
            ("setup_s", med (fun r -> r.W.setup_s));
            ("op_p50_ms", Stats.median samples);
            ("probes", med (fun r -> float_of_int r.W.probes));
            ("live_heap_mb", med (fun r -> r.W.live_heap_mb));
          ],
        [] )
    else
      let base = List.nth reps 0 and tr = List.nth reps 1 in
      let overhead =
        Stats.median tr.W.samples_ms /. Stats.median base.W.samples_ms -. 1.
      in
      ( with_units Spec.per_layer (("trace.overhead_frac", overhead) :: tr.W.layers),
        List.map fst tr.W.layers )
  in
  let q1, q3 = Stats.quartiles samples in
  let n = List.length samples in
  let detail =
    [
      ("op_n", J.Int n);
      ("op_quartiles_ms", J.List [ J.Float q1; J.Float q3 ]);
      ( "op_tail",
        match Stats.supported_percentile n with
        | Some p -> J.Obj [ ("pct", J.Float p); ("ms", J.Float (Stats.percentile p samples)) ]
        | None -> J.Null );
      ("setup_runs_s", J.List (List.map (fun (r : W.rep) -> J.Float r.W.setup_s) reps));
      ("plan_digest", J.Str (String.concat "," digests));
      ( "outcome_digest",
        J.Str (W.fingerprint (List.map (fun (r : W.rep) -> r.W.outcome_digest) reps)) );
      ("host_cores", J.Int (Domain.recommended_domain_count ()));
    ]
  in
  { correct = failed = 0; attempted; failed; metrics; measured; detail }

let metrics_json r =
  J.Obj
    (List.map
       (fun (name, value, unit) ->
         (name, J.Obj [ ("value", J.Float value); ("unit", J.Str unit) ]))
       r.metrics)

let result_json r =
  J.Obj
    [
      ("correct", J.Bool r.correct);
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ("metrics", metrics_json r);
    ]

let record_json (w : W.t) ~seed ~traced r =
  J.Obj
    ([
       ("workload", J.Str w.W.name);
       ("seed", J.Int seed);
       ("trace", J.Bool traced);
       ("correct", J.Bool r.correct);
       ("attempted", J.Int r.attempted);
       ("failed", J.Int r.failed);
       ("metrics", metrics_json r);
     ]
    @ r.detail)

let print_table (w : W.t) r =
  Printf.printf "%s: %d attempted, %d failed\n" w.W.name r.attempted r.failed;
  List.iter
    (fun (name, value, unit) -> Printf.printf "  %-36s %14.6g %s\n" name value unit)
    r.metrics;
  List.iter
    (fun (k, v) -> Printf.printf "  %-36s %s\n" k (J.to_string v))
    r.detail

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let out_dir = Filename.concat "perfbench" "out"

let run_cmd args =
  let w = workload ~smoke:false (required "--workload" args) in
  let seed = int_arg "--seed" args in
  let seconds = float_arg "--seconds" args in
  let traced =
    match required "--trace" args with
    | "0" -> false
    | "1" -> true
    | v -> die "--trace %s: expected 0 or 1" v
  in
  mkdir_p out_dir;
  let stem = Printf.sprintf "%s-s%d" w.W.name seed in
  let trace_path = Filename.concat out_dir ("trace-" ^ stem ^ ".json") in
  let r = run_once w ~smoke:false ~seed ~seconds ~traced ~trace_path in
  print_table w r;
  Out_channel.with_open_text
    (Filename.concat out_dir (stem ^ (if traced then "-trace" else "") ^ ".json"))
    (fun oc -> output_string oc (J.to_string (record_json w ~seed ~traced r) ^ "\n"));
  print_endline (J.to_string (result_json r))

(* ------------------------------------------------------------------ *)
(* Capture: many runs in one file, and their spread *)

let parse_seeds s =
  let bad () = die "--seeds %s: expected N or A-B" s in
  match List.map int_of_string_opt (String.split_on_char '-' s) with
  | [ Some a ] -> [ a ]
  | [ Some a; Some b ] when a <= b -> List.init (b - a + 1) (fun i -> a + i)
  | _ -> bad ()

let print_spreads ~spec runs =
  let bounds = Spec.read_bounds spec in
  let workloads =
    List.sort_uniq String.compare (List.map (fun (r : Compare.run) -> r.Compare.workload) runs)
  in
  List.iter
    (fun wl ->
      List.iter
        (fun (metric, (b : Spec.bound)) ->
          let vals =
            List.filter_map
              (fun (r : Compare.run) ->
                if r.Compare.workload = wl then List.assoc_opt metric r.Compare.metrics else None)
              runs
          in
          if vals <> [] then
            let q1, q3 = Stats.quartiles vals in
            Printf.printf "%-10s %-14s n=%d median %.6g [%.6g, %.6g] spread %.4f bound %.2f%s\n"
              wl
              metric (List.length vals) (Stats.median vals) q1 q3 (Stats.spread vals) b.Spec.bound
              (if Stats.spread vals < b.Spec.bound /. 3. then ""
               else "  (above a third of the bound)"))
        bounds)
    workloads

let capture_cmd args =
  let seeds = parse_seeds (required "--seeds" args) in
  let traced = arg "--trace" args = Some "1" in
  let spec = Option.value ~default:"BENCHMARK.json" (arg "--spec" args) in
  let seconds =
    match (arg "--seconds" args, Spec.run_seconds spec) with
    | Some _, _ -> float_arg "--seconds" args
    | None, Some s -> s
    | None, None -> die "no --seconds and no run_seconds in %s" spec
  in
  let out = required "--out" args in
  let ws =
    match arg "--workloads" args with
    | Some l -> List.map (workload ~smoke:false) (String.split_on_char ',' l)
    | None -> W.workloads
  in
  let previous =
    if List.mem "--append" args && Sys.file_exists out then
      match J.of_string (In_channel.with_open_text out In_channel.input_all) with
      | Ok j -> Option.value ~default:[] (J.obj_list "runs" j)
      | Error e -> die "%s: %s" out e
    else []
  in
  mkdir_p out_dir;
  let records =
    List.concat_map
      (fun (w : W.t) ->
        List.map
          (fun seed ->
            let trace_path =
              Filename.concat out_dir (Printf.sprintf "trace-%s-s%d.json" w.W.name seed)
            in
            let r = run_once w ~smoke:false ~seed ~seconds ~traced ~trace_path in
            Printf.printf "%s seed %d: %s\n%!" w.W.name seed (J.to_string (result_json r));
            record_json w ~seed ~traced r)
          seeds)
      ws
  in
  let runs = previous @ records in
  Out_channel.with_open_text out (fun oc ->
      output_string oc
        (J.to_string
           (J.Obj
              [
                ("kind", J.Str "perfbench-capture");
                ("seconds", J.Float seconds);
                ("host_cores", J.Int (Domain.recommended_domain_count ()));
                ("runs", J.List runs);
              ]));
      output_char oc '\n');
  if not traced then print_spreads ~spec (List.map Compare.run_of_json runs)

(* ------------------------------------------------------------------ *)
(* Self-test *)

let selftest args =
  let spec = required "--spec" args and fixtures = required "--fixtures" args in
  let t0 = Sdn_util.Mono.now_s () in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (* Compare verdicts on the fixture captures. *)
  let fixture f = Filename.concat fixtures f in
  let rows, fail_rose, changes =
    Compare.compare ~bounds:(Spec.read_bounds spec)
      (Compare.load (fixture "base.json"))
      (Compare.load (fixture "cand.json"))
  in
  let expected = In_channel.with_open_text (fixture "expected.json") In_channel.input_all in
  (match J.of_string expected with
  | Error e -> fail "expected.json: %s" e
  | Ok exp ->
      (match J.member "verdicts" exp with
      | Some (J.Obj kvs) ->
          List.iter
            (fun (key, v) ->
              let got =
                List.find_opt
                  (fun (r : Compare.row) -> r.Compare.workload ^ "/" ^ r.Compare.metric = key)
                  rows
                |> Option.map (fun (r : Compare.row) -> Compare.verdict_name r.Compare.verdict)
              in
              if got <> J.to_str v then
                fail "compare %s: expected %s, got %s" key
                  (Option.value ~default:"?" (J.to_str v))
                  (Option.value ~default:"no row" got))
            kvs
      | _ -> fail "expected.json: no verdicts");
      let want =
        List.filter_map J.to_str (Option.value ~default:[] (J.obj_list "fail_share_rose" exp))
      in
      if want <> fail_rose then
        fail "compare: fail share rose on [%s]" (String.concat "," fail_rose);
      if Some (List.length changes) <> J.obj_int "behaviour_changes" exp then
        fail "compare: %d behaviour changes" (List.length changes));
  (* The declared metrics are the printed ones. *)
  let check_declared section table =
    if Spec.declared spec section <> table then
      fail "%s of %s differs from the metrics e2e prints" section spec
  in
  check_declared "end_to_end" Spec.end_to_end;
  check_declared "per_layer" Spec.per_layer;
  (* Every workload kind end to end at 16 switches, untraced and
     traced; every metric printed with its declared unit, every layer
     metric measured by some workload. *)
  let trace_path = Filename.temp_file "perfbench" ".json" in
  let measured =
    List.concat_map
      (fun (w : W.t) ->
        let w = W.smoke w in
        let plain = run_once w ~smoke:true ~seed:0 ~seconds:0. ~traced:false ~trace_path in
        let traced = run_once w ~smoke:true ~seed:0 ~seconds:0. ~traced:true ~trace_path in
        let names r = List.map (fun (n, _, u) -> (n, u)) r.metrics in
        if names plain <> Spec.end_to_end then fail "%s: end-to-end metrics differ" w.W.name;
        if names traced <> Spec.per_layer then fail "%s: per-layer metrics differ" w.W.name;
        (match J.of_string (In_channel.with_open_text trace_path In_channel.input_all) with
        | Ok j when J.obj_list "traceEvents" j <> Some [] -> ()
        | _ -> fail "%s: empty or unreadable trace" w.W.name);
        Printf.printf "smoke %-8s %d+%d attempted, %d+%d failed\n%!" w.W.name plain.attempted
          traced.attempted plain.failed traced.failed;
        "trace.overhead_frac" :: traced.measured)
      W.workloads
  in
  Sys.remove trace_path;
  List.iter
    (fun (name, _) -> if not (List.mem name measured) then fail "no workload measures %s" name)
    Spec.per_layer;
  match !problems with
  | [] -> Printf.printf "perfbench selftest ok (%.1fs)\n" (Sdn_util.Mono.now_s () -. t0)
  | ps ->
      List.iter (fun p -> prerr_endline ("selftest: " ^ p)) (List.rev ps);
      exit 1

(* ------------------------------------------------------------------ *)

let rep_cmd args =
  let smoke = List.mem "--smoke" args in
  let w = workload ~smoke (required "--workload" args) in
  let r =
    W.run_rep w ~seed:(int_arg "--seed" args) ~rep:(int_arg "--rep" args)
      ~seconds:(float_arg "--seconds" args) ~trace:(arg "--trace" args)
  in
  print_endline (J.to_string (W.rep_to_json r))

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run_cmd args
  | "rep" :: args -> rep_cmd args
  | "capture" :: args -> capture_cmd args
  | "compare" :: a :: b :: args ->
      exit (Compare.main ~spec:(Option.value ~default:"BENCHMARK.json" (arg "--spec" args)) a b)
  | "selftest" :: args -> selftest args
  | _ ->
      prerr_endline
        "usage: e2e run --workload W --seed S --seconds T --trace 0|1\n\
        \       e2e capture --seeds A-B [--workloads W,..] [--seconds T] [--trace 0|1]\n\
        \                   --out FILE [--append]\n\
        \       e2e compare A.json B.json [--spec BENCHMARK.json]\n\
        \       e2e selftest --spec BENCHMARK.json --fixtures DIR";
      exit 2
