(* Perf-regression harness ("bench regress").

   Times the probe-generation hot paths — cube kernels (Bechamel),
   rule-graph construction and space queries, the MLPC legal-matching
   solver and Yen's K-shortest — on the Rocketfuel-like workloads the
   lint and loss-sweep benches already use, and emits a versioned JSON
   file (BENCH_<n>.json, schema_version below) built with
   {!Sdn_util.Json}.

     dune exec bench/main.exe -- regress                      # both scales
     dune exec bench/main.exe -- regress --switches 16        # CI smoke
     dune exec bench/main.exe -- regress --baseline old.json  # before/after report

   With [--baseline], each entry gains [before_ns]/[speedup] fields taken
   from the baseline file, producing the report format committed as
   BENCH_3.json; scripts/compare_bench.py gates CI on it. *)

module Json = Sdn_util.Json
module RG = Rulegraph.Rule_graph

let schema_version = 1

(* ------------------------------------------------------------------ *)
(* Measurement. End-to-end entries use best-of-[runs] wall clock: the
   minimum is the standard robust estimator for a deterministic
   computation under scheduler noise. *)

let time_ns ?(runs = 5) f =
  ignore (f ());
  (* warmup: faults, lazy forcing, first-touch allocation *)
  let best = ref infinity in
  for _ = 1 to runs do
    let t0 = Sdn_util.Mono.now_s () in
    ignore (f ());
    let dt = Sdn_util.Mono.now_s () -. t0 in
    if dt < !best then best := dt
  done;
  !best *. 1e9

(* Bechamel OLS estimate (ns/run) for the cube micro-kernels. *)
let bechamel_ns tests =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      List.map
        (fun (name, ols_result) ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (e :: _) -> e
            | _ -> nan
          in
          (name, ns))
        (Sdn_util.Misc.hashtbl_bindings results))
    tests

(* ------------------------------------------------------------------ *)
(* Workloads: the same deterministic Rocketfuel-like policies as the
   lint bench (seed fixed per scale so before/after runs see identical
   inputs). *)

type workload = {
  scale : int;
  net : Openflow.Network.t;
  topo : Openflow.Topology.t;
  rg : RG.t;
  cover : Mlpc.Cover.t;
  cover_paths : int list list; (* expanded rule sequences of the cover *)
}

let make_workload scale =
  let topo, net = Topogen.Preset.scale ~n_switches:scale in
  let rg = RG.build net in
  let cover = Mlpc.Legal_matching.solve rg in
  let cover_paths =
    List.map (fun (p : Mlpc.Cover.path) -> p.Mlpc.Cover.rules) cover.Mlpc.Cover.paths
  in
  { scale; net; topo; rg; cover; cover_paths }

let invalidate rg = RG.invalidate_caches rg

(* Space queries: what Cover.all_legal, the L009 audit and report
   post-processing do — walk every cover path's start and forward space,
   several times over. Caches are cleared at the start of the measured
   run, so only intra-run reuse (the realistic kind) is credited. *)
let space_queries w () =
  invalidate w.rg;
  for _ = 1 to 3 do
    List.iter
      (fun path ->
        ignore (RG.start_space w.rg path);
        ignore (RG.forward_space w.rg path))
      w.cover_paths
  done

let solve w () =
  invalidate w.rg;
  ignore (Mlpc.Legal_matching.solve w.rg)

let randomized w () =
  invalidate w.rg;
  ignore (Mlpc.Legal_matching.randomized (Sdn_util.Prng.create 3) w.rg)

(* Unique-header assignment: one SAT query per cover path. Proof
   logging is off on this default path — the entry exists to prove the
   certification hooks (PR 4) stay free when unused. *)
let headers_assign w () = ignore (Mlpc.Headers.assign Mlpc.Headers.Sat_unique w.cover)

let yen_k8 w =
  let g = Openflow.Topology.to_digraph w.topo in
  let n = Sdngraph.Digraph.n_vertices g in
  let rng = Sdn_util.Prng.create 7 in
  let pairs =
    List.init 12 (fun _ ->
        let s = Sdn_util.Prng.int rng n in
        let d = Sdn_util.Prng.int rng n in
        (s, (if d = s then (d + 1) mod n else d)))
  in
  fun () ->
    List.iter (fun (src, dst) -> ignore (Sdngraph.Yen.k_shortest g ~src ~dst ~k:8)) pairs

(* The parallel (/par4) variant of header assignment, through the same
   public entry point the pipeline uses with [Config.pool]. *)
let headers_assign_par w pool () =
  ignore (Mlpc.Headers.assign ~pool Mlpc.Headers.Sat_unique w.cover)

(* Ten probing rounds of the full static plan on a clean emulator —
   the detection loop's steady-state cost. *)
let runner_rounds w =
  let config = Sdnprobe.Config.with_max_rounds 10 Sdnprobe.Config.default in
  let plan = Pipeline.plan (Pipeline.create w.net) in
  fun () ->
    let emu = Dataplane.Emulator.create w.net in
    ignore (Sdnprobe.Runner.execute ~config ~emulator:emu plan)

(* Full static plan from scratch, everything Pipeline.create does:
   rule graph + MLPC cover + unique headers + probes. This is the cost
   `plan.edit` amortizes away. *)
let plan_full w () = ignore (Pipeline.create w.net)

(* Amortized per-edit incremental re-planning: batches of
   [plan_edit_pairs] remove-then-reinstall pairs pushed through one
   long-lived session with [Pipeline.apply] (steady state: the session
   and its caches persist across runs). Reported ns is per edit op
   (two ops per pair) — the number the RATIOS table in
   scripts/compare_bench.py compares against plan.full. *)
let plan_edit_pairs = 4

let plan_edit w =
  let module N = Openflow.Network in
  let module FE = Openflow.Flow_entry in
  let session = ref (Pipeline.create w.net) in
  let counter = ref 0 in
  fun () ->
    let entries = Array.of_list (N.all_entries w.net) in
    let n = Array.length entries in
    let victims = ref [] in
    while List.length !victims < plan_edit_pairs do
      incr counter;
      let v = entries.(!counter * 97 mod n) in
      if not (List.memq v !victims) then victims := v :: !victims
    done;
    let batch =
      List.concat_map
        (fun (v : FE.t) ->
          [
            Sdn_util.Edits.Remove v.FE.id;
            Sdn_util.Edits.Add
              {
                Sdn_util.Edits.switch = v.FE.switch;
                table = v.FE.table;
                priority = v.FE.priority;
                match_ = Hspace.Cube.to_string v.FE.match_;
                set_field = Some (Hspace.Cube.to_string v.FE.set_field);
                action =
                  (match v.FE.action with
                  | FE.Drop -> Sdn_util.Edits.Drop
                  | FE.Output p -> Sdn_util.Edits.Output p
                  | FE.Goto_table t -> Sdn_util.Edits.Goto_table t);
              };
          ])
        !victims
    in
    let s, _patch = Pipeline.apply !session batch in
    session := s

(* Full symbolic invariant verification from scratch: plumbing build +
   closure for every source (loop-free forces all of them) + leak scan.
   This is the cost `verify.edit` amortizes away. *)
let verify_check w () =
  let engine = Verify.Engine.create w.net in
  ignore (Verify.Engine.check engine Verify.Engine.default_invariants)

(* Amortized per-edit incremental re-verification: [edits_per_run]
   remove-then-reinstall cycles, each followed by a full re-check
   through Engine.update's patch path. Reported ns is per edit (two
   edits per cycle), the number the RATIOS table in
   scripts/compare_bench.py compares against verify.closure. *)
let verify_edits_per_run = 4

let verify_edit w =
  let module N = Openflow.Network in
  let module FE = Openflow.Flow_entry in
  let engine = Verify.Engine.create w.net in
  let invs = Verify.Engine.default_invariants in
  ignore (Verify.Engine.check engine invs);
  fun () ->
    for i = 0 to verify_edits_per_run - 1 do
      let entries = N.all_entries w.net in
      let victim = List.nth entries (i * 97 mod List.length entries) in
      let tables = [ (victim.FE.switch, victim.FE.table) ] in
      N.remove_entry w.net victim.FE.id;
      Verify.Engine.update engine ~changed_tables:tables;
      ignore (Verify.Engine.check engine invs);
      ignore
        (N.add_entry w.net ~switch:victim.FE.switch ~table:victim.FE.table
           ~priority:victim.FE.priority ~match_:victim.FE.match_
           ~set_field:victim.FE.set_field victim.FE.action);
      Verify.Engine.update engine ~changed_tables:tables;
      ignore (Verify.Engine.check engine invs)
    done

let micro_tests () =
  let open Bechamel in
  let cube_a =
    Hspace.Cube.of_string (String.concat "" (List.init 8 (fun _ -> "0010xxx1")))
  and cube_b =
    Hspace.Cube.of_string (String.concat "" (List.init 8 (fun _ -> "0x10x1xx")))
  in
  (* Long cubes exercise the multi-chunk hash path (satellite: the old
     Hashtbl.hash stopped after its meaningful-word budget). *)
  let long =
    Hspace.Cube.of_string
      (String.concat "" (List.init 80 (fun i -> if i mod 7 = 0 then "0x10x1xx" else "00101xx1")))
  in
  (* Constructors are the only interning sites since the selective-
     interning fix; this micro tracks the price of the sharded table's
     lock and probe (docs/PARALLEL.md). *)
  let bits =
    Array.init 64 (fun i ->
        if i mod 7 = 0 then Hspace.Cube.Any
        else if i mod 3 = 0 then Hspace.Cube.One
        else Hspace.Cube.Zero)
  in
  [
    Test.make ~name:"cube.inter/64"
      (Staged.stage (fun () -> ignore (Hspace.Cube.inter cube_a cube_b)));
    Test.make ~name:"cube.diff/64"
      (Staged.stage (fun () -> ignore (Hspace.Cube.diff cube_a cube_b)));
    Test.make ~name:"cube.of_bits/64"
      (Staged.stage (fun () -> ignore (Hspace.Cube.of_bits bits)));
    Test.make ~name:"cube.hash/640"
      (Staged.stage (fun () -> ignore (Hspace.Cube.hash long)));
  ]

(* ------------------------------------------------------------------ *)

(* Scales past 50 run a reduced suite: the flat O(n^2)-ish stages that
   the sharded planner exists to replace would take minutes there, and
   the quadratic default rule spec would not even install — these
   workloads come from Topogen.Preset's scaled spec. shard.build is the
   structural build alone (partition + per-region graphs/covers +
   stitching, no header assignment): the piece with a 1000-switch
   completion gate. shard.plan is the full sharded pipeline, probes
   included — the RATIOS table in scripts/compare_bench.py holds it to
   >= 2x over the flat plan.full at 200 switches. shard.plan/1000 is
   reported but gated by nothing until a committed baseline holds it. *)
let large_scale_entries scale =
  let _, net = Topogen.Preset.scale ~n_switches:scale in
  let runs = 2 in
  let shard_plan =
    ( Printf.sprintf "shard.plan/%d" scale,
      time_ns ~runs (fun () -> ignore (Shard.Splan.create net)) )
  in
  let shard_build =
    ( Printf.sprintf "shard.build/%d" scale,
      time_ns ~runs (fun () ->
          ignore (Shard.Splan.create ~assign_headers:false net)) )
  in
  if scale > 200 then [ shard_plan; shard_build ]
  else
    [
      ( Printf.sprintf "rulegraph.build/%d" scale,
        time_ns ~runs (fun () -> ignore (RG.build net)) );
      ( Printf.sprintf "plan.full/%d" scale,
        time_ns ~runs (fun () -> ignore (Pipeline.create net)) );
      shard_plan;
      shard_build;
    ]

let entries ~scales =
  let scales, large = List.partition (fun s -> s <= 50) scales in
  let micros = bechamel_ns (micro_tests ()) in
  let ws = List.map (fun scale -> (scale, make_workload scale)) scales in
  let runs_of scale = if scale >= 50 then 3 else 5 in
  (* All sequential entries are measured before any pool exists: OCaml 5
     minor collections are stop-the-world across *all* live domains, so
     even idle pool workers tax allocation-heavy serial code (severely
     so on a single-core host — measured ~2.5x on rulegraph.build).
     Sequential users run with no pool; the bench must measure that. *)
  let serial =
    List.concat_map
      (fun (scale, w) ->
        let runs = runs_of scale in
        [
          (Printf.sprintf "rulegraph.build/%d" scale, time_ns ~runs (fun () -> ignore (RG.build w.net)));
          (Printf.sprintf "rulegraph.spaces/%d" scale, time_ns ~runs (space_queries w));
          (Printf.sprintf "mlpc.solve/%d" scale, time_ns ~runs (solve w));
          (Printf.sprintf "mlpc.randomized/%d" scale, time_ns ~runs (randomized w));
          (Printf.sprintf "headers.assign/%d" scale, time_ns ~runs (headers_assign w));
          (Printf.sprintf "yen.k8/%d" scale, time_ns ~runs (yen_k8 w));
          (Printf.sprintf "runner.round10/%d" scale, time_ns ~runs (runner_rounds w));
          (Printf.sprintf "plan.full/%d" scale, time_ns ~runs (plan_full w));
          ( Printf.sprintf "plan.edit/%d" scale,
            time_ns ~runs (plan_edit w) /. float_of_int (2 * plan_edit_pairs) );
          (Printf.sprintf "verify.closure/%d" scale, time_ns ~runs (verify_check w));
          ( Printf.sprintf "verify.edit/%d" scale,
            time_ns ~runs (verify_edit w) /. float_of_int (2 * verify_edits_per_run) );
        ])
      ws
  in
  let pool = Sdn_parallel.pool ~domains:4 in
  let par =
    List.concat_map
      (fun (scale, w) ->
        let runs = runs_of scale in
        [
          (Printf.sprintf "headers.assign/%d/par4" scale, time_ns ~runs (headers_assign_par w pool));
        ])
      ws
  in
  micros @ serial @ par @ List.concat_map large_scale_entries large

(* ------------------------------------------------------------------ *)
(* Report assembly. *)

let load_baseline path =
  match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Error msg -> failwith (Printf.sprintf "%s: bad JSON: %s" path msg)
  | Ok json -> (
      match Json.obj_list "entries" json with
      | None -> failwith (path ^ ": no \"entries\" field")
      | Some entries ->
          List.filter_map
            (fun e ->
              match (Json.obj_str "name" e, Json.obj_float "ns" e) with
              | Some name, Some ns -> Some (name, ns)
              | Some name, None ->
                  (* report format: prefer the after numbers *)
                  Option.map (fun ns -> (name, ns)) (Json.obj_float "after_ns" e)
              | _ -> None)
            entries)

let to_json ~scales ~baseline results =
  let entry (name, ns) =
    match baseline with
    | None -> Json.Obj [ ("name", Json.Str name); ("ns", Json.Float ns) ]
    | Some base -> (
        match List.assoc_opt name base with
        | None -> Json.Obj [ ("name", Json.Str name); ("ns", Json.Float ns) ]
        | Some before ->
            Json.Obj
              [
                ("name", Json.Str name);
                ("before_ns", Json.Float before);
                ("after_ns", Json.Float ns);
                ("ns", Json.Float ns);
                ("speedup", Json.Float (before /. ns));
              ])
  in
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("kind", Json.Str (if baseline = None then "bench-regress" else "bench-regress-report"));
      ("workload", Json.Str "rocketfuel-like preferential attachment + rule_gen");
      ("switches", Json.List (List.map (fun s -> Json.Int s) scales));
      (* /par4 numbers only mean a speedup when the host has the cores;
         scaling tables must be read against this field (docs/PERF.md). *)
      ("host_cores", Json.Int (Domain.recommended_domain_count ()));
      ("entries", Json.List (List.map entry results));
    ]

let pretty_ns ns =
  if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let print_table ~baseline results =
  let table = Metrics.Table.create [ "kernel"; "time/run"; "baseline"; "speedup" ] in
  List.iter
    (fun (name, ns) ->
      let before = Option.bind baseline (List.assoc_opt name) in
      Metrics.Table.add_row table
        [
          name;
          pretty_ns ns;
          (match before with Some b -> pretty_ns b | None -> "-");
          (match before with Some b -> Printf.sprintf "%.2fx" (b /. ns) | None -> "-");
        ])
    results;
  Metrics.Table.print table

let main args =
  let out = ref "BENCH_10.json" in
  let baseline = ref None in
  let scales = ref [ 16; 50; 200; 1000 ] in
  let rec parse = function
    | [] -> ()
    | "--out" :: v :: rest ->
        out := v;
        parse rest
    | "--baseline" :: v :: rest ->
        baseline := Some (load_baseline v);
        parse rest
    | "--switches" :: v :: rest ->
        scales := List.map int_of_string (String.split_on_char ',' v);
        parse rest
    | arg :: _ ->
        Printf.eprintf "bench regress: unknown argument %s\n" arg;
        exit 2
  in
  parse args;
  Experiments.Exp_common.banner "bench regress";
  let results = entries ~scales:!scales in
  print_table ~baseline:!baseline results;
  let json = to_json ~scales:!scales ~baseline:!baseline results in
  Out_channel.with_open_text !out (fun oc ->
      output_string oc (Json.to_string json);
      output_char oc '\n');
  Printf.printf "wrote %s\n" !out
