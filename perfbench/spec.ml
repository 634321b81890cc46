(* Every metric the benchmark prints, with its unit. BENCHMARK.json
   declares the same names and units (plus direction and bound for the
   end-to-end ones); the self-test holds the two in agreement. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("op_p50_ms", "ms");
    ("probes", "count");
    ("live_heap_mb", "MB");
  ]

(* Runner, backend and wire figures are means per localization. A layer
   a workload does not exercise reads 0. *)
let per_layer =
  [
    ("rulegraph.build_s", "s");
    ("rulegraph.build_alloc_mw", "Mwords");
    ("rulegraph.vertices", "count");
    ("rulegraph.edges", "count");
    ("rulegraph.cache.start.hit_ratio", "ratio");
    ("rulegraph.cache.forward.hit_ratio", "ratio");
    ("rulegraph.cache.inject.hit_ratio", "ratio");
    ("rulegraph.cache.legal.hit_ratio", "ratio");
    ("mlpc.solve_s", "s");
    ("mlpc.solve_alloc_mw", "Mwords");
    ("mlpc.paths", "count");
    ("mlpc.untestable", "count");
    ("headers.assign_s", "s");
    ("headers.assign_alloc_mw", "Mwords");
    ("plan.lower_s", "s");
    ("pipeline.create_s", "s");
    ("setup.unattributed_frac", "ratio");
    ("shard.partition_s", "s");
    ("shard.regions_s", "s");
    ("shard.region_max_s", "s");
    ("shard.structural_s", "s");
    ("shard.structural_d2_s", "s");
    ("shard.stitch_s", "s");
    ("shard.headers_s", "s");
    ("shard.regions", "count");
    ("shard.chains", "count");
    ("shard.stitched", "count");
    ("parallel.structural_speedup", "ratio");
    ("parallel.headers_speedup", "ratio");
    ("host_cores", "count");
    ("runner.execute_s", "s");
    ("runner.self_s", "s");
    ("runner.rounds", "count");
    ("runner.round_p50_ms", "ms");
    ("runner.round_max_ms", "ms");
    ("runner.packets", "count");
    ("runner.retx", "count");
    ("runner.lost_attempts", "count");
    ("runner.failed_probes", "count");
    ("runner.useful_ratio", "ratio");
    ("runner.detect_delay_s", "virtual_s");
    ("backend.attempts", "count");
    ("backend.attempt_s", "s");
    ("backend.attempt_us", "us");
    ("backend.traps_s", "s");
    ("impairment.link_losses", "count");
    ("wire.create_s", "s");
    ("wire.send_batch_s", "s");
    ("wire.retx", "count");
    ("wire.excess_retx", "count");
    ("wire.false_flags", "count");
    ("pipeline.apply_p50_ms", "ms");
    ("pipeline.apply_p90_ms", "ms");
    ("pipeline.patch_size_mean", "count");
    ("verify.create_s", "s");
    ("verify.check_s", "s");
    ("verify.update_p50_ms", "ms");
    ("verify.recheck_p50_ms", "ms");
    ("verify.states.computed", "count");
    ("verify.states.updated", "count");
    ("verify.states.cache_hits", "count");
    ("verify.closure.cubes", "count");
    ("verify.closure.iterations", "count");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.alloc_mw", "Mwords");
    ("trace.overhead_frac", "ratio");
  ]

module J = Sdn_util.Json

(* The metric objects of one section of BENCHMARK.json. *)
let section path name =
  match J.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok j -> Option.value ~default:[] (J.obj_list name j)

let run_seconds path =
  match J.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Ok j -> Option.map float_of_int (J.obj_int "run_seconds" j)
  | Error _ -> None

(* What BENCHMARK.json says about an end-to-end metric. *)
type bound = { better_lower : bool; bound : float }

let read_bounds path =
  List.filter_map
    (fun m ->
      match (J.obj_str "name" m, J.obj_str "better" m, J.obj_float "bound" m) with
      | Some name, Some better, Some bound ->
          Some (name, { better_lower = better = "lower"; bound })
      | _ -> None)
    (section path "end_to_end")

(* [(name, unit)] of one section. *)
let declared path name =
  List.filter_map
    (fun m ->
      match (J.obj_str "name" m, J.obj_str "unit" m) with
      | Some n, Some u -> Some (n, u)
      | _ -> None)
    (section path name)
