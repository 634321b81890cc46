(* The benchmark's workloads and one repetition ("rep") of each.

   A rep runs in a fresh process: it generates its inputs (untimed),
   sets the system up once (timed: [setup_s]), then runs a closed loop
   of operations with one client until its time budget is spent — the
   next operation starts only when the previous one has completed. Every
   operation is checked against an oracle; a failed check is counted,
   never hidden.

   The network of a workload is the Topogen preset for its size (seed
   1000 + switches), whatever the run seed: plan size and set-up cost
   are then properties of the code under test, not of the draw. The run
   seed moves everything the operations consume: fault placement,
   impairment draws and edit streams. *)

module J = Sdn_util.Json
module Prng = Sdn_util.Prng
module Mono = Sdn_util.Mono
module Emu = Dataplane.Emulator
module Impairment = Dataplane.Impairment
module Config = Sdnprobe.Config
module Runner = Sdnprobe.Runner
module Report = Sdnprobe.Report
module Backend = Sdnprobe.Backend
module Probe = Sdnprobe.Probe
module Plan = Sdnprobe.Plan
module Splan = Shard.Splan
module RG = Rulegraph.Rule_graph
module Network = Openflow.Network
module FE = Openflow.Flow_entry
module Edits = Sdn_util.Edits

type kind = Flat | Shard | Churn | Wire

type t = {
  name : string;
  kind : kind;
  switches : int;
  reps : int;  (** fresh processes per untraced run; [setup_s] is their median *)
  domains : int;  (** planning pool size *)
  shard_target : int option;
  faulty : float;  (** share of forwarding entries with a drop fault *)
  impaired : bool;  (** 1% link loss and 200 us jitter on every localization *)
  pinned_digest : string option;  (** digest of the initial plan *)
}

(* Why each workload exists is recorded in BENCHMARK.json and
   README.md. The digests pin the initial plans: they move only when
   planning output changes, which is a behaviour change, not noise. *)
let workloads =
  [
    {
      name = "flat50";
      kind = Flat;
      switches = 50;
      reps = 4;
      domains = 1;
      shard_target = None;
      faulty = 0.01;
      impaired = true;
      pinned_digest = Some "03d597a08187bc3867f0a8d61735b2f3";
    };
    {
      name = "shard500";
      kind = Shard;
      switches = 500;
      reps = 3;
      domains = 2;
      shard_target = None;
      faulty = 0.002;
      impaired = false;
      pinned_digest = Some "b5e4db9848e2d7f09ab9c9eaf7a60e4f";
    };
    {
      name = "churn50";
      kind = Churn;
      switches = 50;
      reps = 3;
      domains = 1;
      shard_target = None;
      faulty = 0.;
      impaired = false;
      pinned_digest = Some "03d597a08187bc3867f0a8d61735b2f3";
    };
    {
      name = "wire24";
      kind = Wire;
      switches = 24;
      reps = 5;
      domains = 1;
      shard_target = None;
      faulty = 0.01;
      impaired = true;
      pinned_digest = Some "baa11377711e4fb83a2b170ecb5615f8";
    };
  ]

(* The self-test's variant: every kind at 16 switches, one rep, no
   pinned digest. *)
let smoke w =
  {
    w with
    switches = 16;
    reps = 1;
    shard_target = (if w.kind = Shard then Some 4 else None);
    faulty = (if w.faulty > 0. then 0.02 else 0.);
    pinned_digest = None;
  }

let find ~smoke:s name =
  List.find_opt (fun w -> w.name = name) workloads
  |> Option.map (fun w -> if s then smoke w else w)

let network w = snd (Topogen.Preset.scale ~n_switches:w.switches)

(* Same per-probe encoding as the golden-digest tests. *)
let plan_digest (probes : Probe.t list) =
  String.concat ";"
    (List.map
       (fun (p : Probe.t) ->
         Printf.sprintf "%d:%s:%s" p.Probe.id
           (String.concat "," (List.map string_of_int p.Probe.rules))
           (Hspace.Header.to_string p.Probe.header))
       probes)
  |> Digest.string |> Digest.to_hex

let fingerprint parts = Digest.to_hex (Digest.string (String.concat ";" parts))

(* Every operation draws from its own stream, a pure function of the
   run seed, the rep and the operation index. *)
let op_rng ~seed ~rep i = Prng.create ((seed * 1_000_003) + (rep * 10_007) + i + 1)

(* One domain whatever SDNPROBE_DOMAINS says: an idle pool would tax
   every localization, and the resilient profile sends serially. *)
let config = Config.(with_domains 1 (with_max_rounds 150 resilient))

(* What the set-up system holds once its garbage is gone, measured
   right after set-up, while everything set up is still in use. A peak
   heap would depend on when the collector happened to run. It is never
   measured later: on OCaml 5.1 a forced full major collection can spin
   forever once domains have been joined, and the wire backend and the
   planning pool join theirs during the rep. *)
let live_heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.quick_stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.

(* ------------------------------------------------------------------ *)
(* A rep's result. [layers] is filled by traced reps only. *)

type rep = {
  setup_s : float;
  samples_ms : float list;  (** one per operation, in order *)
  probes : int;
  live_heap_mb : float;
  attempted : int;  (** operations, plus one for the set-up *)
  failed : int;
  plan_digest : string;
  outcome_digest : string;
      (** fingerprint of what the operations returned (flagged sets,
          packet counts, final plans); equal across runs of one seed
          unless behaviour changed. Wire outcomes are real-time and
          fingerprint flagged sets only. *)
  layers : (string * float) list;
}

let rep_to_json r =
  J.Obj
    [
      ("setup_s", J.Float r.setup_s);
      ("samples_ms", J.List (List.map (fun x -> J.Float x) r.samples_ms));
      ("probes", J.Int r.probes);
      ("live_heap_mb", J.Float r.live_heap_mb);
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ("plan_digest", J.Str r.plan_digest);
      ("outcome_digest", J.Str r.outcome_digest);
      ("layers", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) r.layers));
    ]

let rep_of_json j =
  let get f k = match f k j with Some v -> v | None -> failwith ("rep: no " ^ k) in
  let floats = function
    | Some (J.List l) -> List.filter_map J.to_float l
    | _ -> []
  in
  {
    setup_s = get J.obj_float "setup_s";
    samples_ms = floats (J.member "samples_ms" j);
    probes = get J.obj_int "probes";
    live_heap_mb = get J.obj_float "live_heap_mb";
    attempted = get J.obj_int "attempted";
    failed = get J.obj_int "failed";
    plan_digest = get J.obj_str "plan_digest";
    outcome_digest = get J.obj_str "outcome_digest";
    layers =
      (match J.member "layers" j with
      | Some (J.Obj kvs) ->
          List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (J.to_float v)) kvs
      | _ -> []);
  }

(* The measured part of a rep, before the traced extras. *)
type measured = {
  m_setup_s : float;
  m_samples : float list;
  m_probes : int;
  m_heap : float;
  m_digest : string;
  m_ok : bool list;  (** one verdict per operation *)
  m_outcomes : string list;
}

(* A set-up oracle failure fails the whole rep: nothing measured on a
   wrong plan counts. *)
let finish w m ~setup_ok ~layers =
  let setup_ok =
    setup_ok && match w.pinned_digest with Some pinned -> pinned = m.m_digest | None -> true
  in
  let attempted = List.length m.m_ok + 1 in
  {
    setup_s = m.m_setup_s;
    samples_ms = m.m_samples;
    probes = m.m_probes;
    live_heap_mb = m.m_heap;
    attempted;
    failed =
      (if setup_ok then List.length (List.filter not m.m_ok) else attempted);
    plan_digest = m.m_digest;
    outcome_digest = fingerprint m.m_outcomes;
    layers;
  }

(* ------------------------------------------------------------------ *)
(* Shared pieces *)

(* Run [op 0], [op 1], ... until [seconds] of wall time have passed;
   at least one operation always runs. *)
let closed_loop ~seconds op =
  let t0 = Mono.now_s () in
  let rec go i acc =
    if i > 0 && Mono.now_s () -. t0 >= seconds then List.rev acc
    else go (i + 1) (op i :: acc)
  in
  go 0 []

let timed name f = Mono.span (fun () -> Trace.span name f)

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sum_int f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* What the traced rep sees of the probe-delivery layer: every call
   through the Backend.t closure record is timed from outside. Sends
   may come from pool domains, so their tallies are atomic. *)
type probe_acc = {
  attempts : int Atomic.t;
  attempt_ns : int Atomic.t;
  mutable rounds_ms : float list;
  mutable round : Trace.handle;
  mutable round_t0 : float;
}

let new_acc () =
  {
    attempts = Atomic.make 0;
    attempt_ns = Atomic.make 0;
    rounds_ms = [];
    round = None;
    round_t0 = 0.;
  }

let count_sends acc ~n t0 =
  ignore (Atomic.fetch_and_add acc.attempts n);
  ignore (Atomic.fetch_and_add acc.attempt_ns (int_of_float ((Mono.now_s () -. t0) *. 1e9)))

(* A round runs from its trap installation to its trap removal. *)
let instrument acc (b : Backend.t) =
  {
    b with
    Backend.install_traps =
      (fun ps ->
        acc.round_t0 <- Mono.now_s ();
        acc.round <- Trace.enter "runner.round";
        Trace.span "backend.traps" (fun () -> b.Backend.install_traps ps));
    remove_traps =
      (fun ps ->
        Trace.span "backend.traps" (fun () -> b.Backend.remove_traps ps);
        Trace.leave acc.round;
        acc.rounds_ms <- ((Mono.now_s () -. acc.round_t0) *. 1e3) :: acc.rounds_ms);
    attempt =
      (fun ~config ?now_us p ->
        let t0 = Mono.now_s () in
        let r = b.Backend.attempt ~config ?now_us p in
        count_sends acc ~n:1 t0;
        r);
    send_batch =
      Option.map
        (fun send ~config ps ->
          let t0 = Mono.now_s () in
          let r = Trace.span "backend.send_batch" (fun () -> send ~config ps) in
          count_sends acc ~n:(List.length ps) t0;
          r)
        b.Backend.send_batch;
  }

(* ------------------------------------------------------------------ *)
(* Localization (flat50, shard500, wire24) *)

type loc = { truth : int list; report : Report.t; ms : float; link_losses : int }

let inject w rng emu =
  let truth =
    Experiments.Workloads.inject rng ~kind:Experiments.Workloads.Drop_only
      ~fraction:w.faulty emu
  in
  if w.impaired then
    Emu.set_impairment emu
      (Impairment.create
         (Impairment.spec ~seed:(Prng.int rng 1_000_000) ~loss_rate:0.01
            ~jitter_max_us:200 ()));
  truth

(* One localization: fresh emulator and faults (untimed), then the
   timed runner call, stopped once every faulty switch is flagged. *)
let localize w net ~seed ~rep ~run i =
  let emu = Emu.create net in
  let truth = inject w (op_rng ~seed ~rep i) emu in
  let report, s = run emu (Runner.stop_when_flagged truth) in
  let link_losses =
    match Emu.impairment emu with
    | Some imp -> (Impairment.stats imp).Impairment.link_losses
    | None -> 0
  in
  { truth; report; ms = s *. 1e3; link_losses }

let loc_ok l = Report.flagged_switches l.report = l.truth

let loc_outcome ~real_time l =
  let flagged = String.concat "," (List.map string_of_int (Report.flagged_switches l.report)) in
  if real_time then flagged
  else
    Printf.sprintf "%s|%d/%d/%d" flagged l.report.Report.packets_sent l.report.Report.rounds
      l.report.Report.retransmissions

let false_flags l =
  List.length (List.filter (fun s -> not (List.mem s l.truth)) (Report.flagged_switches l.report))

let measured_locs w ~setup_s ~heap ~probes ~digest locs =
  {
    m_setup_s = setup_s;
    m_samples = List.map (fun l -> l.ms) locs;
    m_probes = probes;
    m_heap = heap;
    m_digest = digest;
    m_ok = List.map loc_ok locs;
    m_outcomes = List.map (loc_outcome ~real_time:(w.kind = Wire)) locs;
  }

(* Per-localization means of the runner and probe-delivery layers. *)
let runner_layers acc locs =
  let n = float_of_int (max 1 (List.length locs)) in
  let per f = float_of_int (sum_int f locs) /. n in
  let per_round f =
    per (fun l -> sum_int f l.report.Report.round_stats)
  in
  let execute = Trace.total_s "runner.execute" /. n in
  let attempt_s = float_of_int (Atomic.get acc.attempt_ns) /. 1e9 /. n in
  let traps = Trace.total_s "backend.traps" /. n in
  let attempts = float_of_int (Atomic.get acc.attempts) /. n in
  let sent = per (fun l -> l.report.Report.packets_sent) in
  let retx = per (fun l -> l.report.Report.retransmissions) in
  [
    ("runner.execute_s", execute);
    ("runner.self_s", execute -. attempt_s -. traps);
    ("runner.rounds", per (fun l -> l.report.Report.rounds));
    ("runner.round_p50_ms", Stats.median acc.rounds_ms);
    ("runner.round_max_ms", List.fold_left Float.max 0. acc.rounds_ms);
    ("runner.packets", sent);
    ("runner.retx", retx);
    ("runner.lost_attempts", per_round (fun r -> r.Report.lost_attempts));
    ("runner.failed_probes", per_round (fun r -> r.Report.failed_probes));
    ("runner.useful_ratio", if sent > 0. then 1. -. (retx /. sent) else 0.);
    ( "runner.detect_delay_s",
      mean
        (List.filter_map
           (fun l -> Report.time_to_detect_all l.report ~ground_truth:l.truth)
           locs) );
    ("backend.attempts", attempts);
    ("backend.attempt_s", attempt_s);
    ("backend.attempt_us", if attempts > 0. then attempt_s /. attempts *. 1e6 else 0.);
    ("backend.traps_s", traps);
    ("impairment.link_losses", per (fun l -> l.link_losses));
  ]

(* ------------------------------------------------------------------ *)
(* Planning layers of a flat session, called one by one from here. The
   decomposition is an oracle as well as a breakdown: its probes must
   be byte-identical to the session's. The sum of the layers is
   reconciled against the session's Pipeline.create. *)

type decomposition = {
  vertices : int;
  edges : int;
  paths : int;
  untestable : int;
  probes_digest : string;
}

(* Traced reps only, before the measured part: after a warm-up plan,
   the decomposition and a whole Pipeline.create alternate three times,
   each after a compaction, so both meet warm caches and a heap in the
   same state; the layers reconcile as medians. *)
let decompose net =
  ignore (Pipeline.create net);
  let once () =
    Gc.compact ();
    Trace.span "setup.decomposed" (fun () ->
        let rg = Trace.span "rulegraph.build" (fun () -> RG.build net) in
        let cover = Trace.span "mlpc.solve" (fun () -> Mlpc.Legal_matching.solve rg) in
        let assigned =
          Trace.span "headers.assign" (fun () ->
              Mlpc.Headers.assign Mlpc.Headers.Sat_unique cover)
        in
        let probes =
          Trace.span "plan.lower" (fun () -> Plan.probes_of_assignment net rg assigned)
        in
        {
          vertices = RG.n_vertices rg;
          edges = Sdngraph.Digraph.n_edges (RG.graph rg);
          paths = Mlpc.Cover.size cover;
          untestable = List.length cover.Mlpc.Cover.untestable;
          probes_digest = plan_digest probes;
        })
  in
  let ds =
    List.init 3 (fun _ ->
        let d = once () in
        Gc.compact ();
        ignore (Trace.span "pipeline.create" (fun () -> Pipeline.create net));
        d)
  in
  Gc.compact ();
  List.hd ds

let planning_layers d ~digest =
  let s = Trace.median_s in
  let create = s "pipeline.create" in
  let parts = s "rulegraph.build" +. s "mlpc.solve" +. s "headers.assign" +. s "plan.lower" in
  ( [
      ("rulegraph.build_s", s "rulegraph.build");
      ("rulegraph.build_alloc_mw", Trace.median_alloc_mw "rulegraph.build");
      ("rulegraph.vertices", float_of_int d.vertices);
      ("rulegraph.edges", float_of_int d.edges);
      ("mlpc.solve_s", s "mlpc.solve");
      ("mlpc.solve_alloc_mw", Trace.median_alloc_mw "mlpc.solve");
      ("mlpc.paths", float_of_int d.paths);
      ("mlpc.untestable", float_of_int d.untestable);
      ("headers.assign_s", s "headers.assign");
      ("headers.assign_alloc_mw", Trace.median_alloc_mw "headers.assign");
      ("plan.lower_s", s "plan.lower");
      ("pipeline.create_s", create);
      ("setup.unattributed_frac", if create > 0. then 1. -. (parts /. create) else 0.);
    ],
    d.probes_digest = digest )

(* ------------------------------------------------------------------ *)
(* flat50 and wire24: a flat session, then localizations on the
   emulator or, one fresh backend each, over loopback UDP. *)

let flat w ~seed ~rep ~seconds ~traced =
  let net = network w in
  let decomposition = if traced then Some (decompose net) else None in
  let h = Trace.enter "rep" in
  let session, setup_s = timed "pipeline.create" (fun () -> Pipeline.create net) in
  let heap = live_heap_mb () in
  let plan = Pipeline.plan session in
  let acc = new_acc () in
  let wrap b = if traced then instrument acc b else b in
  let run emu stop =
    match w.kind with
    | Wire ->
        let wire = Trace.span "wire.create" (fun () -> Wire.create emu) in
        Fun.protect
          ~finally:(fun () -> Wire.close wire)
          (fun () ->
            timed "runner.execute" (fun () ->
                Runner.execute_on ~stop ~config ~backend:(wrap (Wire.backend wire)) plan))
    | Flat | Shard | Churn ->
        timed "runner.execute" (fun () ->
            Runner.execute_on ~stop ~config ~backend:(wrap (Backend.of_emulator emu)) plan)
  in
  let locs = closed_loop ~seconds (localize w net ~seed ~rep ~run) in
  Trace.leave h;
  let m =
    measured_locs w ~setup_s ~heap ~probes:(Plan.size plan)
      ~digest:(plan_digest plan.Plan.probes) locs
  in
  match decomposition with
  | None -> finish w m ~setup_ok:true ~layers:[]
  | Some d ->
    let planning, same = planning_layers d ~digest:m.m_digest in
    let wire =
      if w.kind <> Wire then []
      else begin
        (* The emulator twin replays each localization's fault and
           impairment seeds in virtual time: its retransmissions are
           what the same loss costs without real sockets. *)
        let twin_retx =
          Trace.span "wire.twin" (fun () ->
              List.mapi
                (fun i _ ->
                  let emu = Emu.create net in
                  let truth = inject w (op_rng ~seed ~rep i) emu in
                  (Runner.execute ~stop:(Runner.stop_when_flagged truth) ~config
                     ~emulator:emu plan)
                    .Report.retransmissions)
                locs)
        in
        let n = float_of_int (List.length locs) in
        let retx = float_of_int (sum_int (fun l -> l.report.Report.retransmissions) locs) /. n in
        [
          ("wire.create_s", Trace.total_s "wire.create" /. n);
          ("wire.send_batch_s", Trace.total_s "backend.send_batch" /. n);
          ("wire.retx", retx);
          ("wire.excess_retx", retx -. (float_of_int (List.fold_left ( + ) 0 twin_retx) /. n));
          ("wire.false_flags", float_of_int (sum_int false_flags locs) /. n);
        ]
      end
    in
    finish w m ~setup_ok:same ~layers:(planning @ runner_layers acc locs @ wire)

(* ------------------------------------------------------------------ *)
(* shard500: a sharded plan on a pool, then hierarchical localizations
   on one domain. The pool is shut down once the plan is built: an idle
   pool domain would still join every stop-the-world minor collection,
   so each localization would wait on the scheduling of a second vCPU. *)

(* The sequential breakdown, measured before any pool exists: OCaml
   minor collections stop every live domain, so an idle pool would tax
   the one-domain figures. *)
let shard_breakdown w net =
  let topo = Network.topology net in
  let part =
    Trace.span "shard.partition" (fun () -> Shard.Partition.make ?target:w.shard_target topo)
  in
  let regions =
    List.init (Shard.Partition.n_regions part) (fun r ->
        snd
          (timed "shard.region" (fun () ->
               let sub = Network.sub net (Shard.Partition.switches part r) in
               ignore (Mlpc.Legal_matching.solve (RG.build sub)))))
  in
  Trace.span "shard.structural" (fun () ->
      ignore (Splan.create ?target:w.shard_target ~assign_headers:false net));
  let full = Trace.span "shard.plan_d1" (fun () -> Splan.create ?target:w.shard_target net) in
  (List.fold_left Float.max 0. regions, full)

let shard w ~seed ~rep ~seconds ~traced =
  let net = network w in
  let breakdown = if traced then Some (shard_breakdown w net) else None in
  let pool = Sdn_parallel.Pool.create ~domains:w.domains in
  let h = Trace.enter "rep" in
  let splan, setup_s =
    timed "shard.plan" (fun () -> Splan.create ~pool ?target:w.shard_target net)
  in
  let heap = live_heap_mb () in
  if traced then
    Trace.span "shard.structural_d2" (fun () ->
        ignore (Splan.create ~pool ?target:w.shard_target ~assign_headers:false net));
  Sdn_parallel.Pool.shutdown pool;
  let acc = new_acc () in
  let wrap b = if traced then instrument acc b else b in
  let run emu stop =
    timed "runner.execute" (fun () ->
        Runner.execute_probes ~stop ~region_of:(Splan.region_of splan) ~config
          ~backend:(wrap (Backend.of_emulator emu))
          ~generation_s:splan.Splan.generation_s splan.Splan.probes)
  in
  let locs = closed_loop ~seconds (localize w net ~seed ~rep ~run) in
  Trace.leave h;
  let digest = plan_digest splan.Splan.probes in
  let m = measured_locs w ~setup_s ~heap ~probes:(Splan.size splan) ~digest locs in
  match breakdown with
  | None -> finish w m ~setup_ok:true ~layers:[]
  | Some (region_max, plan_d1) ->
      let s = Trace.total_s in
      let structural = s "shard.structural" and structural_d2 = s "shard.structural_d2" in
      let headers_d1 = s "shard.plan_d1" -. structural in
      let headers_d2 = setup_s -. structural_d2 in
      let st = splan.Splan.stats in
      let layers =
        [
          ("shard.partition_s", s "shard.partition");
          ("shard.regions_s", s "shard.region");
          ("shard.region_max_s", region_max);
          ("shard.structural_s", structural);
          ("shard.structural_d2_s", structural_d2);
          ("shard.stitch_s", structural -. s "shard.partition" -. s "shard.region");
          ("shard.headers_s", headers_d2);
          ("shard.regions", float_of_int st.Splan.regions);
          ("shard.chains", float_of_int st.Splan.chains);
          ("shard.stitched", float_of_int st.Splan.stitched);
          ("parallel.structural_speedup", structural /. structural_d2);
          ("parallel.headers_speedup", headers_d1 /. headers_d2);
        ]
      in
      (* 1 = N domains: the plan built on the pool must be the
         one-domain plan, byte for byte. *)
      finish w m
        ~setup_ok:(plan_digest plan_d1.Splan.probes = digest)
        ~layers:(layers @ runner_layers acc locs)

(* ------------------------------------------------------------------ *)
(* churn50: a planning session and a verifier, then edit batches
   through both, as [sdnprobe watch] and [sdnprobe verify --edits] do. *)

let ops_per_batch = 4

(* Remove-then-reinstall churn, as the [sdnprobe edits] generator makes
   it, applied to a private copy of the network whose id allocator
   stays in lockstep with every consumer's. Victims sweep the entry
   table in golden-ratio steps from a seed-drawn phase, so any window
   of batches edits a representative mix of rules. Runs on different
   seeds then differ in which rules they edit, not in how costly the
   mix is: with about a dozen batches a run, uniform draws let the
   mix alone move the median by 10%. *)
let golden = (sqrt 5. -. 1.) /. 2.

let edit_batch ~phase ~batch gen_net =
  List.concat
    (List.init (ops_per_batch / 2) (fun k ->
         let entries = Network.all_entries gen_net in
         let m = (batch * (ops_per_batch / 2)) + k in
         let u = Float.rem (phase +. (float_of_int m *. golden)) 1. in
         let v = List.nth entries (int_of_float (u *. float_of_int (List.length entries))) in
         Network.remove_entry gen_net v.FE.id;
         ignore
           (Network.add_entry gen_net ~switch:v.FE.switch ~table:v.FE.table
              ~priority:v.FE.priority ~match_:v.FE.match_ ~set_field:v.FE.set_field
              v.FE.action);
         [
           Edits.Remove v.FE.id;
           Edits.Add
             {
               Edits.switch = v.FE.switch;
               table = v.FE.table;
               priority = v.FE.priority;
               match_ = Hspace.Cube.to_string v.FE.match_;
               set_field = Some (Hspace.Cube.to_string v.FE.set_field);
               action =
                 (match v.FE.action with
                 | FE.Drop -> Edits.Drop
                 | FE.Output p -> Edits.Output p
                 | FE.Goto_table t -> Edits.Goto_table t);
             };
         ]))

let invariants = Verify.Engine.default_invariants

(* What a verifier report says, without its work counters (an
   incremental engine does less work than a scratch one by design). *)
let verdicts (r : Verify.Report.t) =
  List.map
    (fun (inv, status) ->
      ( Verify.Invariant.to_string inv,
        match status with
        | Verify.Report.Holds -> []
        | Verify.Report.Violated vs ->
            List.map (fun (v : Verify.Report.violation) -> v.Verify.Report.message) vs ))
    r.Verify.Report.results

type batch = { apply_ms : float; recheck_ms : float; patch : int; verdict_ok : bool }

let churn w ~seed ~rep ~seconds ~traced =
  (* The planner's, the verifier's and the generator's copies. *)
  let net = network w and vnet = network w and gen_net = network w in
  let decomposition = if traced then Some (decompose net) else None in
  let h = Trace.enter "rep" in
  let (session, engine), setup_s =
    Mono.span (fun () ->
        let session = Trace.span "pipeline.create" (fun () -> Pipeline.create net) in
        let engine = Trace.span "verify.create" (fun () -> Verify.Engine.create vnet) in
        ignore (Trace.span "verify.check" (fun () -> Verify.Engine.check engine invariants));
        (session, engine))
  in
  let heap = live_heap_mb () in
  let digest = plan_digest (Pipeline.plan session).Plan.probes in
  let phase = Prng.float (op_rng ~seed ~rep 0) 1. in
  let session = ref session in
  let last = ref None in
  let stream = ref [] in
  let batches =
    closed_loop ~seconds (fun batch ->
        let edits = edit_batch ~phase ~batch gen_net in
        stream := edits :: !stream;
        let (s', patch), apply_s =
          timed "pipeline.apply" (fun () -> Pipeline.apply !session edits)
        in
        session := s';
        let report, recheck_s =
          Mono.span (fun () ->
              let tables = List.map (Pipeline.apply_op vnet) edits in
              Trace.span "verify.update" (fun () ->
                  Verify.Engine.update engine ~changed_tables:tables);
              Trace.span "verify.recheck" (fun () -> Verify.Engine.check engine invariants))
        in
        last := Some report;
        {
          apply_ms = apply_s *. 1e3;
          recheck_ms = recheck_s *. 1e3;
          patch = Plan.patch_size patch;
          verdict_ok = Verify.Report.ok report;
        })
  in
  Trace.leave h;
  (* Incremental = scratch, checked once the stream ends (untimed): the
     final plan against a fresh session, the final verdicts against a
     fresh verifier, both on a network that saw the same edits. The
     scratch verifier alone costs most of a set-up, so only the first
     rep of a run pays for it; every rep checks every batch's verdicts. *)
  let final = (Pipeline.plan !session).Plan.probes in
  let same =
    rep <> 0
    ||
    let scratch_net = network w in
    List.iter
      (fun edits -> List.iter (fun op -> ignore (Pipeline.apply_op scratch_net op)) edits)
      (List.rev !stream);
    let scratch_plan = (Pipeline.plan (Pipeline.create scratch_net)).Plan.probes in
    plan_digest final = plan_digest scratch_plan
    && Option.map verdicts !last
       = Some (verdicts (Verify.Engine.check (Verify.Engine.create scratch_net) invariants))
  in
  let m =
    {
      m_setup_s = setup_s;
      m_samples = List.map (fun b -> b.apply_ms +. b.recheck_ms) batches;
      m_probes = List.length final;
      m_heap = heap;
      m_digest = digest;
      m_ok = List.map (fun b -> b.verdict_ok) batches;
      m_outcomes = [ plan_digest final ];
    }
  in
  match decomposition with
  | None -> finish w m ~setup_ok:same ~layers:[]
  | Some d ->
    let planning, decomposed_same = planning_layers d ~digest in
    let apply = List.map (fun b -> b.apply_ms) batches in
    let layers =
      [
        ("pipeline.apply_p50_ms", Stats.median apply);
        ("pipeline.apply_p90_ms", Stats.percentile 90. apply);
        ( "pipeline.patch_size_mean",
          mean (List.map (fun b -> float_of_int b.patch) batches) );
        ("verify.create_s", Trace.total_s "verify.create");
        ("verify.check_s", Trace.total_s "verify.check");
        ("verify.update_p50_ms", Trace.median_s "verify.update" *. 1e3);
        ("verify.recheck_p50_ms", Trace.median_s "verify.recheck" *. 1e3);
      ]
    in
    finish w m ~setup_ok:(same && decomposed_same) ~layers:(planning @ layers)

(* ------------------------------------------------------------------ *)

(* Layers read off the whole measured part of a traced rep. *)
let rep_layers () =
  let of_rep f = match Trace.named "rep" with s :: _ -> f s | [] -> 0. in
  let counter name =
    float_of_int (Trace.counter_total "rep" name)
  in
  let hit_ratio cache =
    let hits = counter (Printf.sprintf "rulegraph.cache.%s.hits" cache)
    and misses = counter (Printf.sprintf "rulegraph.cache.%s.misses" cache) in
    if hits +. misses > 0. then hits /. (hits +. misses) else 0.
  in
  List.map
    (fun c -> (Printf.sprintf "rulegraph.cache.%s.hit_ratio" c, hit_ratio c))
    [ "start"; "forward"; "inject"; "legal" ]
  @ List.map
      (fun c -> ("verify." ^ c, counter ("verify." ^ c)))
      [
        "states.computed";
        "states.updated";
        "states.cache_hits";
        "closure.cubes";
        "closure.iterations";
      ]
  @ [
      ("gc.minor_collections", of_rep (fun s -> float_of_int s.Trace.minor_gcs));
      ("gc.major_collections", of_rep (fun s -> float_of_int s.Trace.major_gcs));
      ("gc.alloc_mw", of_rep (fun s -> s.Trace.alloc_w /. 1e6));
      ("host_cores", float_of_int (Domain.recommended_domain_count ()));
    ]

(* One rep. With [trace], spans are recorded, the layers measured and
   the spans written to that file as Chrome trace-event JSON. *)
let run_rep w ~seed ~rep ~seconds ~trace =
  let traced = Option.is_some trace in
  if traced then Trace.start ();
  let r =
    match w.kind with
    | Flat | Wire -> flat w ~seed ~rep ~seconds ~traced
    | Shard -> shard w ~seed ~rep ~seconds ~traced
    | Churn -> churn w ~seed ~rep ~seconds ~traced
  in
  match trace with
  | None -> r
  | Some path ->
      Trace.write_chrome path;
      { r with layers = r.layers @ rep_layers () }
