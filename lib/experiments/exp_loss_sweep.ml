(* Error-prone environment sweep: localization accuracy and detection
   time as the natural per-link packet-loss rate grows from 0 to 5%,
   Static vs Randomized SDNProbe, loss-tolerant detection profile
   (Config.resilient: bounded retransmission + suspicion decay).

   Two scenarios per loss point:

   - faulted: one real rule-modification (Rewrite) fault on a 50-switch
     Rocketfuel-like topology. The engine must flag exactly the faulty
     switch — environment loss must be absorbed by retransmission, not
     blamed on healthy switches.
   - pure loss: the same topology with NO fault. Any flagged switch is
     a false positive at threshold 3.

   Set SDNPROBE_LOSS_SWEEP_JSON=path to also write the sweep as one
   versioned JSON document (consumed by scripts/plot_loss_sweep.py). *)

module Emu = Dataplane.Emulator
module Impairment = Dataplane.Impairment
module Fault = Dataplane.Fault
module FE = Openflow.Flow_entry
module Network = Openflow.Network
module Prng = Sdn_util.Prng
module Json = Sdn_util.Json
module Report = Sdnprobe.Report
module Runner = Sdnprobe.Runner

let schema_version = 1

let n_switches = 50

let topo_seed = 42

let impair_seed = 1234

(* One rule-modification fault: four header bits rewritten by a
   deterministic forwarding entry (the Workloads [Basic] "modify"
   arm, pinned to a single entry). Returns the ground-truth switch. *)
let inject_one_modify rng net emulator =
  let candidates =
    List.filter
      (fun (e : FE.t) -> match e.action with FE.Output _ -> true | _ -> false)
      (Network.all_entries net)
  in
  let entry = Prng.choose_list rng candidates in
  let len = Network.header_len net in
  let set = ref (Hspace.Cube.wildcard len) in
  for _ = 1 to 4 do
    let bit = Prng.int rng len in
    set :=
      Hspace.Cube.set !set bit (if Prng.bool rng then Hspace.Cube.One else Hspace.Cube.Zero)
  done;
  Emu.set_fault emulator ~entry:entry.FE.id (Fault.make (Fault.Rewrite !set));
  entry.FE.switch

let impaired_emulator net ~loss =
  let emulator = Emu.create net in
  if loss > 0. then
    Emu.set_impairment emulator
      (Impairment.create (Impairment.spec ~seed:impair_seed ~loss_rate:loss ()));
  emulator

let plan_of ~randomized ~seed net =
  if randomized then Sdnprobe.Plan.randomized (Prng.create seed) net
  else Pipeline.plan (Pipeline.create net)

let scheme_name ~randomized = if randomized then "rand-sdnprobe" else "sdnprobe"

type point = {
  loss : float;
  scheme : string;
  exact : bool;  (** flagged exactly the faulty switch *)
  detect_s : float option;  (** virtual time to flag the faulty switch *)
  pure_loss_fps : int;  (** switches flagged with no fault present *)
  report : Report.t;  (** the faulted run's report *)
}

let run_point net ~loss ~randomized =
  let config = Sdnprobe.Config.(with_max_rounds 150 resilient) in
  (* Faulted run: one modify fault, hunt it. *)
  let emulator = impaired_emulator net ~loss in
  let truth = inject_one_modify (Prng.create 7) net emulator in
  let report =
    Runner.execute
      ~stop:(Runner.stop_when_flagged [ truth ])
      ~config ~emulator
      (plan_of ~randomized ~seed:5 net)
  in
  let flagged = Report.flagged_switches report in
  (* Pure-loss run: same environment, no fault; bounded rounds. *)
  let pure_emulator = impaired_emulator net ~loss in
  let pure_report =
    Runner.execute
      ~config:Sdnprobe.Config.(with_max_rounds 40 resilient)
      ~emulator:pure_emulator
      (plan_of ~randomized ~seed:5 net)
  in
  let pure_confusion =
    Metrics.Confusion.pure_loss
      ~flagged:(Report.flagged_switches pure_report)
      ~population:(Workloads.population net)
  in
  {
    loss;
    scheme = scheme_name ~randomized;
    exact = flagged = [ truth ];
    detect_s = Report.detection_time report truth;
    pure_loss_fps = pure_confusion.Metrics.Confusion.false_positives;
    report;
  }

let point_json p =
  let report =
    match Json.of_string (Report.to_json p.report) with
    | Ok v -> v
    | Error msg -> failwith ("unparseable report JSON: " ^ msg)
  in
  Json.Obj
    [
      ("loss", Json.Float p.loss);
      ("scheme", Json.Str p.scheme);
      ("exact", Json.Bool p.exact);
      ( "detect_s",
        match p.detect_s with Some t -> Json.Float t | None -> Json.Null );
      ("pure_loss_false_positives", Json.Int p.pure_loss_fps);
      ("report", report);
    ]

let sweep_json points =
  Json.to_string
    (Json.Obj
       [
         ("schema_version", Json.Int schema_version);
         ("experiment", Json.Str "loss-sweep");
         ("n_switches", Json.Int n_switches);
         ("threshold", Json.Int Sdnprobe.Config.default.Sdnprobe.Config.threshold);
         ("points", Json.List (List.map point_json points));
       ])

let losses_of_scale = function
  | Exp_common.Quick -> [ 0.0; 0.02 ]
  | Exp_common.Full -> [ 0.0; 0.005; 0.01; 0.02; 0.03; 0.05 ]

let run ~scale =
  Exp_common.banner
    "Loss sweep: accuracy & detection time vs per-link loss (error-prone environment)";
  let rng = Prng.create topo_seed in
  let topo = Topogen.Topo_gen.rocketfuel_like rng ~n_switches () in
  let net = Topogen.Rule_gen.install rng topo in
  Exp_common.note "topology: %d switches, %d rules; profile: resilient (retries=%d, decay=%d)"
    n_switches (Network.n_entries net)
    Sdnprobe.Config.resilient.Sdnprobe.Config.max_retries
    Sdnprobe.Config.resilient.Sdnprobe.Config.suspicion_decay;
  let table =
    Metrics.Table.create
      [ "loss%"; "scheme"; "exact"; "detect(s)"; "retx"; "pure-loss FPs" ]
  in
  let points =
    List.concat_map
      (fun loss ->
        List.map
          (fun randomized ->
            let p = run_point net ~loss ~randomized in
            Metrics.Table.add_row table
              [
                Printf.sprintf "%.1f%%" (loss *. 100.);
                p.scheme;
                (if p.exact then "yes" else "NO");
                (match p.detect_s with
                | Some t -> Metrics.Table.cell_f t
                | None -> "miss");
                Metrics.Table.cell_i p.report.Report.retransmissions;
                Metrics.Table.cell_i p.pure_loss_fps;
              ];
            p)
          [ false; true ])
      (losses_of_scale scale)
  in
  Metrics.Table.print table;
  (match Sys.getenv_opt "SDNPROBE_LOSS_SWEEP_JSON" with
  | Some path ->
      let oc = open_out path in
      output_string oc (sweep_json points);
      output_string oc "\n";
      close_out oc;
      Exp_common.note "sweep JSON written to %s" path
  | None -> ());
  let fps = List.fold_left (fun acc p -> acc + p.pure_loss_fps) 0 points in
  if fps > 0 then
    failwith
      (Printf.sprintf
         "loss sweep: %d false positive(s) under pure loss at threshold %d" fps
         Sdnprobe.Config.default.Sdnprobe.Config.threshold);
  Exp_common.note
    "expected: exact localization at every loss point, zero pure-loss false positives"
