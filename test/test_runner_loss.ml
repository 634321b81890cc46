(* The error-prone-environment engine: seed-identity regressions (the
   retransmitting runner with everything off must reproduce the
   pre-refactor runner bit-for-bit), timeout/backoff arithmetic,
   suspicion decay, the Config builder, Report's versioned JSON, and
   deterministic runs under seeded impairments. *)

module Emu = Dataplane.Emulator
module Impairment = Dataplane.Impairment
module Fault = Dataplane.Fault
module Cube = Hspace.Cube
module FE = Openflow.Flow_entry
module Network = Openflow.Network
module Prng = Sdn_util.Prng
module Plan = Sdnprobe.Plan
module Runner = Sdnprobe.Runner
module Report = Sdnprobe.Report
module Config = Sdnprobe.Config
module Suspicion = Sdnprobe.Suspicion
module W = Experiments.Workloads

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Golden seed-identity regressions.

   The digests below were captured from the pre-refactor runner (one
   send per probe, no timeouts, no decay) on these exact scenarios.
   Config.default keeps the retransmission machinery off, so the new
   engine must reproduce them byte for byte. *)

let canonical (r : Report.t) =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "%s|%d|%d|%d|%d|%.6f" r.Report.scheme r.plan_size
       r.packets_sent r.bytes_sent r.rounds r.duration_s);
  List.iter
    (fun (d : Report.detection) ->
      Buffer.add_string b (Printf.sprintf "|d%d,%.6f,%d" d.switch d.time_s d.round))
    r.detections;
  List.iter
    (fun (rule, lvl) -> Buffer.add_string b (Printf.sprintf "|s%d,%d" rule lvl))
    r.suspicion_ranking;
  Buffer.contents b

let digest r = Digest.to_hex (Digest.string (canonical r))

let make_net ~switches ~seed =
  let rng = Prng.create seed in
  let topo = Topogen.Topo_gen.rocketfuel_like rng ~n_switches:switches () in
  Topogen.Rule_gen.install rng topo

let scenario ~switches ~seed ~kind ~fraction ~randomized ~max_rounds =
  let net = make_net ~switches ~seed in
  let emu = Emu.create net in
  let truth = W.inject (Prng.create (seed + 1)) ~kind ~fraction emu in
  let config = Config.with_max_rounds max_rounds Config.default in
  Runner.execute
    ~stop:(Runner.stop_when_flagged truth)
    ~config ~emulator:emu
    (if randomized then Plan.randomized (Prng.create seed) net
     else Pipeline.plan (Pipeline.create net))

let test_golden_static_drop () =
  let r =
    scenario ~switches:16 ~seed:1 ~kind:W.Drop_only ~fraction:0.02
      ~randomized:false ~max_rounds:60
  in
  check_str "digest" "bf4e86a37c5cc5a2cc0fc972572a1448" (digest r);
  check_int "no retransmissions" 0 r.Report.retransmissions

let test_golden_randomized_drop () =
  let r =
    scenario ~switches:16 ~seed:1 ~kind:W.Drop_only ~fraction:0.02
      ~randomized:true ~max_rounds:60
  in
  check_str "digest" "9c8f3f167e8ae6d9d081616844bed1a8" (digest r)

let test_golden_static_basic_24 () =
  let r =
    scenario ~switches:24 ~seed:5 ~kind:W.Basic ~fraction:0.03 ~randomized:false
      ~max_rounds:60
  in
  check_str "digest" "784726fc5c1c45fd4fec049c64b4dd30" (digest r)

let test_golden_static_basic_50 () =
  let r =
    scenario ~switches:50 ~seed:9 ~kind:W.Basic ~fraction:0.01 ~randomized:false
      ~max_rounds:80
  in
  check_str "digest" "2b27dbc459d02da04f91713801a2e571" (digest r)

let test_golden_no_fault () =
  let net = make_net ~switches:16 ~seed:3 in
  let emu = Emu.create net in
  let config = Config.with_max_rounds 12 Config.default in
  let r = Runner.execute ~config ~emulator:emu (Pipeline.plan (Pipeline.create net)) in
  check_str "digest" "1bae728705dc15392db70260ae188acb" (digest r)

(* The resilient, impaired path the goldens above never reach: 1% drop
   faults, 1% link loss and 200 us jitter under [Config.resilient]. The
   digest covers what the default-config goldens cannot pin:
   retransmissions, per-round stats and the emulator's per-entry flow
   counters, which count every hop of every attempt. *)
let test_golden_resilient_impaired () =
  let net = make_net ~switches:16 ~seed:4 in
  let emu = Emu.create net in
  let rng = Prng.create 11 in
  let truth = W.inject rng ~kind:W.Drop_only ~fraction:0.01 emu in
  Emu.set_impairment emu
    (Impairment.create
       (Impairment.spec ~seed:(Prng.int rng 1_000_000) ~loss_rate:0.01
          ~jitter_max_us:200 ()));
  let config = Config.with_max_rounds 60 Config.resilient in
  let r =
    Runner.execute
      ~stop:(Runner.stop_when_flagged truth)
      ~config ~emulator:emu (Pipeline.plan (Pipeline.create net))
  in
  let b = Buffer.create 8192 in
  Buffer.add_string b (canonical r);
  Buffer.add_string b (Printf.sprintf "|r%d" r.Report.retransmissions);
  List.iter
    (fun (s : Report.round_stat) ->
      Buffer.add_string b
        (Printf.sprintf "|R%d,%d,%d,%d,%d" s.round s.sent s.retries s.lost_attempts
           s.failed_probes))
    r.Report.round_stats;
  List.iter (fun (e, n) -> Buffer.add_string b (Printf.sprintf "|c%d,%d" e n))
    (Emu.flow_counts emu);
  check_bool "faults injected" true (truth <> []);
  check_bool "loss caused retransmissions" true (r.Report.retransmissions > 0);
  check_str "digest" "a04cc9d27eeef8038142b950c3b64b51"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ------------------------------------------------------------------ *)
(* QCheck: an attached zero-impairment is observationally identical to
   no impairment, across random small scenarios and both detection
   profiles. *)

let test_zero_impairment_identity =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"zero impairment = no impairment" ~count:12
       QCheck.(pair (int_bound 1000) bool)
       (fun (seed, resilient) ->
         let run ~impair =
           let net = make_net ~switches:10 ~seed in
           let emu = Emu.create net in
           if impair then Emu.set_impairment emu (Impairment.create Impairment.none);
           let truth =
             W.inject (Prng.create (seed + 1)) ~kind:W.Drop_only ~fraction:0.02 emu
           in
           let config =
             Config.with_max_rounds 25
               (if resilient then Config.resilient else Config.default)
           in
           Runner.execute
             ~stop:(Runner.stop_when_flagged truth)
             ~config ~emulator:emu (Pipeline.plan (Pipeline.create net))
         in
         canonical (run ~impair:false) = canonical (run ~impair:true)))

(* ------------------------------------------------------------------ *)
(* Timeout / backoff arithmetic *)

let test_probe_timeout () =
  let c = Config.make ~timeout_base_us:20_000 ~timeout_per_hop_us:2_000 () in
  check_int "0 hops" 20_000 (Config.probe_timeout_us c ~hops:0);
  check_int "5 hops" 30_000 (Config.probe_timeout_us c ~hops:5)

let test_backoff_exponential () =
  let c = Config.make ~retry_backoff_us:10_000 ~backoff_factor:2 () in
  check_int "attempt 1" 10_000 (Config.backoff_us c ~attempt:1);
  check_int "attempt 2" 20_000 (Config.backoff_us c ~attempt:2);
  check_int "attempt 3" 40_000 (Config.backoff_us c ~attempt:3)

let test_backoff_saturates () =
  let c = Config.make ~retry_backoff_us:1_000_000 ~backoff_factor:10 () in
  check_int "caps at 10s" 10_000_000 (Config.backoff_us c ~attempt:5);
  check_int "stays capped" 10_000_000 (Config.backoff_us c ~attempt:30)

let test_backoff_bad_attempt () =
  Alcotest.check_raises "attempt 0 rejected"
    (Invalid_argument "Config.backoff_us: attempt < 1") (fun () ->
      ignore (Config.backoff_us Config.default ~attempt:0))

(* ------------------------------------------------------------------ *)
(* Config builder *)

let test_default_is_make () =
  check_bool "default = make ()" true (Config.default = Config.make ())

let test_make_validates () =
  check_bool "negative retries rejected" true
    (try
       ignore (Config.make ~max_retries:(-1) ());
       false
     with Invalid_argument _ -> true);
  check_bool "zero backoff factor rejected" true
    (try
       ignore (Config.make ~backoff_factor:0 ());
       false
     with Invalid_argument _ -> true)

let test_with_updaters () =
  let c = Config.with_max_retries 4 (Config.with_threshold 5 Config.default) in
  check_int "threshold" 5 c.Config.threshold;
  check_int "retries" 4 c.Config.max_retries;
  check_int "others kept" Config.default.Config.max_rounds c.Config.max_rounds

(* ------------------------------------------------------------------ *)
(* Suspicion decay *)

let test_decay_rule () =
  let s = Suspicion.create ~threshold:3 in
  Suspicion.bump_rule s 7;
  Suspicion.bump_rule s 7;
  Suspicion.decay_rule s 7 ~amount:1;
  check_int "2 - 1" 1 (List.assoc 7 (Suspicion.rule_levels s));
  Suspicion.decay_rule s 7 ~amount:5;
  check_bool "floored at 0 and dropped" true
    (List.assoc_opt 7 (Suspicion.rule_levels s) = None);
  (* decaying an unknown rule is a no-op *)
  Suspicion.decay_rule s 99 ~amount:1;
  check_bool "unknown rule untouched" true (Suspicion.rule_levels s = [])

let test_decay_prevents_flag () =
  (* bump to threshold, decay, bump once more: still below threshold *)
  let s = Suspicion.create ~threshold:2 in
  Suspicion.bump_rule s 1;
  Suspicion.bump_rule s 1;
  Suspicion.decay_rule s 1 ~amount:1;
  Suspicion.bump_rule s 1;
  check_bool "2 <= threshold" false (Suspicion.exceeds_threshold s 1)

(* ------------------------------------------------------------------ *)
(* Report JSON *)

let sample_report () =
  {
    Report.scheme = "sdnprobe";
    plan_size = 12;
    generation_s = 0.25;
    detections = [ { Report.switch = 3; time_s = 1.5; round = 4 } ];
    packets_sent = 99;
    bytes_sent = 9900;
    rounds = 7;
    duration_s = 2.125;
    suspicion_ranking = [ (17, 4); (5, 1) ];
    retransmissions = 6;
    round_stats =
      [ { Report.round = 1; sent = 12; retries = 2; lost_attempts = 3; failed_probes = 1 } ];
    patch_events =
      [ { Report.batch = 1; added = 2; removed = 1; rewritten = 0; plan_size_after = 13; apply_s = 0.5 } ];
  }

let test_report_json_roundtrip () =
  let r = sample_report () in
  match Report.of_json (Report.to_json r) with
  | Ok r' -> check_bool "round-trip exact" true (r = r')
  | Error msg -> Alcotest.failf "of_json failed: %s" msg

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_report_json_version_gate () =
  (* version is checked before any other field *)
  match Report.of_json "{\"schema_version\":99}" with
  | Ok _ -> Alcotest.fail "accepted unknown schema_version"
  | Error msg -> check_bool "mentions version" true (contains ~sub:"schema_version" msg)

let test_report_json_accepts_v1 () =
  (* A version-1 document has no [patch_events]; it must still parse,
     with an empty patch-event list. *)
  let v1 =
    "{\"schema_version\":1,\"scheme\":\"sdnprobe\",\"plan_size\":12,\
     \"generation_s\":0.25,\"detections\":[],\"packets_sent\":99,\
     \"bytes_sent\":9900,\"rounds\":7,\"duration_s\":2.125,\
     \"suspicion_ranking\":[],\"retransmissions\":6,\"round_stats\":[]}"
  in
  match Report.of_json v1 with
  | Error msg -> Alcotest.failf "v1 refused: %s" msg
  | Ok r ->
      check_int "plan size" 12 r.Report.plan_size;
      check_int "patch_events default empty" 0 (List.length r.Report.patch_events)

let test_report_json_from_run () =
  let r =
    scenario ~switches:16 ~seed:1 ~kind:W.Drop_only ~fraction:0.02
      ~randomized:false ~max_rounds:60
  in
  match Report.of_json (Report.to_json r) with
  | Ok r' -> check_bool "real report round-trips" true (r = r')
  | Error msg -> Alcotest.failf "of_json failed: %s" msg

(* ------------------------------------------------------------------ *)
(* Seeded impairments: determinism and loss tolerance *)

let lossy_run ~loss ~config ~seed =
  let net = make_net ~switches:16 ~seed in
  let emu = Emu.create net in
  Emu.set_impairment emu
    (Impairment.create (Impairment.spec ~seed:77 ~loss_rate:loss ()));
  let truth = W.inject (Prng.create (seed + 1)) ~kind:W.Drop_only ~fraction:0.02 emu in
  (truth, Runner.execute
            ~stop:(Runner.stop_when_flagged truth)
            ~config ~emulator:emu (Pipeline.plan (Pipeline.create net)))

let test_seeded_loss_deterministic () =
  let config = Config.with_max_rounds 60 Config.resilient in
  let _, a = lossy_run ~loss:0.02 ~config ~seed:1 in
  let _, b = lossy_run ~loss:0.02 ~config ~seed:1 in
  check_str "identical canonical reports" (canonical a) (canonical b);
  check_bool "loss caused retransmissions" true (a.Report.retransmissions > 0)

let test_round_stats_consistent () =
  let config = Config.with_max_rounds 60 Config.resilient in
  let _, r = lossy_run ~loss:0.02 ~config ~seed:1 in
  check_int "one stat per round" r.Report.rounds (List.length r.Report.round_stats);
  let sent = List.fold_left (fun a (s : Report.round_stat) -> a + s.sent) 0 r.Report.round_stats in
  check_int "sent sums to packets" r.Report.packets_sent sent;
  let retries =
    List.fold_left (fun a (s : Report.round_stat) -> a + s.retries) 0 r.Report.round_stats
  in
  check_int "retries sum to retransmissions" r.Report.retransmissions retries

(* The acceptance scenario: 2% per-link loss, one real rule-modification
   fault on a 50-switch Rocketfuel-like topology — the resilient engine
   flags exactly the faulty switch at threshold 3. *)
let test_loss_with_real_fault_exact () =
  let net = make_net ~switches:50 ~seed:42 in
  let emu = Emu.create net in
  Emu.set_impairment emu
    (Impairment.create (Impairment.spec ~seed:1234 ~loss_rate:0.02 ()));
  let rng = Prng.create 7 in
  let candidates =
    List.filter
      (fun (e : FE.t) -> match e.action with FE.Output _ -> true | _ -> false)
      (Network.all_entries net)
  in
  let entry = Prng.choose_list rng candidates in
  let len = Network.header_len net in
  let set = ref (Cube.wildcard len) in
  for _ = 1 to 4 do
    let bit = Prng.int rng len in
    set := Cube.set !set bit (if Prng.bool rng then Cube.One else Cube.Zero)
  done;
  Emu.set_fault emu ~entry:entry.FE.id (Fault.make (Fault.Rewrite !set));
  let config = Config.with_max_rounds 150 Config.resilient in
  let report =
    Runner.execute
      ~stop:(Runner.stop_when_flagged [ entry.FE.switch ])
      ~config ~emulator:emu (Pipeline.plan (Pipeline.create net))
  in
  check_bool "exactly the faulty switch" true
    (Report.flagged_switches report = [ entry.FE.switch ])

(* Pure loss, no fault: nothing may be flagged at threshold 3. *)
let test_pure_loss_no_false_positive () =
  let net = make_net ~switches:16 ~seed:1 in
  let emu = Emu.create net in
  Emu.set_impairment emu
    (Impairment.create (Impairment.spec ~seed:77 ~loss_rate:0.02 ()));
  let config = Config.with_max_rounds 40 Config.resilient in
  let report = Runner.execute ~config ~emulator:emu (Pipeline.plan (Pipeline.create net)) in
  let confusion =
    Metrics.Confusion.pure_loss
      ~flagged:(Report.flagged_switches report)
      ~population:(W.population net)
  in
  check_int "no false positives" 0 confusion.Metrics.Confusion.false_positives;
  check_bool "loss was actually happening" true (report.Report.retransmissions > 0)

(* ------------------------------------------------------------------ *)
(* Impairment decisions *)

let test_impairment_loss_draws () =
  let certain = Impairment.create (Impairment.spec ~loss_rate:1.0 ()) in
  check_bool "rate 1 always loses" true
    (Impairment.lose_on_link certain ~sw_a:0 ~sw_b:1 ~now_us:0);
  let never = Impairment.create (Impairment.spec ~loss_rate:0.0 ()) in
  for i = 0 to 99 do
    if Impairment.lose_on_link never ~sw_a:0 ~sw_b:1 ~now_us:(i * 10) then
      Alcotest.fail "rate 0 lost a packet"
  done;
  (* independent per-attempt draws: at 50% not all 100 agree *)
  let coin = Impairment.create (Impairment.spec ~seed:3 ~loss_rate:0.5 ()) in
  let outcomes =
    List.init 100 (fun _ -> Impairment.lose_on_link coin ~sw_a:0 ~sw_b:1 ~now_us:0)
  in
  check_bool "draws vary across attempts" true
    (List.exists Fun.id outcomes && List.exists not outcomes)

let test_impairment_flap_windowed () =
  let imp =
    Impairment.create
      (Impairment.spec ~seed:5
         ~flaps:{ Impairment.flap_window_us = 1000; down_ratio = 0.5 }
         ())
  in
  (* stable within a window, unordered link key *)
  for w = 0 to 49 do
    let now_us = (w * 1000) + 500 in
    let a = Impairment.link_down imp ~sw_a:2 ~sw_b:7 ~now_us in
    let b = Impairment.link_down imp ~sw_a:7 ~sw_b:2 ~now_us:(now_us + 99) in
    if a <> b then Alcotest.fail "flap decision unstable within window"
  done;
  let downs =
    List.init 50 (fun w ->
        Impairment.link_down imp ~sw_a:2 ~sw_b:7 ~now_us:(w * 1000))
  in
  check_bool "some windows down, some up" true
    (List.exists Fun.id downs && List.exists not downs)

let test_impairment_churn_windowed () =
  let imp =
    Impairment.create
      (Impairment.spec ~seed:5
         ~churn:{ Impairment.churn_window_us = 1000; out_ratio = 0.5 }
         ())
  in
  let outs =
    List.init 50 (fun w -> Impairment.rule_out imp ~entry:9 ~now_us:(w * 1000))
  in
  check_bool "some windows out, some in" true
    (List.exists Fun.id outs && List.exists not outs);
  check_bool "stable within window" true
    (Impairment.rule_out imp ~entry:9 ~now_us:100
    = Impairment.rule_out imp ~entry:9 ~now_us:900)

let test_impairment_jitter_bounded () =
  let imp = Impairment.create (Impairment.spec ~seed:1 ~jitter_max_us:300 ()) in
  for _ = 1 to 200 do
    let j = Impairment.jitter_us imp ~switch:4 ~now_us:0 in
    if j < 0 || j > 300 then Alcotest.failf "jitter %d outside [0, 300]" j
  done;
  let off = Impairment.create Impairment.none in
  check_int "disabled jitter" 0 (Impairment.jitter_us off ~switch:4 ~now_us:0)

let test_impairment_stats () =
  let imp = Impairment.create (Impairment.spec ~loss_rate:1.0 ~jitter_max_us:10 ()) in
  ignore (Impairment.lose_on_link imp ~sw_a:0 ~sw_b:1 ~now_us:0);
  ignore (Impairment.lose_on_link imp ~sw_a:0 ~sw_b:1 ~now_us:0);
  ignore (Impairment.jitter_us imp ~switch:2 ~now_us:0);
  let s = Impairment.stats imp in
  check_int "losses counted" 2 s.Impairment.link_losses;
  Impairment.reset_stats imp;
  check_int "reset" 0 (Impairment.stats imp).Impairment.link_losses

(* The whole zoo at once — mild loss + jitter + flaps + churn, no real
   fault: the resilient engine must still flag nobody. *)
let test_full_noise_no_false_positive () =
  let net = make_net ~switches:16 ~seed:1 in
  let emu = Emu.create net in
  Emu.set_impairment emu
    (Impairment.create
       (Impairment.spec ~seed:99 ~loss_rate:0.01 ~jitter_max_us:200
          ~flaps:{ Impairment.flap_window_us = 200_000; down_ratio = 0.01 }
          ~churn:{ Impairment.churn_window_us = 250_000; out_ratio = 0.005 }
          ()));
  let config = Config.with_max_rounds 40 Config.resilient in
  let report = Runner.execute ~config ~emulator:emu (Pipeline.plan (Pipeline.create net)) in
  check_bool "nothing flagged" true (Report.flagged_switches report = [])

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "runner_loss"
    [
      ( "golden",
        [
          Alcotest.test_case "static drop s16" `Quick test_golden_static_drop;
          Alcotest.test_case "randomized drop s16" `Quick test_golden_randomized_drop;
          Alcotest.test_case "static basic s24" `Quick test_golden_static_basic_24;
          Alcotest.test_case "static basic s50" `Slow test_golden_static_basic_50;
          Alcotest.test_case "no fault s16" `Quick test_golden_no_fault;
          Alcotest.test_case "resilient impaired s16" `Quick
            test_golden_resilient_impaired;
        ] );
      ("identity", [ test_zero_impairment_identity ]);
      ( "arithmetic",
        [
          Alcotest.test_case "probe timeout" `Quick test_probe_timeout;
          Alcotest.test_case "exponential backoff" `Quick test_backoff_exponential;
          Alcotest.test_case "backoff saturates" `Quick test_backoff_saturates;
          Alcotest.test_case "bad attempt" `Quick test_backoff_bad_attempt;
        ] );
      ( "config",
        [
          Alcotest.test_case "default = make ()" `Quick test_default_is_make;
          Alcotest.test_case "validation" `Quick test_make_validates;
          Alcotest.test_case "with_* updaters" `Quick test_with_updaters;
        ] );
      ( "decay",
        [
          Alcotest.test_case "decay_rule" `Quick test_decay_rule;
          Alcotest.test_case "decay prevents flag" `Quick test_decay_prevents_flag;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_report_json_roundtrip;
          Alcotest.test_case "version gate" `Quick test_report_json_version_gate;
          Alcotest.test_case "accepts v1" `Quick test_report_json_accepts_v1;
          Alcotest.test_case "real report" `Quick test_report_json_from_run;
        ] );
      ( "loss",
        [
          Alcotest.test_case "deterministic" `Quick test_seeded_loss_deterministic;
          Alcotest.test_case "round stats" `Quick test_round_stats_consistent;
          Alcotest.test_case "2% loss + real fault, exact" `Slow
            test_loss_with_real_fault_exact;
          Alcotest.test_case "pure loss, no FP" `Quick test_pure_loss_no_false_positive;
        ] );
      ( "impairment",
        [
          Alcotest.test_case "loss draws" `Quick test_impairment_loss_draws;
          Alcotest.test_case "flap windows" `Quick test_impairment_flap_windowed;
          Alcotest.test_case "churn windows" `Quick test_impairment_churn_windowed;
          Alcotest.test_case "jitter bounded" `Quick test_impairment_jitter_bounded;
          Alcotest.test_case "stats" `Quick test_impairment_stats;
          Alcotest.test_case "full noise, no FP" `Quick
            test_full_noise_no_false_positive;
        ] );
    ]
