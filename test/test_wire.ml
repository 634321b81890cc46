(* Tests for the UDP wire backend: frame codec totality, backend
   lifecycle, and end-to-end equivalence with the in-process emulator —
   the same faults must be localized whether probes travel through the
   OS network stack or through Emulator.inject, clean and under seeded
   loss. *)

module Emulator = Dataplane.Emulator
module Network = Openflow.Network
module Header = Hspace.Header
module Prng = Sdn_util.Prng
module Config = Sdnprobe.Config
module Runner = Sdnprobe.Runner
module Report = Sdnprobe.Report

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Wire_proto *)

let test_frame_roundtrip () =
  let rng = Prng.create 3 in
  for _ = 1 to 100 do
    let len = 1 + Prng.int rng 64 in
    let header =
      Header.of_string (String.init len (fun _ -> if Prng.bool rng then '1' else '0'))
    in
    let f = { Wire.Proto.probe = Prng.int rng 1_000_000; ttl = Prng.int rng 256; header } in
    match Wire.Proto.decode (Wire.Proto.encode f) with
    | Some f' ->
        check_int "probe" f.Wire.Proto.probe f'.Wire.Proto.probe;
        check_int "ttl" f.Wire.Proto.ttl f'.Wire.Proto.ttl;
        check_bool "header" true (Header.equal f.Wire.Proto.header f'.Wire.Proto.header)
    | None -> Alcotest.fail "frame did not roundtrip"
  done

let test_frame_decode_total () =
  (* Garbage, truncation and wrong magic all come back None. *)
  let rng = Prng.create 4 in
  check_bool "empty" true (Wire.Proto.decode Bytes.empty = None);
  check_bool "wrong magic" true (Wire.Proto.decode (Bytes.make 16 '\x04') = None);
  let valid =
    Wire.Proto.encode
      { Wire.Proto.probe = 7; ttl = 9; header = Header.of_string "1100" }
  in
  for len = 0 to Bytes.length valid - 1 do
    check_bool "truncated frame" true (Wire.Proto.decode (Bytes.sub valid 0 len) = None)
  done;
  for _ = 1 to 500 do
    let b = Bytes.init (Prng.int rng 40) (fun _ -> Char.chr (Prng.int rng 256)) in
    ignore (Wire.Proto.decode b)
  done

(* ------------------------------------------------------------------ *)
(* End-to-end equivalence with the emulator backend *)

let make_faulty_emulator ~switches ~seed =
  let rng = Prng.create seed in
  let topo = Topogen.Topo_gen.rocketfuel_like rng ~n_switches:switches () in
  let net = Topogen.Rule_gen.install rng topo in
  let emu = Emulator.create net in
  let truth =
    Experiments.Workloads.inject (Prng.create (seed + 1))
      ~kind:Experiments.Workloads.Basic ~fraction:0.02 emu
  in
  (emu, truth)

(* Wire timeouts are real: a congested CI box can stall the daemon for
   tens of milliseconds, so give probes a generous echo deadline. *)
let widen_timeouts config =
  Config.(config |> with_timeout_base_us 250_000 |> with_timeout_per_hop_us 5_000)

let run_both ~switches ~seed ~config ~loss =
  let flagged backend_kind =
    let emu, truth = make_faulty_emulator ~switches ~seed in
    if loss > 0. then
      Emulator.set_impairment emu
        (Dataplane.Impairment.create
           (Dataplane.Impairment.spec ~seed:(seed + 2) ~loss_rate:loss ()));
    let plan = Pipeline.plan (Pipeline.create (Emulator.network emu)) in
    let stop = Runner.stop_when_flagged truth in
    let report =
      match backend_kind with
      | Config.Emulator -> Runner.execute ~stop ~config ~emulator:emu plan
      | Config.Wire ->
          let w = Wire.create emu in
          Fun.protect
            ~finally:(fun () -> Wire.close w)
            (fun () ->
              Runner.execute_on ~stop ~config:(widen_timeouts config)
                ~backend:(Wire.backend w) plan)
    in
    (truth, Report.flagged_switches report)
  in
  let truth, on_emulator = flagged Config.Emulator in
  let truth', on_wire = flagged Config.Wire in
  check_bool "same ground truth" true (truth = truth');
  (truth, on_emulator, on_wire)

let test_equivalence_clean () =
  let truth, on_emulator, on_wire = run_both ~switches:16 ~seed:7 ~config:(Config.with_max_rounds 60 Config.default) ~loss:0. in
  check_bool "emulator finds the faults" true (truth = on_emulator);
  check_bool "wire finds the same faults" true (on_emulator = on_wire)

let test_equivalence_under_loss () =
  let config = Config.with_max_rounds 60 Config.resilient in
  let truth, on_emulator, on_wire =
    run_both ~switches:16 ~seed:7 ~config ~loss:0.02
  in
  check_bool "emulator finds the faults under loss" true (truth = on_emulator);
  check_bool "wire finds the same faults under loss" true (on_emulator = on_wire)

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let test_close_idempotent () =
  let emu, _ = make_faulty_emulator ~switches:4 ~seed:1 in
  let w = Wire.create emu in
  let port = Wire.switch_port w 0 in
  check_bool "real port" true (port > 0);
  check_bool "distinct ports" true (port <> Wire.switch_port w 1);
  Wire.close w;
  Wire.close w;
  (* the backend view's close delegates and stays idempotent too *)
  (Wire.backend w).Sdnprobe.Backend.close ()

let test_backend_shape () =
  let emu, _ = make_faulty_emulator ~switches:4 ~seed:2 in
  let w = Wire.create emu in
  Fun.protect
    ~finally:(fun () -> Wire.close w)
    (fun () ->
      let b = Wire.backend w in
      check_bool "real time" true b.Sdnprobe.Backend.real_time;
      check_bool "batched sends" true (b.Sdnprobe.Backend.send_batch <> None))

let () =
  Alcotest.run "wire"
    [
      ( "proto",
        [
          Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "decode total" `Quick test_frame_decode_total;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "clean" `Quick test_equivalence_clean;
          Alcotest.test_case "2% seeded loss" `Quick test_equivalence_under_loss;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "close idempotent" `Quick test_close_idempotent;
          Alcotest.test_case "backend shape" `Quick test_backend_shape;
        ] );
    ]
