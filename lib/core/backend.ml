module Emulator = Dataplane.Emulator
module Clock = Dataplane.Clock

type t = {
  label : string;
  network : Openflow.Network.t;
  clock : Clock.t;
  real_time : bool;
  install_traps : Probe.t list -> unit;
  remove_traps : Probe.t list -> unit;
  attempt : config:Config.t -> ?now_us:int -> Probe.t -> bool;
  send_batch : (config:Config.t -> Probe.t list -> bool array) option;
  close : unit -> unit;
}

(* One attempt against the in-process emulator: inject and classify
   against the probe's own trap. A probe passes iff its trap captured
   it AND the echo arrived within the per-probe timeout (nominal flight
   time plus any impairment jitter the packet accumulated). *)
let emulator_attempt emu ~config ?now_us (p : Probe.t) =
  let result = Emulator.inject ?now_us emu ~at:p.Probe.inject_switch p.Probe.header in
  let returned =
    match result.Emulator.outcome with
    | Emulator.Returned { probe; _ } -> probe = p.Probe.id
    | Emulator.Delivered _ | Emulator.Lost _ -> false
  in
  let hops = Probe.hop_count p in
  let flight_us =
    (hops * config.Config.per_hop_latency_us) + result.Emulator.jitter_us
  in
  returned && flight_us <= Config.probe_timeout_us config ~hops

let of_emulator emu =
  {
    label = "emulator";
    network = Emulator.network emu;
    clock = Emulator.clock emu;
    real_time = false;
    install_traps =
      List.iter (fun (p : Probe.t) ->
          Emulator.install_trap emu ~probe:p.Probe.id ~switch:p.Probe.terminal_switch
            ~rule:p.Probe.terminal_rule ~header:p.Probe.expected_header);
    remove_traps =
      List.iter (fun (p : Probe.t) ->
          Emulator.remove_probe_traps emu ~probe:p.Probe.id);
    attempt = (fun ~config ?now_us p -> emulator_attempt emu ~config ?now_us p);
    send_batch = None;
    close = (fun () -> ());
  }
