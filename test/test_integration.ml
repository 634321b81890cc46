(* Cross-validation of the analytic pipeline against the executable
   data plane: what the rule graph + MLPC + header construction PREDICT
   a packet will traverse must be exactly what the emulator EXECUTES.
   This closes the loop between Header Space Analysis and forwarding
   semantics on randomized workloads. *)

module Emu = Dataplane.Emulator
module RG = Rulegraph.Rule_graph
module Probe = Sdnprobe.Probe
module Plan = Sdnprobe.Plan
module FE = Openflow.Flow_entry
module Hs = Hspace.Hs
module Header = Hspace.Header
module Prng = Sdn_util.Prng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let random_net seed =
  let rng = Prng.create seed in
  let topo = Topogen.Topo_gen.rocketfuel_like rng ~n_switches:(8 + Prng.int rng 10) () in
  let spec =
    {
      Topogen.Rule_gen.default_spec with
      Topogen.Rule_gen.flows_per_destination = 3;
      k_paths = 2;
    }
  in
  Topogen.Rule_gen.install ~spec rng topo

(* Every probe of a static plan, injected into a healthy emulator, is
   captured by its own trap AND traverses exactly the rules its cover
   path predicts. *)
let test_plan_predictions_execute () =
  for seed = 1 to 6 do
    let net = random_net seed in
    let plan = Pipeline.plan (Pipeline.create net) in
    let emu = Emu.create net in
    List.iter
      (fun (p : Probe.t) ->
        Emu.install_trap emu ~probe:p.Probe.id ~switch:p.Probe.terminal_switch
          ~rule:p.Probe.terminal_rule ~header:p.Probe.expected_header;
        let result = Emu.inject emu ~at:p.Probe.inject_switch p.Probe.header in
        (match result.Emu.outcome with
        | Emu.Returned { probe; _ } when probe = p.Probe.id -> ()
        | _ -> Alcotest.failf "probe %d not captured (seed %d)" p.Probe.id seed);
        let executed = List.map (fun h -> h.Emu.entry) result.Emu.trace in
        check_bool "predicted rules executed" true (executed = p.Probe.rules);
        Emu.remove_probe_traps emu ~probe:p.Probe.id)
      plan.Plan.probes
  done

(* Randomized plans satisfy the same agreement. *)
let test_randomized_predictions_execute () =
  for seed = 1 to 3 do
    let net = random_net (100 + seed) in
    let plan = Plan.randomized (Prng.create seed) net in
    let emu = Emu.create net in
    List.iter
      (fun (p : Probe.t) ->
        Emu.install_trap emu ~probe:p.Probe.id ~switch:p.Probe.terminal_switch
          ~rule:p.Probe.terminal_rule ~header:p.Probe.expected_header;
        let result = Emu.inject emu ~at:p.Probe.inject_switch p.Probe.header in
        (match result.Emu.outcome with
        | Emu.Returned { probe; _ } when probe = p.Probe.id -> ()
        | _ -> Alcotest.failf "randomized probe %d not captured" p.Probe.id);
        check_int "hop count agrees" (Probe.hop_count p) (List.length result.Emu.trace);
        Emu.remove_probe_traps emu ~probe:p.Probe.id)
      plan.Plan.probes
  done

(* Arbitrary legal rule-graph paths (not only cover paths): any sampled
   start-space header walks exactly that expanded path prefix in the
   emulator. *)
let test_legal_paths_execute () =
  let rng = Prng.create 9 in
  for seed = 10 to 13 do
    let net = random_net seed in
    let rg = RG.build net in
    let g = RG.graph rg in
    for _ = 1 to 40 do
      let u = Prng.int rng (RG.n_vertices rg) in
      (* Random walk along closure-graph edges, keeping legality. *)
      let rec extend path v budget =
        if budget = 0 then List.rev path
        else
          let succs =
            List.filter
              (fun w -> RG.is_legal rg (List.rev (w :: path)))
              (Sdngraph.Digraph.succ g v)
          in
          match succs with
          | [] -> List.rev path
          | _ ->
              let w = Prng.choose_list rng succs in
              extend (w :: path) w (budget - 1)
      in
      let path = extend [ u ] u 3 in
      let expanded = RG.expand_path rg path in
      let space = RG.start_space rg expanded in
      if not (Hs.is_empty space) then begin
        let header = Header.of_cube (Option.get (Hs.first_member space)) in
        let rules = List.map (fun v -> (RG.vertex_entry rg v).FE.id) expanded in
        let first = List.hd expanded in
        let emu = Emu.create net in
        let result =
          Emu.inject emu ~at:(RG.vertex_entry rg first).FE.switch header
        in
        let executed = List.map (fun h -> h.Emu.entry) result.Emu.trace in
        (* The path must be a prefix of the execution (the packet keeps
           forwarding past the path's end). *)
        let rec is_prefix a b =
          match (a, b) with
          | [], _ -> true
          | x :: a', y :: b' -> x = y && is_prefix a' b'
          | _, [] -> false
        in
        check_bool "legal path is an execution prefix" true (is_prefix rules executed)
      end
    done
  done

(* Conversely: the emulator's execution of any in-policy header is a
   legal path of the rule graph. *)
let test_executions_are_legal () =
  let rng = Prng.create 21 in
  for seed = 20 to 23 do
    let net = random_net seed in
    let rg = RG.build net in
    let emu = Emu.create net in
    let entries = Array.of_list (Openflow.Network.all_entries net) in
    for _ = 1 to 60 do
      let e = Prng.choose rng entries in
      let header = Header.of_cube (Hspace.Cube.sample rng e.FE.match_) in
      let result = Emu.inject emu ~at:e.FE.switch header in
      let executed = List.map (fun h -> h.Emu.entry) result.Emu.trace in
      match executed with
      | [] -> ()
      | _ ->
          let vertices = List.map (RG.vertex_of_entry rg) executed in
          check_bool "execution is legal" true
            (not (Hs.is_empty (RG.forward_space rg vertices)))
    done
  done

let () =
  Alcotest.run "integration"
    [
      ( "analysis vs execution",
        [
          Alcotest.test_case "static plans execute" `Slow test_plan_predictions_execute;
          Alcotest.test_case "randomized plans execute" `Slow test_randomized_predictions_execute;
          Alcotest.test_case "legal paths execute" `Slow test_legal_paths_execute;
          Alcotest.test_case "executions are legal" `Slow test_executions_are_legal;
        ] );
    ]
