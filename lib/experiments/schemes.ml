module Prng = Sdn_util.Prng

type t = Sdnprobe | Randomized_sdnprobe | Atpg | Per_rule

let all = [ Sdnprobe; Randomized_sdnprobe; Atpg; Per_rule ]

let name = function
  | Sdnprobe -> "sdnprobe"
  | Randomized_sdnprobe -> "rand-sdnprobe"
  | Atpg -> "atpg"
  | Per_rule -> "per-rule"

let randomized_plan ~seed net = Sdnprobe.Plan.randomized (Prng.create seed) net

let plan_size t ~seed net =
  match t with
  | Sdnprobe -> Sdnprobe.Plan.size (Pipeline.plan (Pipeline.create net))
  | Randomized_sdnprobe -> Sdnprobe.Plan.size (randomized_plan ~seed net)
  | Atpg -> List.length (Baselines.Atpg.generate net).Baselines.Atpg.probes
  | Per_rule -> List.length (fst (Baselines.Per_rule.generate net))

(* Probing schemes execute over the backend the config selects; the
   baselines drive the emulator directly and have no wire port. *)
let execute_plan ?stop ~config ~emulator plan =
  match config.Sdnprobe.Config.backend with
  | Sdnprobe.Config.Emulator -> Sdnprobe.Runner.execute ?stop ~config ~emulator plan
  | Sdnprobe.Config.Wire ->
      let w = Wire.create emulator in
      Fun.protect
        ~finally:(fun () -> Wire.close w)
        (fun () ->
          Sdnprobe.Runner.execute_on ?stop ~config ~backend:(Wire.backend w) plan)

let run t ~seed ?stop ~config emulator =
  let net = Dataplane.Emulator.network emulator in
  match t with
  | Sdnprobe ->
      execute_plan ?stop ~config ~emulator (Pipeline.plan (Pipeline.create net))
  | Randomized_sdnprobe ->
      execute_plan ?stop ~config ~emulator (randomized_plan ~seed net)
  | Atpg ->
      if config.Sdnprobe.Config.backend <> Sdnprobe.Config.Emulator then
        invalid_arg "the atpg baseline only runs on the emulator backend";
      Baselines.Atpg.run ?stop ~config emulator
  | Per_rule ->
      if config.Sdnprobe.Config.backend <> Sdnprobe.Config.Emulator then
        invalid_arg "the per-rule baseline only runs on the emulator backend";
      Baselines.Per_rule.run ?stop ~config emulator
