(* Detour hunt: colluding switches versus Randomized SDNProbe (§V-C).

   Two compromised switches tunnel traffic between each other so packets
   skip the switches in between — where a firewall would sit. End to
   end nothing looks wrong, and static SDNProbe stays blind. Randomized
   SDNProbe re-draws tested paths every cycle until a path terminates
   between the colluders, exposing them.

     dune exec examples/detour_hunt.exe *)

module FE = Openflow.Flow_entry
module Net = Openflow.Network
module Emu = Dataplane.Emulator
module Fault = Dataplane.Fault
module Runner = Sdnprobe.Runner
module Report = Sdnprobe.Report
module RG = Rulegraph.Rule_graph

let () =
  let rng = Sdn_util.Prng.create 11 in
  let topo = Topogen.Topo_gen.rocketfuel_like rng ~n_switches:16 () in
  let net = Topogen.Rule_gen.install rng topo in
  Format.printf "%a@." Net.pp_summary net;

  (* Pick a colluding pair: an entry and a switch 2-3 hops downstream on
     the packets' natural trajectory. *)
  let rg = RG.build ~closure:false net in
  let compromised, peer =
    let g = RG.base_graph rg in
    let rec find v =
      if v >= RG.n_vertices rg then failwith "no detour candidate"
      else
        let two_hops =
          List.concat_map (Sdngraph.Digraph.succ g) (Sdngraph.Digraph.succ g v)
        in
        let e = RG.vertex_entry rg v in
        match
          List.find_opt (fun u -> (RG.vertex_entry rg u).FE.switch <> e.FE.switch) two_hops
        with
        | Some u -> (e, (RG.vertex_entry rg u).FE.switch)
        | None -> find (v + 1)
    in
    find 0
  in
  Format.printf "colluders: switch %d (rule %d) tunnels to switch %d@."
    compromised.FE.switch compromised.FE.id peer;

  let hunt name plan =
    let emulator = Emu.create net in
    Emu.set_fault emulator ~entry:compromised.FE.id (Fault.make (Fault.Detour peer));
    let config = Sdnprobe.Config.make ~max_rounds:500 () in
    let report =
      Runner.execute
        ~stop:(Runner.stop_when_flagged [ compromised.FE.switch ])
        ~config ~emulator plan
    in
    let found = List.mem compromised.FE.switch (Report.flagged_switches report) in
    Format.printf "%s: %s (rounds %d, %.1fs virtual)@." name
      (if found then "caught the detour" else "blind")
      report.Report.rounds report.Report.duration_s;
    found
  in
  let static_found = hunt "static SDNProbe   " (Pipeline.plan (Pipeline.create net)) in
  let randomized_found =
    hunt "randomized SDNProbe" (Sdnprobe.Plan.randomized (Sdn_util.Prng.create 3) net)
  in
  if randomized_found && not static_found then
    Format.printf "@.path randomization closed the blind spot. \u{2713}@."
  else if randomized_found then
    Format.printf "@.both variants caught this pair (static got lucky on cover shape).@."
  else begin
    Format.printf "@.unexpected: randomized variant missed the detour@.";
    exit 1
  end
