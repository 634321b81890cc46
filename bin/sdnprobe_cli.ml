(* Command-line interface to the SDNProbe reproduction.

   Subcommands:
     list        enumerate available experiments
     experiment  run one experiment (or "all")
     plan        generate a probe plan (optionally re-planned
                 incrementally over an edit stream with --delta)
     watch       long-running mode: consume a rule-update stream,
                 emit plan patches (and certificates) per batch
     edits       emit a deterministic synthetic edit stream
     detect      inject faults into a synthetic topology and localize
     lint        run the static-analysis passes over a policy
     verify      check declarative invariants with certified counterexamples
     certify     validate a generated plan with independent checkers *)

open Cmdliner

let scale_term =
  let doc = "Run experiments at full scale (slower, closer to the paper's sweep)." in
  Term.(
    const (fun full -> if full then Experiments.Registry.Full else Experiments.Registry.Quick)
    $ Arg.(value & flag & info [ "full" ] ~doc))

(* ------------------------------------------------------------------ *)
(* list *)

let list_cmd =
  let run () =
    List.iter
      (fun (name, desc) -> Printf.printf "%-14s %s\n" name desc)
      Experiments.Registry.experiments
  in
  Cmd.v (Cmd.info "list" ~doc:"List the paper's experiments") Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* experiment *)

let experiment_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME" ~doc:"Experiment name (see $(b,list)) or $(b,all).")
  in
  let run scale name =
    if name = "all" then begin
      Experiments.Registry.run_all ~scale;
      `Ok ()
    end
    else
      match Experiments.Registry.run ~scale name with
      | Ok () -> `Ok ()
      | Error msg -> `Error (false, msg)
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Reproduce one of the paper's tables or figures")
    Term.(ret (const run $ scale_term $ name_arg))

(* ------------------------------------------------------------------ *)
(* shared network construction *)

let switches_term =
  Arg.(value & opt int 16 & info [ "switches"; "n" ] ~docv:"N" ~doc:"Topology size.")

let seed_term =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic seed.")

let make_network ~switches ~seed =
  let rng = Sdn_util.Prng.create seed in
  let topo = Topogen.Topo_gen.rocketfuel_like rng ~n_switches:switches () in
  (* Past the historical 50-switch sizes the default spec's O(n^2) rule
     count is impractical; cap destinations like the bench presets do
     (Topogen.Preset). 16/50-switch policies are byte-identical. *)
  if switches > 50 then
    Topogen.Rule_gen.install
      ~spec:(Topogen.Rule_gen.scaled_spec ~n_switches:switches ())
      rng topo
  else Topogen.Rule_gen.install rng topo

let load_term =
  Arg.(
    value
    & opt (some file) None
    & info [ "load" ] ~docv:"FILE" ~doc:"Load a saved policy instead of generating one.")

let save_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "save" ] ~docv:"FILE" ~doc:"Save the network policy to a file.")

let resolve_network ~switches ~seed = function
  | None -> make_network ~switches ~seed
  | Some path -> (
      match Openflow.Serial.load ~path with
      | Ok net -> net
      | Error msg ->
          prerr_endline ("cannot load policy: " ^ msg);
          exit 1)

(* Planning pool from SDNPROBE_DOMAINS (docs/PARALLEL.md): detection
   already resolves it through Config; these direct planning callers
   must resolve it themselves. *)
let env_pool () =
  if Sdn_parallel.env_domains () > 1 then Some (Sdn_parallel.default_pool ())
  else None

(* Sharded planning (docs/SHARD.md), shared by plan and detect. *)
let shards_term =
  Arg.(
    value & flag
    & info [ "shards" ]
        ~doc:
          "Plan with the sharded two-level pipeline: BFS region partition, \
           per-region rule graphs and MLPC covers, cross-region stitching. \
           Detection then localizes hierarchically (region first, then \
           within-region slicing).")

let shard_target_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "shard-target" ] ~docv:"N"
        ~doc:"Target region size (switches per region) for $(b,--shards).")

(* Shared by plan --delta, watch and verify --edits FILE: read and
   parse an edit stream ("-" = stdin). *)
let read_edit_batches path =
  let text =
    if path = "-" then In_channel.input_all In_channel.stdin
    else In_channel.with_open_bin path In_channel.input_all
  in
  match Sdn_util.Edits.parse text with
  | Ok batches -> Ok batches
  | Error msg -> Error (Printf.sprintf "%s: %s" (if path = "-" then "stdin" else path) msg)

(* ------------------------------------------------------------------ *)
(* plan *)

let plan_cmd =
  let randomized =
    Arg.(value & flag & info [ "randomized" ] ~doc:"Use Randomized SDNProbe path drawing.")
  in
  let certify =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "After generating the plan, validate it with the certification \
             pipeline (SAT proofs, König matching certificate, cache-free \
             path replay, Yen re-check) and exit non-zero on failure.")
  in
  let delta =
    Arg.(
      value & flag
      & info [ "delta" ]
          ~doc:
            "Re-plan incrementally: generate the initial plan, then push the \
             edit batches of $(b,--edits) through the planning session one \
             batch at a time, printing each batch's plan patch. The patched \
             plan is byte-identical to a from-scratch re-plan of the edited \
             policy.")
  in
  let edits_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "edits" ] ~docv:"FILE"
          ~doc:
            "Edit stream for $(b,--delta) ($(b,-) = stdin): $(b,remove ID) / \
             $(b,add ...) lines with $(b,commit) batch separators (see the \
             $(b,edits) subcommand).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "With $(b,--delta): emit one JSON object per batch (the full plan \
             patch) instead of text summaries. With $(b,--shards): emit the \
             plan summary and shard statistics as one JSON object.")
  in
  let run switches seed randomized certify delta edits_file json shards
      shard_target load save =
    let net = resolve_network ~switches ~seed load in
    (match save with
    | Some path ->
        Openflow.Serial.save net ~path;
        Format.printf "policy saved to %s@." path
    | None -> ());
    if shards then
      if randomized || certify || delta then
        `Error
          ( false,
            "--shards is its own planning pipeline; drop \
             --randomized/--certify/--delta" )
      else begin
        let splan =
          Shard.Splan.create ?pool:(env_pool ()) ?target:shard_target net
        in
        let st = splan.Shard.Splan.stats in
        if json then
          print_endline
            (Sdn_util.Json.to_string
               (Sdn_util.Json.Obj
                  [
                    ("probes", Sdn_util.Json.Int (Shard.Splan.size splan));
                    ( "untestable",
                      Sdn_util.Json.Int (List.length splan.Shard.Splan.untestable)
                    );
                    ( "generation_s",
                      Sdn_util.Json.Float splan.Shard.Splan.generation_s );
                    ("shard", Shard.Splan.stats_to_json splan);
                  ]))
        else begin
          Format.printf "%a@." Openflow.Network.pp_summary net;
          Format.printf
            "sharded probes: %d over %d region(s) (generated in %.3fs)@."
            (Shard.Splan.size splan) st.Shard.Splan.regions
            splan.Shard.Splan.generation_s;
          Format.printf
            "shard: cut edges %d, border rules %d, chains %d, stitched %d@."
            st.Shard.Splan.cut_edges st.Shard.Splan.border_rules
            st.Shard.Splan.chains st.Shard.Splan.stitched;
          List.iteri
            (fun i (p : Sdnprobe.Probe.t) ->
              if i < 10 then Format.printf "  %a@." Sdnprobe.Probe.pp p)
            splan.Shard.Splan.probes;
          if Shard.Splan.size splan > 10 then
            Format.printf "  ... (%d more)@." (Shard.Splan.size splan - 10)
        end;
        `Ok ()
      end
    else if randomized && delta then
      `Error (false, "--delta re-plans the static scheme; drop --randomized")
    else if delta && edits_file = None then
      `Error (false, "--delta needs an edit stream (--edits FILE, or --edits -)")
    else begin
      let pool = env_pool () in
      let static_session =
        if randomized then None else Some (Pipeline.create ?pool net)
      in
      let plan =
        match static_session with
        | Some s -> Pipeline.plan s
        | None -> Sdnprobe.Plan.randomized ?pool (Sdn_util.Prng.create seed) net
      in
      if not (delta && json) then begin
        Format.printf "%a@." Openflow.Network.pp_summary net;
        Format.printf "probes: %d (generated in %.3fs)@." (Sdnprobe.Plan.size plan)
          plan.Sdnprobe.Plan.generation_s;
        let cover = plan.Sdnprobe.Plan.cover in
        Format.printf "cover: mean path length %.2f, max %d, untestable rules %d@."
          (Mlpc.Cover.mean_path_length cover)
          (Mlpc.Cover.max_path_length cover)
          (List.length cover.Mlpc.Cover.untestable);
        List.iteri
          (fun i (p : Sdnprobe.Probe.t) ->
            if i < 10 then Format.printf "  %a@." Sdnprobe.Probe.pp p)
          plan.Sdnprobe.Plan.probes;
        if Sdnprobe.Plan.size plan > 10 then
          Format.printf "  ... (%d more)@." (Sdnprobe.Plan.size plan - 10)
      end;
      if certify && not delta then begin
        let report = Sdnprobe.Certify.run ~seed plan in
        Format.printf "%a" Sdnprobe.Certify.pp report;
        if not (Sdnprobe.Certify.ok_report report) then exit 1
      end;
      if not delta then `Ok ()
      else
        match read_edit_batches (Option.get edits_file) with
        | Error msg -> `Error (false, msg)
        | Ok batches -> (
            let session = ref (Option.get static_session) in
            let all_ok = ref true in
            try
              List.iteri
                (fun i batch ->
                  let before = (Pipeline.plan !session).Sdnprobe.Plan.probes in
                  let t0 = Sdn_util.Mono.now_s () in
                  let session', patch = Pipeline.apply !session batch in
                  let apply_s = Sdn_util.Mono.now_s () -. t0 in
                  session := session';
                  let after = Pipeline.plan !session in
                  let certified =
                    if not certify then None
                    else begin
                      let event =
                        Sdnprobe.Report.patch_event_of_patch ~batch:(i + 1)
                          ~plan_size_after:(Sdnprobe.Plan.size after) ~apply_s
                          patch
                      in
                      let report =
                        Sdnprobe.Certify.run_patch ~seed ~event ~before ~patch
                          after
                      in
                      let ok = Sdnprobe.Certify.ok_report report in
                      if not ok then all_ok := false;
                      Some (report, ok)
                    end
                  in
                  if json then
                    print_endline
                      (Sdn_util.Json.to_string
                         (Sdn_util.Json.Obj
                            ([
                               ("batch", Sdn_util.Json.Int (i + 1));
                               ("apply_s", Sdn_util.Json.Float apply_s);
                               ( "plan_size",
                                 Sdn_util.Json.Int (Sdnprobe.Plan.size after) );
                               ("patch", Sdnprobe.Plan.patch_to_json patch);
                             ]
                            @
                            match certified with
                            | None -> []
                            | Some (report, _) ->
                                [ ("certificate", Sdnprobe.Certify.to_json report) ])))
                  else begin
                    Format.printf
                      "batch %d: %d op(s) → +%d −%d ~%d probes (plan %d, %.3fs)@."
                      (i + 1) (List.length batch)
                      (List.length patch.Sdnprobe.Plan.added)
                      (List.length patch.Sdnprobe.Plan.removed)
                      (List.length patch.Sdnprobe.Plan.rewritten)
                      (Sdnprobe.Plan.size after) apply_s;
                    match certified with
                    | Some (_, ok) ->
                        Format.printf "  certificate: %s@."
                          (if ok then "PASS" else "FAIL")
                    | None -> ()
                  end)
                batches;
              if not json then
                Format.printf "final plan: %d probes after %d batch(es)@."
                  (Sdnprobe.Plan.size (Pipeline.plan !session))
                  (List.length batches);
              if !all_ok then `Ok () else exit 1
            with
            | Pipeline.Edit_error msg -> `Error (false, "edit stream: " ^ msg)
            | Rulegraph.Rule_graph.Cyclic_policy loop ->
                `Error
                  ( false,
                    Format.asprintf
                      "edit stream introduces a forwarding loop through \
                       entries %a"
                      Fmt.(list ~sep:comma int)
                      loop ))
    end
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "Generate and summarize a test-packet plan; with $(b,--delta), keep \
          the planning session open and re-plan incrementally over an edit \
          stream")
    Term.(
      ret
        (const run $ switches_term $ seed_term $ randomized $ certify $ delta
       $ edits_file $ json $ shards_term $ shard_target_term $ load_term
       $ save_term))

(* ------------------------------------------------------------------ *)
(* watch *)

let watch_cmd =
  let edits_file =
    Arg.(
      value & opt string "-"
      & info [ "edits" ] ~docv:"FILE"
          ~doc:
            "Rule-update stream to consume (default $(b,-) = stdin): \
             $(b,remove)/$(b,add) lines, $(b,commit) ends a batch (see the \
             $(b,edits) subcommand). Each batch is absorbed incrementally and \
             answered with a plan patch.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one JSON object per batch (patch + certificate verdict) and \
             a final summary object, one per line.")
  in
  let no_certify =
    Arg.(
      value & flag
      & info [ "no-certify" ]
          ~doc:
            "Skip per-batch certification (patch accounting + full \
             certification of the patched plan); batches are then only \
             re-planned.")
  in
  let run switches seed load edits_file json no_certify =
    let net = resolve_network ~switches ~seed load in
    match read_edit_batches edits_file with
    | Error msg -> `Error (false, msg)
    | Ok batches -> (
        let pool = env_pool () in
        let session = ref (Pipeline.create ?pool net) in
        if not json then
          Format.printf "watch: initial plan %d probes (%.3fs), %d batch(es) queued@."
            (Sdnprobe.Plan.size (Pipeline.plan !session))
            (Pipeline.plan !session).Sdnprobe.Plan.generation_s
            (List.length batches);
        let events = ref [] in
        let all_ok = ref true in
        try
          List.iteri
            (fun i batch ->
              let before = (Pipeline.plan !session).Sdnprobe.Plan.probes in
              let t0 = Sdn_util.Mono.now_s () in
              let session', patch = Pipeline.apply !session batch in
              let apply_s = Sdn_util.Mono.now_s () -. t0 in
              session := session';
              let after = Pipeline.plan !session in
              let event =
                Sdnprobe.Report.patch_event_of_patch ~batch:(i + 1)
                  ~plan_size_after:(Sdnprobe.Plan.size after) ~apply_s patch
              in
              events := event :: !events;
              let certified =
                if no_certify then None
                else begin
                  let report =
                    Sdnprobe.Certify.run_patch ~seed ~event ~before ~patch after
                  in
                  let ok = Sdnprobe.Certify.ok_report report in
                  if not ok then all_ok := false;
                  Some ok
                end
              in
              if json then
                print_endline
                  (Sdn_util.Json.to_string
                     (Sdn_util.Json.Obj
                        ([
                           ("batch", Sdn_util.Json.Int (i + 1));
                           ("ops", Sdn_util.Json.Int (List.length batch));
                           ("apply_s", Sdn_util.Json.Float apply_s);
                           ("plan_size", Sdn_util.Json.Int (Sdnprobe.Plan.size after));
                           ("patch", Sdnprobe.Plan.patch_to_json patch);
                         ]
                        @
                        match certified with
                        | None -> []
                        | Some ok -> [ ("certified", Sdn_util.Json.Bool ok) ])))
              else begin
                Format.printf
                  "batch %d: %d op(s) → +%d −%d ~%d probes (plan %d, %.3fs)%s@."
                  (i + 1) (List.length batch)
                  (List.length patch.Sdnprobe.Plan.added)
                  (List.length patch.Sdnprobe.Plan.removed)
                  (List.length patch.Sdnprobe.Plan.rewritten)
                  (Sdnprobe.Plan.size after) apply_s
                  (match certified with
                  | None -> ""
                  | Some true -> " [certified]"
                  | Some false -> " [CERTIFICATION FAILED]")
              end)
            batches;
          let events = List.rev !events in
          if json then
            print_endline
              (Sdn_util.Json.to_string
                 (Sdn_util.Json.Obj
                    [
                      ("schema_version", Sdn_util.Json.Int Sdnprobe.Report.schema_version);
                      ("batches", Sdn_util.Json.Int (List.length batches));
                      ( "plan_size",
                        Sdn_util.Json.Int (Sdnprobe.Plan.size (Pipeline.plan !session)) );
                      ("certified", Sdn_util.Json.Bool (!all_ok && not no_certify));
                      ( "patch_events",
                        Sdn_util.Json.List
                          (List.map Sdnprobe.Report.patch_event_to_json events) );
                    ]))
          else
            Format.printf "watch: done, %d probes after %d batch(es)%s@."
              (Sdnprobe.Plan.size (Pipeline.plan !session))
              (List.length batches)
              (if no_certify then ""
               else if !all_ok then ", every patch certified"
               else ", CERTIFICATION FAILURES above");
          if !all_ok then `Ok () else exit 1
        with
        | Pipeline.Edit_error msg -> `Error (false, "edit stream: " ^ msg)
        | Rulegraph.Rule_graph.Cyclic_policy loop ->
            `Error
              ( false,
                Format.asprintf
                  "edit stream introduces a forwarding loop through entries %a"
                  Fmt.(list ~sep:comma int)
                  loop ))
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Long-running incremental planning: keep a session open, consume a \
          rule-update stream batch by batch, and answer each batch with a \
          plan patch plus a re-verification of the patched plan")
    Term.(
      ret
        (const run $ switches_term $ seed_term $ load_term $ edits_file $ json
       $ no_certify))

(* ------------------------------------------------------------------ *)
(* edits: deterministic churn-stream generator (CI and bench food) *)

let edits_cmd =
  let batches =
    Arg.(value & opt int 3 & info [ "batches" ] ~docv:"B" ~doc:"Number of batches.")
  in
  let ops =
    Arg.(
      value & opt int 4
      & info [ "ops" ] ~docv:"K"
          ~doc:"Edit operations per batch (a remove and a matching reinstall \
                count as two).")
  in
  let run switches seed load batches ops =
    let net = resolve_network ~switches ~seed load in
    (* Remove-then-reinstall churn, mirrored from verify --edits K: the
       stream is generated against a private copy of the network so
       entry ids stay in lockstep with any consumer that builds the
       same policy (same --switches/--seed/--load) and applies the
       stream — fresh ids are assigned by the same deterministic
       counter on both sides. *)
    let rng = Sdn_util.Prng.create (seed + 7919) in
    let buf = Buffer.create 1024 in
    for _ = 1 to batches do
      for _ = 1 to ops / 2 do
        let entries = Openflow.Network.all_entries net in
        let victim =
          List.nth entries (Sdn_util.Prng.int rng (List.length entries))
        in
        let open Openflow.Flow_entry in
        Buffer.add_string buf
          (Sdn_util.Edits.op_to_line (Sdn_util.Edits.Remove victim.id));
        Buffer.add_char buf '\n';
        let add =
          {
            Sdn_util.Edits.switch = victim.switch;
            table = victim.table;
            priority = victim.priority;
            match_ = Hspace.Cube.to_string victim.match_;
            set_field = Some (Hspace.Cube.to_string victim.set_field);
            action =
              (match victim.action with
              | Drop -> Sdn_util.Edits.Drop
              | Output p -> Sdn_util.Edits.Output p
              | Goto_table t -> Sdn_util.Edits.Goto_table t);
          }
        in
        Buffer.add_string buf (Sdn_util.Edits.op_to_line (Sdn_util.Edits.Add add));
        Buffer.add_char buf '\n';
        (* Keep the private copy in sync so later batches pick live ids. *)
        Openflow.Network.remove_entry net victim.id;
        ignore
          (Openflow.Network.add_entry net ~switch:victim.switch
             ~table:victim.table ~priority:victim.priority ~match_:victim.match_
             ~set_field:victim.set_field victim.action)
      done;
      Buffer.add_string buf "commit\n"
    done;
    print_string (Buffer.contents buf)
  in
  Cmd.v
    (Cmd.info "edits"
       ~doc:
         "Emit a deterministic synthetic rule-update stream (remove + \
          reinstall churn) for the same policy the other subcommands build \
          from --switches/--seed — pipe it into $(b,watch) or $(b,plan \
          --delta)")
    Term.(const run $ switches_term $ seed_term $ load_term $ batches $ ops)

(* ------------------------------------------------------------------ *)
(* detect *)

let detect_cmd =
  let scheme =
    let scheme_conv =
      Arg.enum
        [
          ("sdnprobe", Experiments.Schemes.Sdnprobe);
          ("rand-sdnprobe", Experiments.Schemes.Randomized_sdnprobe);
          ("atpg", Experiments.Schemes.Atpg);
          ("per-rule", Experiments.Schemes.Per_rule);
        ]
    in
    Arg.(
      value
      & opt scheme_conv Experiments.Schemes.Sdnprobe
      & info [ "scheme" ] ~docv:"SCHEME" ~doc:"Detection scheme.")
  in
  let fraction =
    Arg.(
      value & opt float 0.02
      & info [ "faulty" ] ~docv:"FRACTION" ~doc:"Fraction of faulty flow entries.")
  in
  let rounds =
    Arg.(
      value & opt int 150
      & info [ "rounds" ] ~docv:"N"
          ~doc:
            "Localization round budget. Dense fault populations (many faulty \
             switches per probe path) can need more than the default to \
             isolate every fault.")
  in
  let kind =
    let kind_conv =
      Arg.enum
        [
          ("basic", Experiments.Workloads.Basic);
          ("drop", Experiments.Workloads.Drop_only);
          ("detour", Experiments.Workloads.Detour);
        ]
    in
    Arg.(
      value
      & opt kind_conv Experiments.Workloads.Basic
      & info [ "kind" ] ~docv:"KIND" ~doc:"Fault kind: basic, drop, or detour.")
  in
  let loss =
    Arg.(
      value & opt float 0.
      & info [ "loss" ] ~docv:"RATE"
          ~doc:"Impairment: per-link per-packet loss probability (e.g. 0.02).")
  in
  let jitter =
    Arg.(
      value & opt int 0
      & info [ "jitter" ] ~docv:"US"
          ~doc:"Impairment: max per-switch delay jitter in microseconds.")
  in
  let flap =
    Arg.(
      value & opt (some float) None
      & info [ "flap" ] ~docv:"RATIO"
          ~doc:"Impairment: probability a link is down in a 200ms window.")
  in
  let churn =
    Arg.(
      value & opt (some float) None
      & info [ "churn" ] ~docv:"RATIO"
          ~doc:
            "Impairment: probability a flow entry is mid-reconfiguration \
             (blackholing) in a 250ms window.")
  in
  let resilient =
    Arg.(
      value & flag
      & info [ "resilient" ]
          ~doc:
            "Use the loss-tolerant detection profile (bounded retransmission \
             with backoff, suspicion decay) instead of the loss-naive default. \
             Recommended whenever impairments are enabled.")
  in
  let backend =
    let backend_conv =
      Arg.enum
        [ ("emulator", Sdnprobe.Config.Emulator); ("wire", Sdnprobe.Config.Wire) ]
    in
    Arg.(
      value
      & opt backend_conv Sdnprobe.Config.Emulator
      & info [ "backend" ] ~docv:"BACKEND"
          ~doc:
            "Probe delivery backend: $(b,emulator) runs in-process over virtual \
             time (deterministic); $(b,wire) runs every switch as a UDP endpoint \
             on localhost and sends probes as real datagrams through the OS \
             network stack (real time; sdnprobe schemes only).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the detection report as one versioned JSON object.")
  in
  let run switches seed scheme fraction kind load loss jitter flap churn resilient
      backend json shards shard_target rounds =
    if
      backend = Sdnprobe.Config.Wire
      && (scheme = Experiments.Schemes.Atpg || scheme = Experiments.Schemes.Per_rule)
    then
      `Error
        ( false,
          Printf.sprintf
            "the %s baseline drives the emulator directly and cannot run on \
             --backend wire"
            (Experiments.Schemes.name scheme) )
    else if shards && scheme <> Experiments.Schemes.Sdnprobe then
      `Error
        ( false,
          "--shards replans the static sdnprobe scheme; drop --scheme or use \
           --scheme sdnprobe" )
    else if shards && backend = Sdnprobe.Config.Wire then
      `Error (false, "--shards runs on the in-process emulator backend only")
    else begin
    let net = resolve_network ~switches ~seed load in
    let emulator = Dataplane.Emulator.create net in
    let truth =
      Experiments.Workloads.inject (Sdn_util.Prng.create (seed + 1)) ~kind ~fraction
        emulator
    in
    (if loss > 0. || jitter > 0 || flap <> None || churn <> None then
       let spec =
         Dataplane.Impairment.spec ~seed:(seed + 2) ~loss_rate:loss
           ~jitter_max_us:jitter
           ?flaps:
             (Option.map
                (fun down_ratio ->
                  { Dataplane.Impairment.flap_window_us = 200_000; down_ratio })
                flap)
           ?churn:
             (Option.map
                (fun out_ratio ->
                  { Dataplane.Impairment.churn_window_us = 250_000; out_ratio })
                churn)
           ()
       in
       Dataplane.Emulator.set_impairment emulator (Dataplane.Impairment.create spec));
    if not json then begin
      Format.printf "%a@." Openflow.Network.pp_summary net;
      Format.printf "injected faults on switches: %a@."
        Fmt.(list ~sep:comma int)
        truth
    end;
    let config =
      if resilient then Sdnprobe.Config.(with_max_rounds rounds resilient)
      else Sdnprobe.Config.make ~max_rounds:rounds ()
    in
    let config = Sdnprobe.Config.with_backend backend config in
    let stop = Sdnprobe.Runner.stop_when_flagged truth in
    let report, shard_stats =
      if not shards then
        (Experiments.Schemes.run scheme ~seed ~stop ~config emulator, None)
      else begin
        (* Sharded plan + hierarchical localization: region-border
           slicing first, ordinary bisection within the guilty region. *)
        let splan =
          Shard.Splan.create ?pool:(env_pool ()) ?target:shard_target net
        in
        let backend = Sdnprobe.Backend.of_emulator emulator in
        let report =
          Sdnprobe.Runner.execute_probes ~stop ~name:"sharded-sdnprobe"
            ~region_of:(Shard.Splan.region_of splan) ~config ~backend
            ~generation_s:splan.Shard.Splan.generation_s
            splan.Shard.Splan.probes
        in
        (report, Some (Shard.Splan.stats_to_json splan))
      end
    in
    if json then begin
      (* One object: the versioned report plus the injected ground
         truth (the exactness oracle for CI's scale-smoke job) and,
         when sharded, a "shard" section. Report.of_json ignores
         unknown fields. *)
      let extra =
        ("truth", Sdn_util.Json.List (List.map (fun s -> Sdn_util.Json.Int s) truth))
        :: (match shard_stats with Some stats -> [ ("shard", stats) ] | None -> [])
      in
      print_endline
        (match Sdn_util.Json.of_string (Sdnprobe.Report.to_json report) with
        | Ok (Sdn_util.Json.Obj fields) ->
            Sdn_util.Json.to_string (Sdn_util.Json.Obj (fields @ extra))
        | _ -> Sdnprobe.Report.to_json report)
    end
    else begin
      Format.printf "%a@." Sdnprobe.Report.pp report;
      (match shard_stats with
      | Some stats -> Format.printf "shard: %s@." (Sdn_util.Json.to_string stats)
      | None -> ());
      let confusion =
        Metrics.Confusion.compute ~ground_truth:truth
          ~flagged:(Sdnprobe.Report.flagged_switches report)
          ~population:(Experiments.Workloads.population net)
      in
      Format.printf "accuracy: %a@." Metrics.Confusion.pp confusion
    end;
    `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "detect"
       ~doc:
         "Inject faults (and optional environment impairments) and run fault \
          localization")
    Term.(
      ret
        (const run $ switches_term $ seed_term $ scheme $ fraction $ kind
       $ load_term $ loss $ jitter $ flap $ churn $ resilient $ backend $ json
       $ shards_term $ shard_target_term $ rounds))

(* ------------------------------------------------------------------ *)
(* lint *)

let lint_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as one JSON object.")
  in
  let fail_on =
    let fail_conv =
      Arg.enum
        [
          ("error", Lint.Engine.Fail_error);
          ("warning", Lint.Engine.Fail_warning);
          ("never", Lint.Engine.Fail_never);
        ]
    in
    Arg.(
      value
      & opt fail_conv Lint.Engine.Fail_error
      & info [ "fail-on" ] ~docv:"SEVERITY"
          ~doc:
            "Exit non-zero when a diagnostic of this severity (or worse) is \
             present: $(b,error) (default), $(b,warning), or $(b,never).")
  in
  let passes =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "passes" ] ~docv:"IDS"
          ~doc:
            "Comma-separated check ids (or $(b,Lnnn) prefixes) to run instead \
             of the full registry.")
  in
  let no_coverage =
    Arg.(
      value & flag
      & info [ "no-coverage" ]
          ~doc:
            "Skip the L009 probe-plan coverage audit (avoids building the rule \
             graph and solving the path cover).")
  in
  let campus =
    Arg.(value & flag & info [ "campus" ] ~doc:"Lint the synthetic campus dataset.")
  in
  (* The coverage audit needs a probe plan: the minimum legal path cover
     is enough (header synthesis is irrelevant to which entries a probe
     traverses). A cyclic policy has no rule graph — L001 reports the
     loop and coverage is skipped. *)
  let plan_probes net =
    match Rulegraph.Rule_graph.build net with
    | exception Rulegraph.Rule_graph.Cyclic_policy _ -> None
    | rg ->
        let cover = Mlpc.Legal_matching.solve rg in
        Some
          (List.map
             (fun (p : Mlpc.Cover.path) ->
               List.map
                 (fun v ->
                   (Rulegraph.Rule_graph.vertex_entry rg v).Openflow.Flow_entry.id)
                 p.Mlpc.Cover.rules)
             cover.Mlpc.Cover.paths)
  in
  let run switches seed campus load json fail_on passes no_coverage =
    let net =
      if campus then Topogen.Campus.synthesize (Sdn_util.Prng.create seed)
      else resolve_network ~switches ~seed load
    in
    let probes = if no_coverage then None else plan_probes net in
    match Lint.Engine.run ?only:passes ?probes net with
    | exception Lint.Engine.Unknown_pass key ->
        `Error
          ( false,
            Printf.sprintf "unknown lint pass %S; valid ids: %s" key
              (String.concat ", "
                 (List.map (fun (p : Lint.Passes.t) -> p.Lint.Passes.id)
                    Lint.Passes.all)) )
    | report ->
        if json then print_endline (Lint.Engine.to_json report)
        else begin
          Format.printf "%a@." Openflow.Network.pp_summary net;
          Format.printf "%a" Lint.Engine.pp_text report
        end;
        exit (Lint.Engine.exit_code ~fail_on report)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static-analysis passes (loops, blackholes, shadowing, \
          ambiguity, dead configuration, redundancy, probe coverage) over a \
          policy")
    Term.(
      ret
        (const run $ switches_term $ seed_term $ campus $ load_term $ json
       $ fail_on $ passes $ no_coverage))

(* ------------------------------------------------------------------ *)
(* analyze — sdncheck, the determinism & domain-safety analyzer over
   the repository's own sources (docs/ANALYSIS.md). *)

let analyze_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as one JSON object.")
  in
  let fail_on =
    let fail_conv =
      Arg.enum
        [
          ("error", Sdn_analysis.Engine.Fail_error);
          ("warning", Sdn_analysis.Engine.Fail_warning);
          ("never", Sdn_analysis.Engine.Fail_never);
        ]
    in
    Arg.(
      value
      & opt fail_conv Sdn_analysis.Engine.Fail_warning
      & info [ "fail-on" ] ~docv:"SEVERITY"
          ~doc:
            "Exit non-zero when a diagnostic of this severity (or worse) is \
             present: $(b,warning) (default — any unsuppressed finding gates), \
             $(b,error), or $(b,never).")
  in
  let rules =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "rules" ] ~docv:"IDS"
          ~doc:
            "Comma-separated rule ids (e.g. $(b,D001,D005)) to run instead of \
             the full catalogue.")
  in
  let root =
    Arg.(
      value
      & opt (some string) None
      & info [ "root" ] ~docv:"DIR"
          ~doc:
            "Repository root to scan. Defaults to walking up from the current \
             directory until the tree looks like this repository.")
  in
  let run json fail_on rules root =
    let root =
      match root with
      | Some r -> if Sdn_analysis.Engine.looks_like_root r then Some r else None
      | None -> Sdn_analysis.Engine.find_root ()
    in
    match root with
    | None ->
        `Error
          ( false,
            "cannot locate the repository root (lib/util/misc.ml not found); \
             pass --root" )
    | Some root -> (
        let selected =
          match rules with
          | None -> Ok Sdn_analysis.Rules.all
          | Some ids -> (
              let missing =
                List.filter
                  (fun id -> Sdn_analysis.Rules.find id = None)
                  ids
              in
              match missing with
              | [] ->
                  Ok
                    (List.filter_map Sdn_analysis.Rules.find ids)
              | ms ->
                  Error
                    (Printf.sprintf "unknown rule id%s: %s; valid ids: %s"
                       (if List.length ms = 1 then "" else "s")
                       (String.concat ", " ms)
                       (String.concat ", "
                          (List.map
                             (fun (r : Sdn_analysis.Rules.rule) -> r.Sdn_analysis.Rules.id)
                             Sdn_analysis.Rules.all))))
        in
        match selected with
        | Error msg -> `Error (false, msg)
        | Ok rules ->
            let report = Sdn_analysis.Engine.run ~rules ~root () in
            if json then
              print_endline (Sdn_util.Json.to_string (Sdn_analysis.Engine.to_json report))
            else Format.printf "%a" Sdn_analysis.Engine.pp_text report;
            exit (Sdn_analysis.Engine.exit_code ~fail_on report))
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run sdncheck, the determinism & domain-safety static analyzer, over \
          this repository's own sources (rules D001-D006; suppressions are \
          in-source comments with a mandatory reason)")
    Term.(ret (const run $ json $ fail_on $ rules $ root))

(* ------------------------------------------------------------------ *)
(* certify *)

let certify_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the certificate report as one versioned JSON object.")
  in
  let campus =
    Arg.(value & flag & info [ "campus" ] ~doc:"Certify the synthetic campus dataset.")
  in
  let randomized =
    Arg.(
      value & flag
      & info [ "randomized" ]
          ~doc:
            "Certify a Randomized-SDNProbe plan (the SAT section is skipped: \
             randomized plans draw headers uniformly).")
  in
  let yen_pairs =
    Arg.(
      value & opt int 8
      & info [ "yen-pairs" ] ~docv:"N"
          ~doc:"Sampled (src, dst) pairs for the Yen re-check section.")
  in
  let run switches seed campus randomized load json yen_pairs =
    let net =
      if campus then Topogen.Campus.synthesize (Sdn_util.Prng.create seed)
      else resolve_network ~switches ~seed load
    in
    match
      if randomized then
        Sdnprobe.Plan.randomized ?pool:(env_pool ()) (Sdn_util.Prng.create seed) net
      else Pipeline.plan (Pipeline.create ?pool:(env_pool ()) net)
    with
    | exception Rulegraph.Rule_graph.Cyclic_policy loop ->
        `Error
          ( false,
            Format.asprintf
              "policy has a forwarding loop through entries %a; nothing to \
               certify (run the lint subcommand for the full diagnostic)"
              Fmt.(list ~sep:comma int)
              loop )
    | plan ->
        let report = Sdnprobe.Certify.run ~yen_pairs ~seed plan in
        if json then
          print_endline (Sdn_util.Json.to_string (Sdnprobe.Certify.to_json report))
        else begin
          Format.printf "%a@." Openflow.Network.pp_summary net;
          Format.printf "probes: %d@." (Sdnprobe.Plan.size plan);
          Format.printf "%a" Sdnprobe.Certify.pp report
        end;
        if Sdnprobe.Certify.ok_report report then `Ok () else exit 1
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Generate a probe plan and validate it end to end with independent \
          checkers: SAT answers against their clauses and DRUP proofs, the \
          MLPC matching against a König vertex-cover certificate (Theorem-1 \
          minimality), every probe path replayed cache-free through the real \
          lookup semantics, and sampled Yen queries re-checked against \
          Bellman-Ford")
    Term.(
      ret
        (const run $ switches_term $ seed_term $ campus $ randomized $ load_term
       $ json $ yen_pairs))

(* ------------------------------------------------------------------ *)
(* verify *)

let verify_cmd =
  let campus =
    Arg.(value & flag & info [ "campus" ] ~doc:"Check the synthetic campus dataset.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the report as one JSON object. Deterministic (work counters, \
             no clocks) unless $(b,--timings) is also given.")
  in
  let timings =
    Arg.(
      value & flag
      & info [ "timings" ] ~doc:"Include wall-clock phase timings in the output.")
  in
  let fail_on =
    let fail_conv =
      Arg.enum
        [
          ("error", Verify.Report.Fail_error);
          ("warning", Verify.Report.Fail_warning);
          ("never", Verify.Report.Fail_never);
        ]
    in
    Arg.(
      value
      & opt fail_conv Verify.Report.Fail_error
      & info [ "fail-on" ] ~docv:"SEVERITY"
          ~doc:
            "Exit non-zero when a violation of this severity (or worse) is \
             present: $(b,error) (default), $(b,warning), or $(b,never).")
  in
  let invariants =
    Arg.(
      value
      & opt_all string []
      & info [ "invariant"; "i" ] ~docv:"INV"
          ~doc:
            "An invariant to check (repeatable): $(b,reach A B), \
             $(b,isolated A B), $(b,loop-free), $(b,no-blackhole) or \
             $(b,waypoint A W B). Default: loop-free and no-blackhole.")
  in
  let spec =
    Arg.(
      value
      & opt (some file) None
      & info [ "spec" ] ~docv:"FILE"
          ~doc:
            "Read invariants from a spec file (one per line, $(b,#) comments); \
             combined with $(b,--invariant).")
  in
  let edits =
    Arg.(
      value
      & opt (some string) None
      & info [ "edits" ] ~docv:"K|FILE"
          ~doc:
            "After the initial check, churn the policy and re-verify \
             incrementally. An integer $(docv) applies that many random \
             single-rule edits (remove one entry, reinstall it) — the delta \
             worklist path the bench suite measures. Anything else is read as \
             an edit-stream file ($(b,-) = stdin, same format as $(b,plan \
             --delta) and $(b,watch)), re-verified once per batch.")
  in
  let run switches seed campus load invs spec json timings fail_on edits =
    let net =
      if campus then Topogen.Campus.synthesize (Sdn_util.Prng.create seed)
      else resolve_network ~switches ~seed load
    in
    let parsed =
      let from_flags =
        List.fold_left
          (fun acc s ->
            Result.bind acc (fun acc ->
                Result.map (fun i -> i :: acc) (Verify.Invariant.of_string s)))
          (Ok []) invs
        |> Result.map List.rev
      in
      let from_spec =
        match spec with
        | None -> Ok []
        | Some path -> (
            let ic = open_in_bin path in
            let text = really_input_string ic (in_channel_length ic) in
            close_in ic;
            match Verify.Invariant.parse_spec text with
            | Ok invs -> Ok invs
            | Error msg -> Error (path ^ ": " ^ msg))
      in
      Result.bind from_flags (fun a -> Result.map (fun b -> a @ b) from_spec)
    in
    match parsed with
    | Error msg -> `Error (false, msg)
    | Ok parsed -> (
        let invariants =
          if parsed = [] then Verify.Engine.default_invariants else parsed
        in
        let bad =
          List.filter_map
            (fun inv ->
              match
                Verify.Invariant.validate
                  ~n_switches:(Openflow.Network.n_switches net) inv
              with
              | Ok () -> None
              | Error msg -> Some msg)
            invariants
        in
        match bad with
        | msg :: _ -> `Error (false, msg)
        | [] ->
            let engine = Verify.Engine.create net in
            let report = ref (Verify.Engine.check engine invariants) in
            let churn_desc = ref None in
            let churn =
              match edits with
              | None -> Ok ()
              | Some spec -> (
                  match int_of_string_opt spec with
                  | Some k when k <= 0 -> Ok ()
                  | Some k ->
                      (* Deterministic churn: remove a random entry,
                         reinstall it (fresh id, same semantics),
                         re-propagating after each mutation — two delta
                         updates per edit. *)
                      let rng = Sdn_util.Prng.create (seed + 7919) in
                      for _ = 1 to k do
                        let entries = Openflow.Network.all_entries net in
                        let victim =
                          List.nth entries
                            (Sdn_util.Prng.int rng (List.length entries))
                        in
                        let open Openflow.Flow_entry in
                        Openflow.Network.remove_entry net victim.id;
                        Verify.Engine.update engine
                          ~changed_tables:[ (victim.switch, victim.table) ];
                        ignore
                          (Openflow.Network.add_entry net ~switch:victim.switch
                             ~table:victim.table ~priority:victim.priority
                             ~match_:victim.match_ ~set_field:victim.set_field
                             victim.action);
                        Verify.Engine.update engine
                          ~changed_tables:[ (victim.switch, victim.table) ]
                      done;
                      churn_desc :=
                        Some
                          (Printf.sprintf "%d edit%s" k
                             (if k = 1 then "" else "s"));
                      report := Verify.Engine.check engine invariants;
                      Ok ()
                  | None -> (
                      (* A file: the shared edit-stream format, applied
                         through the same network mutations the planning
                         pipeline uses, one engine update per batch. *)
                      match read_edit_batches spec with
                      | Error msg -> Error msg
                      | Ok batches -> (
                          try
                            List.iter
                              (fun batch ->
                                let tables =
                                  List.map (Pipeline.apply_op net) batch
                                in
                                Verify.Engine.update engine
                                  ~changed_tables:tables)
                              batches;
                            churn_desc :=
                              Some
                                (Printf.sprintf "%d edit batch%s"
                                   (List.length batches)
                                   (if List.length batches = 1 then ""
                                    else "es"));
                            report := Verify.Engine.check engine invariants;
                            Ok ()
                          with Pipeline.Edit_error msg ->
                            Error ("edit stream: " ^ msg))))
            in
            match churn with
            | Error msg -> `Error (false, msg)
            | Ok () ->
                let report = !report in
                if json then print_endline (Verify.Report.to_json ~timings report)
                else begin
                  Format.printf "%a@." Openflow.Network.pp_summary net;
                  (match !churn_desc with
                  | Some desc ->
                      Format.printf "re-verified incrementally after %s@." desc
                  | None -> ());
                  Format.printf "%a" Verify.Report.pp_text report;
                  if timings then
                    List.iter
                      (fun (phase, s) -> Format.printf "# %-12s %.6fs@." phase s)
                      report.Verify.Report.timings
                end;
                exit (Verify.Report.exit_code ~fail_on report))
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Check declarative invariants (reachability, isolation, loop freedom, \
          blackholes, waypoints) symbolically against the plumbing graph; every \
          violation carries a replay-certified counterexample")
    Term.(
      ret
        (const run $ switches_term $ seed_term $ campus $ load_term $ invariants
       $ spec $ json $ timings $ fail_on $ edits))

let () =
  let doc = "SDNProbe: lightweight SDN fault localization (ICDCS'18 reproduction)" in
  let info = Cmd.info "sdnprobe" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            experiment_cmd;
            plan_cmd;
            watch_cmd;
            edits_cmd;
            detect_cmd;
            lint_cmd;
            analyze_cmd;
            certify_cmd;
            verify_cmd;
          ]))
