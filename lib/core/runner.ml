module Clock = Dataplane.Clock
module FE = Openflow.Flow_entry
module Network = Openflow.Network

type stop = detections:Report.detection list -> round:int -> time_s:float -> bool

let stop_never ~detections:_ ~round:_ ~time_s:_ = false

let stop_when_flagged switches ~detections ~round:_ ~time_s:_ =
  let flagged = List.map (fun (d : Report.detection) -> d.switch) detections in
  List.for_all (fun sw -> List.mem sw flagged) switches

let stop_after_s limit ~detections:_ ~round:_ ~time_s = time_s >= limit

let stop_any stops ~detections ~round ~time_s =
  List.exists (fun s -> s ~detections ~round ~time_s) stops

(* Mutable per-round accounting, flushed into a Report.round_stat. *)
type round_counters = {
  mutable sent : int;
  mutable retries : int;
  mutable lost_attempts : int;
  mutable failed_probes : int;
}

(* Send one probe with bounded retransmission: send -> (no echo within
   timeout) -> wait out the timeout, back off exponentially, resend —
   up to [max_retries] times before the probe is classified failed.
   With [max_retries = 0] this is exactly the seed detection loop's
   single send (no timeout accounting touches the clock). Virtual-time
   backends model the waits by advancing the clock; real-time backends
   actually waited inside [attempt], so the clock is left alone. *)
let send_probe ~config ~(backend : Backend.t) ~clock ~per_packet_us ~packets_sent
    ~counters (p : Probe.t) =
  let virtual_wait us = if not backend.Backend.real_time then Clock.advance_us clock us in
  let rec attempt n =
    virtual_wait per_packet_us;
    incr packets_sent;
    counters.sent <- counters.sent + 1;
    if backend.Backend.attempt ~config p then true
    else begin
      counters.lost_attempts <- counters.lost_attempts + 1;
      if n < config.Config.max_retries then begin
        virtual_wait (Config.probe_timeout_us config ~hops:(Probe.hop_count p));
        virtual_wait (Config.backoff_us config ~attempt:(n + 1));
        counters.retries <- counters.retries + 1;
        attempt (n + 1)
      end
      else false
    end
  in
  attempt 0

(* Batched round send for backends with real I/O: fire every pending
   probe as one batch (the backend overlaps the sends and the timeout
   waits), then re-batch only the failures, up to [max_retries]
   retransmission sweeps. Same classification and accounting as the
   serial path — just a different schedule. *)
let send_round_batched ~config ~send_batch ~packets_sent ~counters probes =
  let arr = Array.of_list probes in
  let n = Array.length arr in
  let passed = Array.make n false in
  let pending = ref (List.init n Fun.id) in
  let sweep = ref 0 in
  let continue = ref (n > 0) in
  while !continue do
    let idxs = !pending in
    let batch = List.map (fun i -> arr.(i)) idxs in
    let verdicts = send_batch ~config batch in
    let k = List.length idxs in
    packets_sent := !packets_sent + k;
    counters.sent <- counters.sent + k;
    let failures = ref [] in
    List.iteri
      (fun j i ->
        if verdicts.(j) then passed.(i) <- true
        else begin
          counters.lost_attempts <- counters.lost_attempts + 1;
          failures := i :: !failures
        end)
      idxs;
    let failures = List.rev !failures in
    if failures <> [] && !sweep < config.Config.max_retries then begin
      counters.retries <- counters.retries + List.length failures;
      incr sweep;
      pending := failures
    end
    else continue := false
  done;
  Array.to_list (Array.mapi (fun i p -> (p, passed.(i))) arr)

let engine ?(stop = stop_never) ?redraw ?region_of ?(name = "sdnprobe") ~config
    ~(backend : Backend.t) ~generation_s probes =
  let clock = backend.Backend.clock in
  let start_s = Clock.now_seconds clock in
  let net = backend.Backend.network in
  let virtual_wait us = if not backend.Backend.real_time then Clock.advance_us clock us in
  let suspicion = Suspicion.create ~threshold:config.Config.threshold in
  let next_id =
    ref (1 + List.fold_left (fun acc (p : Probe.t) -> max acc p.id) 0 probes)
  in
  let fresh_id () =
    let id = !next_id in
    incr next_id;
    id
  in
  let packets_sent = ref 0 in
  let retransmissions = ref 0 in
  let round_stats = ref [] in
  let round = ref 0 in
  let cycle = ref 0 in
  let active = ref probes in
  let finished = ref false in
  let per_packet_us = Config.serialization_us config ~packets:1 in
  while (not !finished) && !round < config.Config.max_rounds do
    incr round;
    let probes_this_round = !active in
    let counters = { sent = 0; retries = 0; lost_attempts = 0; failed_probes = 0 } in
    backend.Backend.install_traps probes_this_round;
    (* Send at the controller rate, in plan order; each probe sees the
       clock at its own send instant (intermittent faults depend on
       it). Backends with real I/O supply [send_batch] instead and
       overlap the waits on the wire. *)
    let results =
      match backend.Backend.send_batch with
      | Some send_batch ->
          send_round_batched ~config ~send_batch ~packets_sent ~counters
            probes_this_round
      | None ->
          List.map
            (fun p ->
              ( p,
                send_probe ~config ~backend ~clock ~per_packet_us ~packets_sent
                  ~counters p ))
            probes_this_round
    in
    (* Flight time of the slowest probe, plus controller processing. *)
    let max_hops =
      List.fold_left (fun acc (p : Probe.t) -> max acc (Probe.hop_count p)) 0
        probes_this_round
    in
    virtual_wait (max_hops * config.Config.per_hop_latency_us);
    virtual_wait config.Config.per_round_overhead_us;
    backend.Backend.remove_traps probes_this_round;
    let now_s = Clock.now_seconds clock in
    (* Algorithm 2 lines 5-14, extended with suspicion decay: a path
       that passes (re-)testing drains the suspicion its rules may have
       accumulated from transient environment noise. *)
    let follow_up = ref [] in
    List.iter
      (fun ((p : Probe.t), passed) ->
        if passed then begin
          if config.Config.suspicion_decay > 0 then
            List.iter
              (fun rule ->
                Suspicion.decay_rule suspicion rule
                  ~amount:config.Config.suspicion_decay)
              p.rules
        end
        else begin
          counters.failed_probes <- counters.failed_probes + 1;
          List.iter (Suspicion.bump_rule suspicion) p.rules;
          if List.length p.rules > 1 then
            match Probe.slice ?region_of net ~fresh_id p with
            | Some (a, b) -> follow_up := a :: b :: !follow_up
            | None ->
                (* Uncuttable multi-rule path (goto chain): treat as a
                   unit and re-test. *)
                follow_up := p :: !follow_up
          else begin
            let rule = List.hd p.rules in
            let switch = (Network.entry net rule).FE.switch in
            if Suspicion.exceeds_threshold suspicion rule then
              Suspicion.flag suspicion ~switch ~time_s:now_s ~round:!round;
            (* An identified switch needs no further probing ("requires
               further manual inspection", §VI); retiring its probes
               lets the detection cycle restart — essential for the
               randomized variant, whose fresh paths come from cycle
               boundaries. *)
            if not (Suspicion.is_flagged suspicion switch) then
              follow_up := p :: !follow_up
          end
        end)
      results;
    (* New cycle when no suspected paths remain. *)
    (if !follow_up = [] then begin
       incr cycle;
       match redraw with
       | Some f -> active := f ~cycle:!cycle
       | None -> active := probes
     end
     else active := !follow_up);
    retransmissions := !retransmissions + counters.retries;
    round_stats :=
      {
        Report.round = !round;
        sent = counters.sent;
        retries = counters.retries;
        lost_attempts = counters.lost_attempts;
        failed_probes = counters.failed_probes;
      }
      :: !round_stats;
    let detections =
      List.map
        (fun (switch, time_s, round) -> { Report.switch; time_s; round })
        (Suspicion.detections suspicion)
    in
    if stop ~detections ~round:!round ~time_s:now_s then finished := true
  done;
  {
    Report.scheme = name;
    plan_size = List.length probes;
    generation_s;
    detections =
      List.map
        (fun (switch, time_s, round) -> { Report.switch; time_s; round })
        (Suspicion.detections suspicion);
    packets_sent = !packets_sent;
    bytes_sent = !packets_sent * config.Config.probe_size_bytes;
    rounds = !round;
    duration_s = Clock.now_seconds clock -. start_s;
    suspicion_ranking = Suspicion.rule_levels suspicion;
    retransmissions = !retransmissions;
    round_stats = List.rev !round_stats;
    patch_events = [];
  }

let execute_on ?stop ?name ~config ~(backend : Backend.t) (plan : Plan.t) =
  (* Only a redraw asks for the pool: a static plan at [domains > 1]
     must not spawn idle workers that tax every minor collection. *)
  let name, redraw =
    match (name, plan.Plan.mode) with
    | Some n, Plan.Static -> (n, None)
    | None, Plan.Static -> ("sdnprobe", None)
    | name, Plan.Randomized rng ->
        ( Option.value ~default:"randomized-sdnprobe" name,
          Some
            (fun ~cycle:_ ->
              (Plan.redraw ?pool:(Config.pool config) plan rng).Plan.probes) )
  in
  engine ?stop ?redraw ~name ~config ~backend ~generation_s:plan.Plan.generation_s
    plan.Plan.probes

let execute ?stop ?name ~config ~emulator (plan : Plan.t) =
  execute_on ?stop ?name ~config ~backend:(Backend.of_emulator emulator) plan

let execute_probes ?stop ?name ?region_of ~config ~(backend : Backend.t)
    ~generation_s probes =
  engine ?stop ?region_of ?name ~config ~backend ~generation_s probes
