(** The detection loop (Algorithm 2) against the data-plane emulator,
    hardened for error-prone environments.

    Each round: install return traps for the active probes, serialize
    them at the configured controller rate (advancing the virtual
    clock), inject, and classify. A probe passes only if its trap
    captured it {e and} the echo arrived within the per-probe timeout
    ([Config.probe_timeout_us], derived from path length); otherwise
    the controller waits out the timeout, backs off exponentially
    ([Config.backoff_us]), and retransmits, up to [Config.max_retries]
    times, before classifying the probe as failed. A failed probe bumps
    the suspicion of every rule on its path and is sliced in two; a
    failed single-rule probe whose suspicion exceeds the threshold
    flags its switch. A passing probe decays the suspicion of its rules
    by [Config.suspicion_decay], so transient environment noise drains
    back out instead of accumulating into false positives. When a round
    produces no follow-up work, a new detection cycle starts from the
    full plan — re-drawn for Randomized SDNProbe.

    With [Config.max_retries = 0] and [Config.suspicion_decay = 0]
    (the {!Config.default}) the engine is behaviourally identical to
    the original loss-naive loop: one send per probe, no timeout waits
    on the clock, no decay. {!Config.resilient} turns the machinery
    on. See [docs/RUNNER.md] for the full state machine. *)

type stop = detections:Report.detection list -> round:int -> time_s:float -> bool
(** Return true to end the run (evaluated between rounds). *)

val stop_never : stop

val stop_when_flagged : int list -> stop
(** Stop once all the given switches are flagged. *)

val stop_after_s : float -> stop

val stop_any : stop list -> stop

(** {2 Entry points}

    One engine behind three entry points, one per kind of caller:
    {!execute} for a {!Plan.t} on the in-process emulator, {!execute_on}
    for a {!Plan.t} on any {!Backend.t} (the wire backend), and
    {!execute_probes} for a raw probe list (sharded plans). *)

val execute :
  ?stop:stop ->
  ?name:string ->
  config:Config.t ->
  emulator:Dataplane.Emulator.t ->
  Plan.t ->
  Report.t
(** Run the detection loop over a {!Plan.t} against the in-process
    emulator ({!Backend.of_emulator}). The plan's {!Plan.mode} carries
    the redraw capability — a [Plan.Randomized] plan re-draws fresh
    paths (over its kept rule graph) at every detection-cycle boundary,
    a [Plan.Static] plan reuses its probes. [name] overrides the
    report's scheme label (default ["sdnprobe"] /
    ["randomized-sdnprobe"] by mode). The emulator's faults are the
    ground truth being hunted; its clock is advanced by this function
    and left at the end-of-run time. *)

val execute_on :
  ?stop:stop ->
  ?name:string ->
  config:Config.t ->
  backend:Backend.t ->
  Plan.t ->
  Report.t
(** {!execute} over an explicit probe-delivery backend — notably the
    wire backend, where probes are real UDP datagrams (see
    [docs/WIRE.md]). The caller owns the backend's lifetime
    ([Backend.close] is not called here). *)

val execute_probes :
  ?stop:stop ->
  ?name:string ->
  ?region_of:(int -> int) ->
  config:Config.t ->
  backend:Backend.t ->
  generation_s:float ->
  Probe.t list ->
  Report.t
(** The detection engine over a raw probe list — the entry point for
    sharded plans ([Shard.Splan.t] carries probes, not a {!Plan.t}).
    [region_of] (e.g. [Shard.Splan.region_of]) enables hierarchical
    localization: failed cross-region probes are first bisected at
    region borders ({!Probe.slice}), so suspicion converges on the
    guilty region before within-region slicing takes over. Without
    [region_of], behaviour matches {!execute_on} on a static plan. *)
