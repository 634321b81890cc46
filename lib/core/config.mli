(** Detection parameters.

    Defaults follow the paper's evaluation setup: probes serialized at
    250 KB/s from the controller, detection threshold 3. Probe size,
    per-hop latency and per-round controller overhead parameterize the
    virtual-time model (the paper's testbed values are not published;
    these are typical OpenFlow figures and only scale absolute delays,
    not orderings).

    The record is {e private}: read fields directly, but build values
    with {!make} (or derive them with the [with_*] updaters) so that
    adding a knob never breaks construction sites. {!default} is
    exactly [make ()].

    The loss-tolerance knobs ([max_retries], backoff, timeouts,
    [suspicion_decay]) default to the values that reproduce the seed
    detection loop bit-for-bit: [max_retries = 0] disables the
    retransmission state machine entirely. Enable it (e.g. via
    {!resilient}) when the emulator carries an
    {!Dataplane.Impairment}. *)

type backend_kind =
  | Emulator  (** in-process data-plane emulator, virtual time *)
  | Wire
      (** emulated switches as UDP endpoints on localhost, probes as
          real datagrams, real time (lib/wire, docs/WIRE.md) *)

type t = private {
  threshold : int;
      (** suspicion level that flags a switch, dimensionless (paper: 3) *)
  send_rate_bytes_per_s : int;
      (** probe serialization rate in bytes/second (paper: 250 KB/s) *)
  probe_size_bytes : int;  (** bytes per test packet (default 100) *)
  per_hop_latency_us : int;
      (** link + switch traversal latency in microseconds per hop
          (default 500) *)
  per_round_overhead_us : int;
      (** controller round-trip + processing per detection round, in
          microseconds (default 50 ms) *)
  max_rounds : int;
      (** hard stop for the detection loop, in rounds (default 200) *)
  max_retries : int;
      (** retransmissions of a probe within a round before it is
          classified failed, count (default 0 = seed behaviour: one
          send, no timeout accounting) *)
  retry_backoff_us : int;
      (** wait before the first retransmission, in microseconds
          (default 10 ms); only meaningful when [max_retries > 0] *)
  backoff_factor : int;
      (** multiplier applied to the backoff per further retransmission
          (exponential backoff), dimensionless (default 2) *)
  timeout_base_us : int;
      (** fixed part of the per-probe echo timeout, in microseconds
          (default 20 ms) *)
  timeout_per_hop_us : int;
      (** path-length-proportional part of the per-probe timeout, in
          microseconds per hop (default 2 ms); the full timeout for a
          probe is [timeout_base_us + hops * timeout_per_hop_us] *)
  suspicion_decay : int;
      (** suspicion levels removed from every rule of a tested path
          when its probe passes a re-test, levels (default 0 = seed
          behaviour; 1 suppresses suspicion accumulated from transient
          loss) *)
  domains : int;
      (** degree of parallelism for the pooled planning stages
          (per-region sharded builds and header assignment, including
          a randomized plan's redraws), in domains (default: the
          [SDNPROBE_DOMAINS] environment variable, else 1). Probe
          rounds always run in plan order on the calling domain. Every
          stage is deterministic in the domain count — reports are
          byte-identical at any value (docs/PARALLEL.md) — so this knob
          only trades wall-clock for cores. *)
  backend : backend_kind;
      (** probe-delivery backend the detection loop runs over (default
          [Emulator]; [Wire] is real-time, so reports are no longer
          bit-for-bit reproducible) *)
}

val make :
  ?threshold:int ->
  ?send_rate_bytes_per_s:int ->
  ?probe_size_bytes:int ->
  ?per_hop_latency_us:int ->
  ?per_round_overhead_us:int ->
  ?max_rounds:int ->
  ?max_retries:int ->
  ?retry_backoff_us:int ->
  ?backoff_factor:int ->
  ?timeout_base_us:int ->
  ?timeout_per_hop_us:int ->
  ?suspicion_decay:int ->
  ?domains:int ->
  ?backend:backend_kind ->
  unit ->
  t
(** Build a configuration; every omitted knob takes the default listed
    above. Raises [Invalid_argument] on non-positive rates/sizes/
    latencies, a negative retry/decay count, or a [backoff_factor < 1]. *)

val default : t
(** [make ()]. *)

val resilient : t
(** The loss-tolerant profile used by the error-prone-environment
    experiments: [make ~max_retries:2 ~suspicion_decay:1 ()]. *)

(** {2 Updaters} — each returns a copy with one field replaced. *)

val with_threshold : int -> t -> t

val with_send_rate_bytes_per_s : int -> t -> t

val with_probe_size_bytes : int -> t -> t

val with_per_hop_latency_us : int -> t -> t

val with_per_round_overhead_us : int -> t -> t

val with_max_rounds : int -> t -> t

val with_max_retries : int -> t -> t

val with_retry_backoff_us : int -> t -> t

val with_backoff_factor : int -> t -> t

val with_timeout_base_us : int -> t -> t

val with_timeout_per_hop_us : int -> t -> t

val with_suspicion_decay : int -> t -> t

val with_domains : int -> t -> t

val with_backend : backend_kind -> t -> t

val pool : t -> Sdn_parallel.Pool.t option
(** The process-wide pool matching [t.domains]: [None] when
    [domains = 1] (stages then take their inline sequential path). *)

(** {2 Derived quantities} *)

val serialization_us : t -> packets:int -> int
(** Virtual time to push [packets] probes out of the controller. *)

val probe_timeout_us : t -> hops:int -> int
(** Echo timeout for a probe whose tested path has [hops] rules:
    [timeout_base_us + hops * timeout_per_hop_us]. *)

val backoff_us : t -> attempt:int -> int
(** Wait before retransmission number [attempt] (1-based):
    [retry_backoff_us * backoff_factor ^ (attempt - 1)], saturating at
    10 s so a misconfigured factor cannot stall the virtual clock.
    Raises [Invalid_argument] when [attempt < 1]. *)
