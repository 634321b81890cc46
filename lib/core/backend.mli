(** The probe-delivery seam of the detection engine.

    {!Runner} drives detection rounds against this interface rather
    than against a concrete data plane, so the same loop — traps,
    timeouts, bounded retransmission, suspicion — runs over the
    in-process {!Dataplane.Emulator} (virtual time, bit-for-bit
    deterministic) or over the wire backend ([lib/wire]: emulated
    switches as UDP endpoints on localhost, probes as real datagrams
    through the kernel network stack; see docs/WIRE.md).

    A backend is a record of closures rather than a first-class module:
    every field is per-instance state anyway, and the runner only ever
    calls through the record. *)

type t = {
  label : string;  (** backend name for reports/debugging *)
  network : Openflow.Network.t;  (** the policy probes are tested against *)
  clock : Dataplane.Clock.t;
      (** the clock detection timestamps are read from. Virtual-time
          backends let the runner advance it; real-time backends mirror
          the monotonic clock into it (see [real_time]). *)
  real_time : bool;
      (** When true, time passes on its own (the backend updates
          [clock] from real elapsed time) and the runner must not
          advance the clock for modelled serialization/flight/overhead
          delays. *)
  install_traps : Probe.t list -> unit;
      (** Arm the §VI return path for each probe ((terminal switch,
          terminal rule, expected header) -> probe id) before a round. *)
  remove_traps : Probe.t list -> unit;
  attempt : config:Config.t -> ?now_us:int -> Probe.t -> bool;
      (** One send of one probe; true iff the probe's own trap echoed
          it back within the per-probe timeout
          ([Config.probe_timeout_us]). [now_us] overrides the send
          instant for backends with a virtual clock; the runner never
          passes it (a round's probes leave in plan order at the
          clock's own instants), wrappers forward it unchanged. *)
  send_batch : (config:Config.t -> Probe.t list -> bool array) option;
      (** Batched one-attempt-per-probe send: fire the whole list, then
        collect echoes until each probe's deadline; result[i] is
        probe i's verdict. Backends with real I/O provide this so a
        round's sends and waits overlap instead of paying the timeout
        serially per probe; the runner then layers retransmission on
        top by re-batching the failures. *)
  close : unit -> unit;
      (** Release backend resources (sockets, service domains).
          Idempotent. *)
}

val of_emulator : Dataplane.Emulator.t -> t
(** The in-process backend: behaviourally identical to the historical
    runner (golden digests pin this bit-for-bit). [close] is a no-op —
    the emulator's lifetime belongs to the caller. *)
