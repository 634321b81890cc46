(** Data-plane emulator — the reproduction's Mininet/Open vSwitch.

    Executes OpenFlow forwarding exactly as the {!Openflow} model
    specifies (priority matching, set-field rewrites, goto-table,
    link-level forwarding), with per-entry fault injection and the §VI
    return-trap mechanism for probes:

    installing a trap [(switch, rule, header)] models the paper's
    duplicated table + test flow entry: when the packet's matched entry
    at [switch] is [rule] and the post-rewrite header equals [header]
    exactly, the packet is returned to the controller instead of
    following the entry's action. A fault on [rule] still fires first —
    the tested rule is genuinely exercised, which is why the paper
    duplicates the table instead of short-circuiting the match.

    Injection is synchronous and returns the packet's fate plus its hop
    trace; the virtual {!Clock} only gates intermittent faults — the
    probe scheduler in the core library owns delay accounting. *)

type lost_reason =
  | No_match of int  (** table miss at a switch *)
  | Dropped_by_fault of int  (** a drop fault fired at this switch *)
  | Dead_port of int  (** output port without a link *)
  | Ttl_exceeded  (** forwarding loop guard *)
  | Link_loss of int
      (** impairment: natural per-packet loss on this switch's egress link *)
  | Link_down of int  (** impairment: egress link flapped down *)
  | Churn_miss of int
      (** impairment: the matched rule was churned out mid-reconfiguration *)

type outcome =
  | Returned of { probe : int; at_switch : int; header : Hspace.Header.t }
      (** captured by a return trap *)
  | Delivered of { at_switch : int; header : Hspace.Header.t }
      (** matched an honest [Drop] (local delivery) with no trap: from
          the controller's viewpoint this probe is lost *)
  | Lost of lost_reason

type hop = { switch : int; entry : int; header_out : Hspace.Header.t }
(** One processed flow entry: the switch, the matched entry id, and the
    header after its (possibly faulty) rewrite. *)

type result = {
  outcome : outcome;
  trace : hop list;
  jitter_us : int;
      (** total impairment delay jitter accumulated over the packet's
          switch visits (0 without an impairment); the probe scheduler
          adds it to the nominal flight time for timeout decisions *)
}

type t

val create : Openflow.Network.t -> t
(** Fresh emulator over the network, no faults, clock at 0, no
    impairment. *)

val network : t -> Openflow.Network.t

val clock : t -> Clock.t

val set_impairment : t -> Impairment.t -> unit
(** Attach the error-prone environment model: per-link loss, link
    flaps, rule churn and delay jitter perturb every subsequent
    {!inject}. Attaching an impairment built from {!Impairment.none} is
    observationally identical to having none. *)

val clear_impairment : t -> unit

val impairment : t -> Impairment.t option

val set_fault : t -> entry:int -> Fault.t -> unit
(** Attach (or replace) a fault on a flow entry. *)

val clear_fault : t -> entry:int -> unit

val clear_all_faults : t -> unit

val fault_of : t -> entry:int -> Fault.t option

val faulty_entries : t -> int list

val faulty_switches : t -> int list
(** Switches owning at least one faulted entry (sorted). *)

val install_trap : t -> probe:int -> switch:int -> rule:int -> header:Hspace.Header.t -> unit
(** Register a return trap. Replaces any trap with the same
    [(switch, rule, header)] key: the last install wins. *)

val remove_probe_traps : t -> probe:int -> unit
(** Drop every trap currently mapped to [probe]. A key that another
    probe has since overwritten keeps that probe's trap; an unknown
    [probe] is a no-op. Costs O(traps [probe] installed since its last
    removal), independent of how many other traps are installed. *)

val clear_traps : t -> unit
(** Drop every trap of every probe, resetting the emulator's trap state
    to that of {!create}. *)

val inject : ?now_us:int -> t -> at:int -> Hspace.Header.t -> result
(** Hand a packet to switch [at] for processing and follow it to its
    fate. The emulator clock is read (not advanced); [?now_us]
    substitutes a virtual send instant for the clock reading. The probe
    runner never passes it: it advances the clock to each send instant
    and injects a round's packets in plan order. *)

type step_result =
  | Step_forward of { next : int; header : Hspace.Header.t; jitter_us : int }
      (** the packet leaves for switch [next] (egress link or detour
          tunnel) carrying [header]; the visit drew [jitter_us] of
          forwarding delay *)
  | Step_final of { outcome : outcome; jitter_us : int }

val step : ?now_us:int -> t -> at:int -> ttl:int -> Hspace.Header.t -> step_result
(** One switch visit: exactly one iteration of {!inject}'s forwarding
    loop — jitter draw, table walk with goto chains, faults, traps,
    churn and egress-link impairments. [ttl <= 0] is [Ttl_exceeded].
    The wire backend ([lib/wire]) drives this per received datagram, so
    a probe's fate over real sockets matches {!inject} hop for hop; the
    caller forwards with [ttl - 1]. *)

val flow_count : t -> entry:int -> int
(** OpenFlow per-entry packet counter: how many packets this flow entry
    has processed since creation (or {!reset_flow_counts}). Faulty
    executions count too — the rule did process the packet. *)

val flow_counts : t -> (int * int) list
(** All non-zero [(entry, packets)] counters, sorted by entry id. *)

val reset_flow_counts : t -> unit

val ttl : int
(** Hop budget before [Ttl_exceeded] (64). *)
