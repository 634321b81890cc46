(** Error-prone environment model: seeded, clock-driven data-plane
    impairments, independent of the {!Fault} ground truth being hunted.

    The paper's title promise — fault localization {e in the error-prone
    environment} — needs an emulator that loses packets for reasons that
    are {e not} the injected fault: natural per-link loss, per-switch
    delay jitter, transient link flaps, and mid-run rule churn. An
    impairment attached to an {!Emulator} perturbs every forwarded
    packet; the detection loop must absorb the noise (retransmission,
    per-probe timeouts, suspicion decay) without flagging healthy
    switches.

    Every decision is a pure function of the spec's [seed], the
    entity (link / switch / entry), the virtual-clock time, and a
    per-entity draw counter — so a run is reproducible from the seed,
    yet a retransmission of the same probe sees fresh loss randomness
    (independent per-packet loss) while flap and churn windows stay
    down for their whole window (persistent transient outages).

    A spec with every knob at zero (the {!none} spec) makes every
    decision a constant no and draws nothing: attaching it is
    observationally identical to no impairment at all. *)

type flap_spec = {
  flap_window_us : int;  (** window granularity of link up/down decisions *)
  down_ratio : float;  (** probability a given link is down in a window *)
}

type churn_spec = {
  churn_window_us : int;  (** window granularity of rule in/out decisions *)
  out_ratio : float;
      (** probability a given flow entry is mid-reconfiguration (absent
          from the table, packets blackholed) in a window *)
}

type spec = {
  seed : int;
  loss_rate : float;  (** per-link, per-packet independent loss probability *)
  jitter_max_us : int;
      (** per-switch extra forwarding latency, uniform in [\[0, max\]] per
          visit; 0 disables jitter *)
  flaps : flap_spec option;
  churn : churn_spec option;
}

val none : spec
(** Seed 0, every rate 0, no flaps, no churn. *)

val spec :
  ?seed:int ->
  ?loss_rate:float ->
  ?jitter_max_us:int ->
  ?flaps:flap_spec ->
  ?churn:churn_spec ->
  unit ->
  spec
(** Builder over {!none}. Raises [Invalid_argument] on rates outside
    [\[0, 1\]], a negative jitter, or a non-positive window. *)

type t

val create : spec -> t

val spec_of : t -> spec

(** {2 Decisions} — queried by the emulator per packet event. *)

val lose_on_link : t -> sw_a:int -> sw_b:int -> now_us:int -> bool
(** Independent per-packet loss draw for a traversal of the (unordered)
    link [sw_a]–[sw_b]. Never true when [loss_rate = 0]. *)

val link_down : t -> sw_a:int -> sw_b:int -> now_us:int -> bool
(** Whether the link is flapped down for the window containing
    [now_us]. Stable within a window; both directions agree. *)

val rule_out : t -> entry:int -> now_us:int -> bool
(** Whether the entry is churned out (mid insert/delete) for the window
    containing [now_us]. *)

val jitter_us : t -> switch:int -> now_us:int -> int
(** Extra forwarding latency for one visit of [switch]; a fresh uniform
    draw in [\[0, jitter_max_us\]] per visit, 0 when disabled. *)

(** {2 Accounting} — what the impairment actually did, for reports. *)

type stats = {
  link_losses : int;  (** packets dropped by the loss draw *)
  flap_drops : int;  (** packets dropped on a flapped-down link *)
  churn_misses : int;  (** packets blackholed by a churned-out rule *)
  jitter_total_us : int;  (** total jitter injected across all visits *)
}

val stats : t -> stats

val reset_stats : t -> unit
