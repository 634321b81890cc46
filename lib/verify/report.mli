(** The verifier's report: per-invariant verdicts with certified
    counterexamples, plus the engine's deterministic work counters.

    Mirrors the lint engine's report/exit-code contract ([sdnprobe
    verify] and [sdnprobe lint] compose the same way in CI), with one
    addition: every violation embeds its witness and the certificate
    that re-established it. The JSON rendering is deterministic — work
    counters are propagation tallies, not clocks — so reports are
    byte-comparable across runs; wall-clock timings
    are opt-in ({!to_json}'s [timings] flag) and live under a separate
    key. *)

type severity = Error | Warning

val severity_to_string : severity -> string

type violation = {
  invariant : Invariant.t;
  severity : severity;
  message : string;  (** human-readable, self-contained *)
  witness : Witness.t;
  kind : Witness.kind;
  certificate : Witness.certificate;
}

type status =
  | Holds
  | Violated of violation list  (** non-empty, emission order *)

type t = {
  results : (Invariant.t * status) list;  (** in the order checked *)
  metrics : (string * int) list;
      (** deterministic work counters (cubes propagated, worklist
          iterations, states computed / updated / cache hits, plumbing
          size) *)
  timings : (string * float) list;  (** (phase, seconds); excluded from canonical JSON *)
}

val ok : t -> bool

val violations : t -> violation list

val count : t -> severity -> int

val worst : t -> severity option

type fail_on = Fail_never | Fail_error | Fail_warning

val exit_code : fail_on:fail_on -> t -> int
(** Same protocol as [Lint.Engine.exit_code]: [2] when an [Error]
    violation is present (unless [Fail_never]), [1] when the worst is a
    [Warning] and [fail_on] is [Fail_warning], [0] otherwise. *)

val pp_text : Format.formatter -> t -> unit
(** Per-invariant verdict lines with witnesses, then a metrics and
    summary block. *)

val to_json : ?timings:bool -> t -> string
(** One JSON object: [{"schema_version": 1, "results": [...],
    "summary": {...}, "metrics": {...}}] (plus ["timings"] when
    requested). Deterministic unless [timings] is set. *)
