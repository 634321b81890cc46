(** The lint engine's analysis passes.

    Each pass is a pure function from an analysis context to a list of
    {!Diagnostic.t}, registered under a stable check id. The context
    holds the verifier's plumbing graph ({!Verify.Plumbing}), built once
    per policy: every pass reads the entries and their input spaces
    (§V-A's [r.in]) off it, and L001/L002 also its edges.

    The catalog (ids, severities, witness semantics, examples) is
    documented in [docs/LINT.md]. *)

type ctx

val make_ctx : ?probes:int list list -> Openflow.Network.t -> ctx
(** [probes] are planned probe paths as flow-entry-id sequences (the
    [rules] field of {!Core.Probe.t} / a cover path); they feed the
    probe-plan coverage audit, which is skipped when absent. *)

val network : ctx -> Openflow.Network.t

val probes : ctx -> int list list option

type t = {
  id : string;  (** stable check id, e.g. ["L001-forwarding-loop"] *)
  severity : Diagnostic.severity;  (** headline severity of its findings *)
  doc : string;  (** one-line description *)
  needs_probes : bool;  (** pass only runs when the ctx has a probe plan *)
  run : ctx -> Diagnostic.t list;
}

val all : t list
(** Registry in check-id order. *)

val find : string -> t option
(** Lookup by full id or by its ["Lnnn"] prefix, case-insensitive. *)
