(** The lint engine: runs registered {!Passes} over a network policy
    and collects diagnostics plus per-pass wall-clock timings.

    This is the programmatic entry point behind [sdnprobe lint]; its
    L001–L003 passes are the rule graph's loop, blackhole and shadow
    checks. *)

type report = {
  diagnostics : Diagnostic.t list;  (** in pass/emission order *)
  timings : (string * float) list;  (** (pass id, seconds) per executed pass *)
  skipped : string list;  (** passes not run (e.g. coverage without a plan) *)
}

exception Unknown_pass of string
(** Raised by {!run} when [only] names no registered pass. *)

val run : ?only:string list -> ?probes:int list list -> Openflow.Network.t -> report
(** Run the registry (or the [only] subset, by check id or ["Lnnn"]
    prefix) over the policy. [probes] — planned probe paths as
    entry-id sequences — enables the L009 coverage audit; without it
    that pass is reported in [skipped]. *)

val count : report -> Diagnostic.severity -> int

val sorted : report -> Diagnostic.t list
(** Diagnostics in display order: severity, then check id, then
    location. *)

val worst : report -> Diagnostic.severity option

type fail_on = Fail_never | Fail_error | Fail_warning

val exit_code : fail_on:fail_on -> report -> int
(** Severity-based process exit code: [2] when an [Error] diagnostic is
    present (unless [Fail_never]), [1] when the worst finding is a
    [Warning] and [fail_on] is [Fail_warning], [0] otherwise. *)

val findings_by_pass : report -> (string * int * float) list
(** [(pass id, finding count, seconds)] per executed pass. *)

val pp_text : Format.formatter -> report -> unit
(** Sorted diagnostics, a per-pass findings/timing table, and a
    severity summary line. *)

val to_json : report -> string
(** The whole report as one JSON object:
    [{"diagnostics": [...], "summary": {...}, "timings": {...},
    "skipped": [...]}]. *)
