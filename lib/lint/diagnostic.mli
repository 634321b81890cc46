(** Lint diagnostics: one finding of one static-analysis pass.

    Every diagnostic carries a {e stable} check id (["L001-forwarding-loop"],
    see [docs/LINT.md] for the catalog), a severity, a source location
    expressed in policy coordinates (switch / table / flow-entry ids —
    the SDN analogue of file:line), and a header-space {b witness}: the
    set of packet headers demonstrating the finding, so every diagnostic
    can be replayed against the emulator or a live network. The witness
    semantics are per-check (the headers leaked into a blackhole, the
    headers two ambiguous rules compete for, ...); structural findings
    with no inhabiting header (e.g. a dead port) carry the empty space —
    itself the evidence ("no header uses this port"). *)

type severity = Error | Warning | Info

val severity_rank : severity -> int
(** [Error] = 0 (most severe), [Warning] = 1, [Info] = 2. *)

val severity_to_string : severity -> string
(** Lowercase: ["error"], ["warning"], ["info"]. *)

type t = {
  check : string;  (** stable check id, e.g. ["L002-blackhole"] *)
  severity : severity;
  switch : int option;  (** primary switch, when the finding has one *)
  table : int option;  (** flow table within [switch] *)
  entries : int list;  (** implicated flow-entry ids, most salient first *)
  witness : Hspace.Hs.t;  (** header-space evidence (may be empty) *)
  message : string;  (** human-readable, self-contained explanation *)
}

val make :
  check:string ->
  severity:severity ->
  ?switch:int ->
  ?table:int ->
  ?entries:int list ->
  witness:Hspace.Hs.t ->
  string ->
  t

val compare : t -> t -> int
(** Severity rank, then check id, then location — the display order. *)

val pp : Format.formatter -> t -> unit
(** One line: [severity[check] location: message [witness ...]]. *)

val to_json : t -> Sdn_util.Json.t
(** One JSON object: [check], [severity], [switch] and [table] when
    present, [entries], [witness] (cube strings) and [message]. *)
