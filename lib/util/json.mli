(** Minimal JSON tree, printer and parser.

    The reproduction keeps its machine-readable output self-contained
    (no third-party JSON dependency): every report — lint, sdncheck,
    the verifier, the bench — prints through this module, and the
    versioned {!Sdnprobe.Report} serialization also parses with it.
    It is a strict subset of RFC 8259 sufficient for our own output:
    UTF-8 is passed through opaquely, numbers are OCaml [int] or
    [float], and object keys are kept in order. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. Floats are printed with enough
    digits to round-trip ([%.17g], trimmed); strings are escaped per
    RFC 8259. *)

val of_string : string -> (t, string) result
(** Parse one JSON value; trailing non-whitespace is an error. Numbers
    with a fraction or exponent parse as [Float], others as [Int].
    [Error msg] carries a byte offset. *)

(** {2 Accessors} — each returns [None] on a type mismatch. *)

val member : string -> t -> t option
(** Field of an [Obj] (first occurrence). *)

val to_int : t -> int option
(** [Int n] gives [n]; [Float f] gives [int_of_float f] when integral. *)

val to_float : t -> float option
(** [Float] or [Int] (widened). *)

val to_str : t -> string option

val to_list : t -> t list option

val obj_int : string -> t -> int option
(** [obj_int k o] = [member k o >>= to_int]; same shorthands below. *)

val obj_float : string -> t -> float option

val obj_str : string -> t -> string option

val obj_list : string -> t -> t list option
