(** Deterministic multicore support (docs/PARALLEL.md).

    A {!Pool} is a fixed-size domain pool whose combinators join
    results in input order, so the pipeline's output is bit-for-bit
    identical for any domain count. This module adds the process-wide
    default: the degree of parallelism every stage uses when no
    explicit pool is passed. *)

module Pool = Pool
module Ownership = Ownership

val env_domains : unit -> int
(** Value of [SDNPROBE_DOMAINS] clamped to [\[1, 128\]]; 1 when unset
    or malformed. *)

val pool : domains:int -> Pool.t
(** The process-wide cached pool of the given size (created on first
    use, shut down automatically at exit). *)

val default_pool : unit -> Pool.t
(** [pool ~domains:(env_domains ())]. *)
