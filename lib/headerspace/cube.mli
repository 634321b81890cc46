(** Ternary header cubes over the {0, 1, x} alphabet.

    A cube of length [L] describes a set of concrete [L]-bit headers: each
    bit position is either fixed to 0, fixed to 1, or a wildcard [x]
    matching both. Cubes are the atoms of Header Space Analysis
    (Kazemian et al., NSDI'12): flow-entry match fields, set fields and
    packet headers are all cubes, and every header-space set in this
    reproduction is a finite union of cubes (see {!Hs}).

    Bit numbering follows the paper: bit 0 is the leftmost (most
    significant) character of the string form, so [of_string "00101xxx"]
    has bit 0 = '0' and bit 7 = 'x'.

    The representation packs a cube into two bit arrays (a fixed-bit mask
    and a value), chunked into OCaml ints, so intersection and emptiness
    tests are word-parallel. Cubes are immutable and {e selectively
    hash-consed}: long-lived cubes built through {!of_bits} /
    {!of_string} / {!wildcard} (match fields, set fields, full spaces)
    are interned in a weak table, so structurally equal ones are a
    single physical object and {!equal} / {!subset} short-circuit on
    identity. Algebra results ({!inter}, {!diff}, {!apply_set_field},
    ...) are {e not} interned — intermediates are short-lived, and the
    table round-trip dominated the kernels (the cube.inter/64
    regression); {!equal} falls back to a structural comparison, so no
    correctness depends on identity. The intern table holds entries
    weakly (the GC reclaims unreferenced cubes) and is domain-safe:
    16 mutex-guarded shards picked by cube hash (see
    docs/PARALLEL.md). *)

type t

type bit = Zero | One | Any
(** One ternary position. *)

val length : t -> int
(** Number of bit positions. *)

val wildcard : int -> t
(** [wildcard len] is the full space [{x}^len]. *)

val of_bits : bit array -> t
(** Build from an explicit ternary vector. *)

val get : t -> int -> bit
(** [get c k] is position [k]. Raises [Invalid_argument] out of range. *)

val set : t -> int -> bit -> t
(** [set c k b] is [c] with position [k] replaced (functional update). *)

val of_string : string -> t
(** Parse from a string of ['0'], ['1'], ['x'] / ['X'] / ['*'].
    Raises [Invalid_argument] on any other character. *)

val to_string : t -> string
(** Inverse of {!of_string}, using lowercase ['x']. *)

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool
(** Structural equality (same length, same ternary vector). O(1) for
    interned cubes — physical equality decides. *)

val compare : t -> t -> int
(** Total order consistent with {!equal}. *)

val hash : t -> int
(** Chunk-fold hash over the whole bit representation. Unlike
    [Hashtbl.hash], it never truncates: cubes differing only in late
    chunks of a long header still spread across buckets. *)

val interned_count : unit -> int
(** Number of cubes currently alive in the intern table (weak count —
    shrinks under GC). Exposed for metrics and tests. *)

val is_concrete : t -> bool
(** True when no position is a wildcard. *)

val wildcard_count : t -> int
(** Number of [Any] positions. *)

val size : t -> float
(** Number of concrete headers in the cube, [2. ** wildcard_count]. *)

val inter : t -> t -> t option
(** Cube intersection: [None] iff some position is fixed to 0 in one
    and 1 in the other. Lengths must agree. *)

val subset : t -> t -> bool
(** [subset a b] iff every header in [a] is in [b]. *)

type packed
(** A cube family laid out for first-match scans: every cube's chunks in
    one flat [int] array, in the family's order. *)

val pack : t array -> packed
(** Pack a family. Raises [Invalid_argument] if lengths differ. *)

val first_superset : packed -> t -> int
(** [first_superset p h] is the index of the first cube [c] of the
    family with [subset h c], or [-1]. Allocation-free; a one-chunk
    family (cubes up to 62 bits) reads two words per cube. Raises
    [Invalid_argument] if [h]'s length differs from a non-empty
    family's. *)

val disjoint : t -> t -> bool
(** [disjoint a b] iff [inter a b = None]. Allocation-free. *)

val iter_overlapping : t array -> (int -> int -> unit) -> unit
(** [iter_overlapping cubes f] calls [f i j], [i < j], once for every
    pair of indices whose cubes intersect, in an order fixed by the
    input. Pairs that differ on a bit every cube of their part fixes are
    ruled out without being compared, so a family of address prefixes
    costs far less than all [n^2] pairs. Lengths must agree. *)

val hull : t -> t -> t
(** [hull a b] is the smallest cube containing both: a position is
    fixed iff both cubes fix it to the same value. Disjoint hulls imply
    disjoint cubes (the converse does not hold), which makes hulls a
    sound prefilter for intersection emptiness. *)

val diff : t -> t -> t list
(** [diff a b] is a disjoint list of cubes whose union is [a - b].
    At most [length a] cubes. *)

val apply_set_field : set:t -> t -> t
(** The paper's transfer function [T(h, s)]: position [k] of the result
    is [s\[k\]] when [s\[k\]] is fixed, else [h\[k\]]. The [set] cube's
    fixed bits overwrite; its wildcards leave the input unchanged. *)

val inverse_set_field : set:t -> t -> t option
(** Preimage of a cube under the transfer function: the cube of headers
    [h] with [T(h, set)] in the argument. [None] when [set]'s fixed bits
    contradict the target (empty preimage); otherwise the target with
    [set]'s fixed positions released to wildcards. *)

val sample : Sdn_util.Prng.t -> t -> t
(** Concrete member of the cube, wildcards drawn uniformly. *)

val first_member : t -> t
(** Deterministic concrete member: wildcards set to 0. *)

val nth_member : t -> int -> t
(** [nth_member c k] is the [k]-th concrete member of the cube in the
    order induced by filling the wildcard positions (last wildcard =
    least significant bit) with the binary encoding of [k]. Wraps
    around when [k >= size c]. [k] must be non-negative. *)

val member : header:t -> t -> bool
(** [member ~header c]: [header] must be concrete; true iff it lies in
    [c]. Raises [Invalid_argument] if [header] is not concrete. *)

val random : Sdn_util.Prng.t -> ?wildcard_prob:float -> int -> t
(** Random cube of the given length; each position is a wildcard with
    probability [wildcard_prob] (default 0.3), else a random fixed bit. *)
