(** Header-space sets: finite unions of ternary {!Cube}s.

    This is the workhorse set type of the reproduction. A value denotes
    the union of its cubes; the representation is kept small by dropping
    cubes subsumed by others but is not canonical (two different cube
    lists may denote the same set — use {!is_subset} both ways or
    {!equal_sets} for semantic comparison).

    {b Representation invariant.} Every value's cube list is a fixed
    point of subsumption (dropping each cube another cube contains): it
    holds no duplicate and no cube contained in another. Any sublist of
    such a list is one too. {!union} and {!diff_cube} rely on this:
    they skip the checks whose answer the invariant already gives, and
    still return exactly the cube list a full subsumption pass over
    their pieces would.

    All operations require cubes of matching bit-length. *)

type t

val empty : int -> t
(** The empty space over headers of the given bit-length. *)

val full : int -> t
(** The full space [{x}^len]. *)

val of_cube : Cube.t -> t

val of_cubes : int -> Cube.t list -> t
(** [of_cubes len cubes]; all cubes must have length [len]. *)

val cubes : t -> Cube.t list
(** The (subsumption-reduced) cube list. *)

val length : t -> int
(** Header bit-length of the space. *)

val cube_count : t -> int

val is_empty : t -> bool

val mem : Cube.t -> t -> bool
(** [mem header hs]: membership of a {e concrete} header. *)

val union : t -> t -> t
(** The cubes of [a] not covered by a cube of [b], then the cubes of
    [b] not covered by one of those: the list a subsumption pass over
    [a]'s cubes followed by [b]'s leaves. An empty operand returns the
    other one itself. *)

val inter : t -> t -> t
(** The subsumption-reduced pairwise intersections, in [a]-major
    order. *)

val inter_nonempty : t -> t -> bool
(** [inter_nonempty a b] iff [inter a b] is non-empty, decided without
    allocating the intersection (one {!Cube.disjoint} check per cube
    pair, early exit). The rule-graph edge scans run on this. *)

val diff : t -> t -> t

val inter_cube : t -> Cube.t -> t

val diff_cube : t -> Cube.t -> t
(** The subsumption-reduced pieces of each cube minus [c]. When [c] is
    disjoint from every cube, the result is [t] itself; when it only
    swallows whole cubes, the sublist of the cubes outside it. *)

val apply_set_field : set:Cube.t -> t -> t
(** Image of the space under the paper's transfer function [T(·, set)]. *)

val inverse_set_field : set:Cube.t -> t -> t
(** Preimage of the space under [T(·, set)]: headers whose rewrite lands
    in the space. *)

val is_subset : t -> t -> bool
(** [is_subset a b] iff the set denoted by [a] is contained in [b]'s.
    A cube of [a] inside one cube of [b] is accepted at once; any other
    is cut only by the cubes of [b] that meet it, and [diff a b] is
    never built. *)

val equal_sets : t -> t -> bool
(** Semantic equality. *)

val reduce : t -> t
(** Canonical form of the cube list: sorted by {!Cube.compare},
    duplicates collapsed (physical equality, thanks to cube interning),
    cubes subsumed by another cube dropped. Idempotent, insensitive to
    the order the space was assembled in, and {!equal_sets}-preserving.
    The other operations deliberately keep first-insertion order (it is
    what {!first_member} and {!sample} are defined on), so canonicalize
    only at comparison/memoization boundaries. *)

val disjoint_cubes : t -> Cube.t list
(** Decomposition into pairwise-disjoint cubes denoting the same set
    (later cubes minus all earlier ones), so cube sizes add up exactly;
    the basis of {!size} and {!sample}. *)

val size : t -> float
(** Number of concrete headers (inclusion–exclusion-free upper bound is
    avoided: computed exactly by disjoint decomposition). *)

val sample : Sdn_util.Prng.t -> t -> Cube.t option
(** Uniformly-random concrete header of the set ([None] when empty).
    Cubes are weighted by their size so sampling is uniform over
    headers, not over cubes. *)

val first_member : t -> Cube.t option
(** Deterministic concrete member ([None] when empty). *)

val hull : t -> Cube.t option
(** Smallest single cube containing the whole set ([None] when empty).
    Two spaces with {!Cube.disjoint} hulls have an empty intersection —
    the sound prefilter the rule-graph build uses to skip full
    {!inter} calls on the all-pairs edge scan. *)

val pp : Format.formatter -> t -> unit
