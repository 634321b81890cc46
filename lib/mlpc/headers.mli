(** Test-packet header assignment (§V-B step 3, §V-C, §VI).

    Each cover path gets one concrete header from its start space. Three
    policies:

    - [Deterministic]: the canonical first member of the space —
      SDNProbe's static choice (its predictability is exactly what
      targeting faults exploit, reproduced in the evaluation);
    - [Sat_unique]: like the paper's MiniSat-based §VI selection —
      headers are pairwise distinct across paths, so the exact-match
      test flow entries can only fire on test packets;
    - [Random]: Randomized SDNProbe's per-round uniform draw from the
      start space (still pairwise distinct, by rejection). *)

type policy =
  | Deterministic
  | Sat_unique
  | Random of Sdn_util.Prng.t
  | Traffic_weighted of Traffic.t * Sdn_util.Prng.t
      (** §V-C's sFlow option: draw from the observed traffic inside the
          path's header space, so probes blend in with real flows
          (raising the odds of tripping targeting faults aimed at live
          traffic); falls back to a uniform draw on paths without
          observed traffic. *)

type memo
(** Transcript cache for repeated [assign] calls over evolving covers
    (the delta planning path). Records every path's key, start space
    and chosen header; the next call replays the longest prefix of its
    cover whose keys and space representations (same cubes, same
    order) match the transcript, and assigns the rest as usual, so a
    warm call returns exactly what a cold one would. Only consulted for
    the [Deterministic] and [Sat_unique] policies — randomized draws
    are never cached.

    The [key] argument of {!assign} names a path for the memo (default:
    its [rules] vertex list). Vertex indices shift when entries are
    added or removed, so callers reusing a memo across graph updates
    must key by stable entry ids ([Pipeline] does). *)

val memo_create : unit -> memo

val assign :
  ?pool:Sdn_parallel.Pool.t ->
  ?memo:memo ->
  ?key:(Cover.path -> int list) ->
  policy ->
  Cover.t ->
  (Cover.path * Hspace.Header.t) list
(** One header per path. Paths whose start space is empty are skipped
    (cannot happen for covers produced by the solvers — their paths are
    legal). With [Sat_unique] and [Random], headers are pairwise
    distinct whenever the spaces admit it; if a space is exhausted the
    path reuses a duplicate header rather than being dropped.

    The result is that of one pass over the paths in order: a path
    keeps its unconstrained pick (for [Sat_unique], the first member of
    its start space) unless an earlier path took it, and otherwise runs
    the constrained query against the headers taken before it. For
    [Sat_unique] that query asks the SAT solver for a header in each
    cube of the start space in turn, distinct from the taken headers
    inside that cube, newest first; the solver's answer depends on that
    order (see {!Sat.Header_encoding.find_header}).

    Every policy picks a header inside one of the path's start-space
    cubes, so paths whose cubes never overlap, even through other
    paths, cannot take each other's headers. [assign] splits the cover
    into these components and runs each component's share of the pass
    on its own, one task per component under [pool]. Each component
    sees the taken headers, in the order, that the single pass would
    show it; randomized policies draw from per-path streams seeded by
    [(master draw, path index)]. So every policy's output is
    byte-identical for any domain count. *)

val header_for_path :
  ?distinct_from:Hspace.Header.t list ->
  policy ->
  Cover.path ->
  Hspace.Header.t option
(** Header for a single path. *)
