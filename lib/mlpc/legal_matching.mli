(** The paper's modified matching algorithm for MLPC (§V-B).

    The rule graph is transformed into a bipartite graph (each vertex
    [r] split into [r] and [r']; every closure-graph edge [(u, v)]
    becomes [(u, v')]). A matching corresponds to a successor function,
    i.e. a partition of the vertices into chains; the number of chains
    is [n − |M|], so a maximum matching whose chains are all legal paths
    is a minimum legal path cover.

    Augmentation searches for {e legal augmenting paths} (Definition 3):
    an augmenting path is admitted only if, once applied, every chain it
    touches is still a legal path. The search is augmenting-path-based
    (Kuhn's algorithm) with an undo log, so an illegal splice rolls back
    cleanly and alternatives are explored; Hopcroft–Karp's phase
    batching is an asymptotic optimization the reproduction trades for
    the explicit legality bookkeeping (the covers produced agree with
    brute-force minima on randomized small instances — see the test
    suite). *)

val solve : Rulegraph.Rule_graph.t -> Cover.t
(** Minimum legal path cover via legal augmenting paths. The search is
    sequential: each splice decision depends on the matching so far.
    Legality claims fill the rule graph's caches lazily, so a chain's
    suffix spaces are computed once, when the search first asks. *)

val solve_successors : Rulegraph.Rule_graph.t -> int array
(** The raw successor function, for callers that post-process chains. *)

val randomized :
  ?dropout:float ->
  Sdn_util.Prng.t ->
  Rulegraph.Rule_graph.t ->
  Cover.t
(** Randomized SDNProbe's variant (§V-C): randomized greedy matching
    (Dyer–Frieze) over the same bipartite graph, restricted to legal
    splices, with [dropout] probability (default 0.15) of skipping a
    feasible splice. Dropout breaks chains at positions a maximal
    matching would never expose, so over the rounds tested paths can
    terminate at {e any} rule — the endpoint diversity that defeats
    colluding detours and targeting faults, at the price of more test
    packets (the paper's +72%). *)
