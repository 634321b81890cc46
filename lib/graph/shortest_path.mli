(** Single-source shortest paths (Dijkstra). Edge weights must be
    non-negative. *)

type tree = {
  dist : float array;  (** infinity when unreachable *)
  parent : int array;  (** -1 for the source and unreachable vertices *)
}

val dijkstra :
  ?blocked_vertices:bool array ->
  ?blocked_edges:(int * int) list ->
  ?target:int ->
  Digraph.t ->
  int ->
  tree
(** Shortest-path tree from a source. [blocked_vertices.(v)] removes [v]
    (the source must not be blocked); [blocked_edges] removes specific
    edges — both used by Yen's algorithm for spur computations.

    With [~target], the search stops as soon as [target] is settled: the
    returned tree is exact along the source-to-target shortest path (and
    for every vertex settled before it) but unexplored elsewhere — only
    [path_to tree target] may be read from it. *)

type workspace
(** Preallocated scratch state (dist/parent/settled arrays and heap) for
    repeated runs over one graph — Yen's spur loop issues hundreds of
    Dijkstra calls on the same graph, where per-call allocation
    dominates. *)

val workspace : Digraph.t -> workspace

val local_workspace : Digraph.t -> workspace
(** The calling {e domain}'s cached workspace for [g] (built on first
    use, or when the domain last used a different graph). Lets
    successive Yen calls on one graph reuse one workspace allocation.
    The caveats of {!dijkstra_ws} apply, plus: the
    returned workspace must not outlive the current task — any later
    [local_workspace] call on this domain may reuse its arrays. *)

val dijkstra_ws :
  workspace ->
  ?blocked_vertices:bool array ->
  ?edge_blocked:(int -> int -> bool) ->
  ?target:int ->
  int ->
  tree
(** Same search as {!dijkstra} (identical relaxation order and
    tie-breaking), but reusing the workspace's storage; blocked edges
    are a predicate so the caller picks the membership structure. The
    returned tree {e aliases} the workspace arrays — read it before the
    next [dijkstra_ws] on the same workspace. *)

val path_to : tree -> int -> int list option
(** Reconstruct the source-to-target vertex sequence; [None] when
    unreachable. *)

val shortest_path : Digraph.t -> int -> int -> int list option
(** Convenience: vertex sequence of a shortest path. *)
