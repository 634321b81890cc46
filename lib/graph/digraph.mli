(** Directed graphs over integer vertices [0 .. n-1].

    Mutable adjacency-list digraph with optional edge weights (default
    weight 1.0). Parallel edges are ignored on insertion; weights are
    those of the first insertion. Used for rule graphs, topologies and
    the bipartite transformations of the MLPC solver. *)

type t

val create : int -> t
(** [create n] is the edgeless graph on [n] vertices. *)

val n_vertices : t -> int

val n_edges : t -> int

val add_edge : ?weight:float -> t -> int -> int -> unit
(** [add_edge g u v] inserts the edge [u -> v]. No-op if present.
    Raises [Invalid_argument] if a vertex is out of range. *)

val add_new_edge : ?weight:float -> t -> int -> int -> unit
(** [add_edge] without its O(out-degree) duplicate scan: the caller
    guarantees that [u -> v] is absent. *)

val mem_edge : t -> int -> int -> bool

val weight : t -> int -> int -> float option

val succ : t -> int -> int list
(** Successors in insertion order. *)

val succ_weighted : t -> int -> (int * float) list

val pred : t -> int -> int list
(** Predecessors (computed lazily and cached; invalidated on edge
    insertion). *)

val in_degree : t -> int -> int

val out_degree : t -> int -> int

val edges : t -> (int * int) list
(** All edges, grouped by source. *)

val transpose : t -> t

val copy : t -> t

val iter_edges : (int -> int -> unit) -> t -> unit

val fold_vertices : ('a -> int -> 'a) -> 'a -> t -> 'a

val sources : t -> int list
(** Vertices with in-degree 0. *)

val sinks : t -> int list
(** Vertices with out-degree 0. *)

val reachable : t -> int -> bool array
(** BFS reachability from a vertex (includes the vertex itself). *)

val topological_sort : t -> int list option
(** Kahn's algorithm: [None] iff the graph has a cycle. *)

val has_cycle : t -> bool

val find_cycle : t -> int list option
(** A vertex sequence forming a directed cycle, if any. *)

val is_connected_undirected : t -> bool
(** Connectivity ignoring edge direction (vacuously true when empty). *)

val pp : Format.formatter -> t -> unit
