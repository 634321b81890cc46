(** The plumbing graph: rule-to-rule dependencies labeled with the
    header-space cubes that can flow between flow entries.

    Vertices are the network's flow entries (ascending id, like
    {!Openflow.Network.all_entries}); a directed edge [(u, v)] exists
    when [u]'s action hands the packet to [v]'s flow table (next
    switch's table 0 for an output, a later table of the same switch
    for a goto) and the hand-off space [u.out ∩ v.in] is non-empty —
    that space is the edge's {e label}. This is the paper's §V-A base
    rule graph — the planner's own {!Rulegraph.Base}, vertices, spaces
    and edges — enriched with NetPlumber-style edge labels; the
    {!Closure} worklist engine propagates header spaces over it and the
    lint passes read their facts straight off it (one reachability
    substrate, many clients — docs/VERIFY.md).

    The graph is immutable; {!patch} builds the graph for a mutated
    network incrementally through {!Rulegraph.Base.patch}, reusing every
    vertex space and edge label whose endpoints are unaffected. *)

type t

val build : Openflow.Network.t -> t

val base : t -> Rulegraph.Base.t
(** The underlying Step-1 graph. *)

val network : t -> Openflow.Network.t

val n_vertices : t -> int

val vertex_entry : t -> int -> Openflow.Flow_entry.t

val vertex_of_entry : t -> int -> int option
(** Vertex index of an entry id. *)

val input : t -> int -> Hspace.Hs.t
(** [r.in] of the vertex: its match minus higher-precedence matches of
    its own table. *)

val output : t -> int -> Hspace.Hs.t
(** [r.out = T(r.in, r.set)]. *)

val graph : t -> Sdngraph.Digraph.t

val succ : t -> int -> int list

val label : t -> int -> int -> Hspace.Hs.t
(** Hand-off space of an edge; the empty space for non-edges. *)

(** {2 Incremental patching} *)

type patch = {
  plumbing : t;  (** the graph of the mutated network *)
  affected : bool array;
      (** per new vertex: a newly inserted entry, or one of a changed
          table whose spaces differ in representation from the old
          ones — exactly the vertices whose spaces (and incident edge
          labels) may differ from the old graph's. Edges between
          unaffected vertices are unchanged. *)
  remap : int array;
      (** old vertex index -> new vertex index, [-1] for deleted
          entries. *)
  back : int array;
      (** the inverse: new vertex index -> old vertex index, [-1] for
          inserted entries *)
}

val patch : t -> changed_tables:(int * int) list -> patch
(** Rebuild against the (already mutated) network referenced by the
    graph. Per-vertex spaces are recomputed only for entries of changed
    [(switch, table)] pairs; edges and labels only where an endpoint is
    affected. The result equals a fresh {!build} of the mutated network:
    the same space and label representations, the same edges in the
    same [succ] order. *)

(** {2 Local analyses} — facts read directly off the graph, shared with
    the lint passes. *)

val find_cycle : t -> int list option
(** A directed cycle of the plumbing graph, if any — the same cycle (in
    vertex order) lint's L001 historically reported, since the edge
    construction order is identical. *)

val cycle_witness : t -> int list -> Hspace.Hs.t
(** L001's witness for a cycle: the header space at the loop head
    surviving a full round trip (backward preimage); when per-edge
    compatibility does not compose into a global round trip, the first
    edge's hand-off space instead. *)

val backward_space : ?target:Hspace.Hs.t -> t -> int list -> Hspace.Hs.t
(** Headers that can be placed in front of the first vertex of a path
    so the packet traverses the whole vertex sequence (the rule graph's
    start-space computation, over plumbing vertices). [target]
    additionally constrains where the packet must land after the last
    vertex's rewrite (default: anywhere). *)

val leak : t -> int -> (int * Hspace.Hs.t) option
(** A blackhole at one vertex: [Some (next switch, leaked space)] when
    the vertex forwards part of its output space to a switch whose
    first table matches none of it. The leaked space's cube list is the
    table-order fold [Hs.diff_cube out match] over the next hop's
    table-0 entries. *)

val leaks : t -> (Openflow.Flow_entry.t * int * Hspace.Hs.t) list
(** L002's blackholes: {!leak} over every vertex, in ascending entry
    order. *)

val stats : t -> (string * int) list
(** Vertices / edges / label cube count. *)
