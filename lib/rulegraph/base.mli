(** Step 1 of the paper's rule graph (§V-A): the base graph [G1].

    Vertices are the network's flow entries (ascending id, like
    {!Openflow.Network.all_entries}), each with its [r.in] (match minus
    higher-precedence matches of its own table) and [r.out]
    ([T(r.in, r.set)]). A directed edge [(r_i, r_j)] exists when [r_i]'s
    action hands the packet to [r_j]'s flow table (the next switch's
    table 0 for an output, a later table of the same switch for a goto)
    and [r_i.out ∩ r_j.in ≠ ∅]; a vertex's successors come in its target
    table's entry order.

    This is the one construction both clients extend: {!Rule_graph} adds
    the cycle check and the legal closure (Step 2), [Verify.Plumbing]
    adds edge labels, and lint reads its spaces through the latter. *)

type t = private {
  network : Openflow.Network.t;
  vertices : Openflow.Flow_entry.t array;
  index_of : (int, int) Hashtbl.t;  (** entry id -> vertex *)
  inputs : Hspace.Hs.t array;  (** [r.in] per vertex *)
  outputs : Hspace.Hs.t array;  (** [r.out] per vertex *)
  graph : Sdngraph.Digraph.t;
}

val build : Openflow.Network.t -> t

type patch = {
  base : t;  (** the graph of the mutated network *)
  affected : bool array;
      (** per new vertex: a new entry, or one whose recomputed spaces
          differ in representation from the old ones. Edges between
          unaffected vertices are copied from the old graph. *)
  remap : int array;  (** old vertex -> new vertex, [-1] for removed entries *)
}

val patch : t -> changed_tables:(int * int) list -> patch
(** Rebuild against the (already mutated) network after flow-table
    churn; [changed_tables] lists the [(switch, table)] pairs whose
    entries were added, removed or modified. Spaces are recomputed only
    for entries of changed tables, edges only around affected vertices,
    and the result equals a fresh {!build} of the mutated network: the
    same space representations, the same edges in the same [succ]
    order. *)
