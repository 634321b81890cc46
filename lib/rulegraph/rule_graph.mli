(** The paper's rule graph (§V-A).

    Vertices are flow entries; a directed edge [(r_i, r_j)] means some
    packet can trigger [r_i], be forwarded to [r_j]'s switch (or next
    table), and trigger [r_j]. Two graphs are kept:

    - the {e base} graph [G1] from Step 1 (pairwise edges between rules
      on neighbouring switches, plus goto-table edges), built and
      patched by {!Base} — the same construction the verifier's
      plumbing graph labels;
    - the {e rule graph} [G] from Step 2: [G1] plus the legal transitive
      closure — an extra edge [(u, v)] whenever a legal path leads from
      [u] to [v]. Closure edges carry {e witness} interiors (at most
      three per edge) so they can be expanded back into real rule
      sequences (the paper's [b2 -> e2  =>  b2 -> c2 -> e2]
      conversion).

    Construction assumes the routing policy is loop-free; {!build}
    rejects cyclic policies (detectable in polynomial time, as the
    paper notes, citing NetPlumber/HSA). *)

type t

exception Cyclic_policy of int list
(** Entry ids forming a forwarding loop in the base graph. *)

val build : ?closure:bool -> Openflow.Network.t -> t
(** Build the rule graph. [closure] (default true) runs Step 2. Raises
    {!Cyclic_policy} when the forwarding policy loops. *)

val network : t -> Openflow.Network.t

val n_vertices : t -> int

val vertex_entry : t -> int -> Openflow.Flow_entry.t

val vertex_of_entry : t -> int -> int
(** Vertex index of an entry id. Raises [Not_found]. *)

val input : t -> int -> Hspace.Hs.t
(** [r.in] of the vertex. *)

val output : t -> int -> Hspace.Hs.t
(** [r.out] of the vertex. *)

val base_graph : t -> Sdngraph.Digraph.t

val graph : t -> Sdngraph.Digraph.t
(** Base graph plus closure edges (identical when built with
    [~closure:false]). *)

val is_closure_edge : t -> int -> int -> bool

val witnesses : t -> int -> int -> int list list
(** Interior vertex sequences for a closure edge (excluding endpoints);
    [\[\]] for base edges. *)

val expand_path : t -> int list -> int list
(** Replace closure edges by a witness interior, producing a path whose
    consecutive vertices are base-graph edges. Raises [Invalid_argument]
    if a pair is neither a base edge nor a closure edge. *)

val forward_space : t -> int list -> Hspace.Hs.t
(** Definition 1's [O_n]: fold [O_{i+1} = T(O_i ∩ r_{i+1}.in, r_{i+1}.s)]
    over an {e expanded} path, starting from the full space. *)

val start_space : t -> int list -> Hspace.Hs.t
(** Headers that can be injected in front of the first rule of an
    expanded path so the packet traverses the whole path (backward
    preimage computation; equal to the paper's intersection of match
    fields when all set fields are identity). *)

val is_legal : t -> int list -> bool
(** A path (in closure-graph vertices) is legal iff its expansion has a
    non-empty forward space. *)

val injection_plan : t -> int list -> (int list * Hspace.Hs.t) option
(** Injectability of an {e expanded} path: a probe enters its first
    switch through table 0, so a path starting at a later table must be
    reachable through the same switch's earlier tables with a
    compatible header. Returns the path extended with that pipeline
    prefix and the resulting injectable start space, or [None] when no
    prefix admits a packet (in single-table networks this degenerates
    to {!start_space}). *)

val is_injectable : t -> int list -> bool
(** [injection_plan] on the expansion is [Some]. The chain-legality
    predicate used by the MLPC solvers: a tested path must be both
    traversable and injectable. *)

val stats : t -> (string * int) list
(** Vertices / base edges / closure edges / pruned expansions. *)

val cache_stats : t -> (string * int) list
(** Hit/miss totals of the graph's space caches since {!build} or
    {!update} made it ([space_cache_hits] / [space_cache_misses]).
    Per-cache breakdowns are published through the global
    {!Metrics.Counter} registry as
    [rulegraph.cache.{start,forward,inject,legal}.{hits,misses}]. *)

val invalidate_caches : t -> unit
(** Empty the memoized {!start_space} / {!forward_space} /
    {!injection_plan} / {!is_injectable} caches in place. Only needed
    when the underlying network is mutated {e without} going through
    {!update} (the caches — like the per-rule spaces — are otherwise
    valid for the network state the graph was built against), or to
    benchmark cold-cache behavior. *)

val update : t -> changed_tables:(int * int) list -> t
(** Incremental rebuild after flow-table churn (§VIII-C: "SDNProbe can
    update the rule graph incrementally to reduce overhead"). The
    network referenced by the graph has already been mutated;
    [changed_tables] lists the [(switch, table)] pairs whose entries
    were added, removed or modified.

    {!Base.patch} recomputes per-rule input/output spaces only for
    entries in changed tables and base edges only where an endpoint's
    spaces changed; the legal-closure search is re-run only from
    {e dirty} vertices, those that can reach an affected vertex
    (ancestors in the old or new base graph) — every other source keeps
    its closure edges and witnesses. The witness table and the space caches are keyed by
    entry ids, which survive renumbering, so they are copied and the
    stale keys evicted: witnesses of removed or dirty sources, cache
    keys through a removed or affected entry, injection plans and
    legality claims whose head is not at table 0 (a later-table head's
    plan depends on its switch's earlier tables), and legality claims
    through a removed or dirty vertex (their witness expansion may
    change). The solvers then
    re-run warm after an edit, and [old] stays valid: it answers every
    query as before.

    The result is {e adjacency-order identical} to a fresh {!build} of
    the mutated network — same edge sets in the same [succ] order, same
    witnesses, same retained cache values bit for bit — which is what
    lets [Pipeline.apply] reproduce a scratch re-plan byte for byte
    (only the [pruned] statistic and cache hit/miss tallies may differ).
    Raises {!Cyclic_policy} if the churn introduced a loop. *)
