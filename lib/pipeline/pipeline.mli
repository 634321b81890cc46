(** The planning session: the whole test-packet generation pipeline
    (rule graph → MLPC cover → header assignment → probes, Figure 2)
    held open as a value, so flow-table churn re-plans {e incrementally}
    instead of from scratch (§VIII-C: "SDNProbe can update the rule
    graph incrementally to reduce overhead").

    A session owns the network, its rule graph, the current plan and a
    header-assignment transcript memo. {!apply} pushes one batch of edits through
    all four stages — {!Rulegraph.Rule_graph.update} for the graph, a
    warm-cache cover re-solve, a memoized header assignment — and
    returns the new session plus a {!Sdnprobe.Plan.patch} describing
    exactly how the probe plan changed.

    {b Determinism contract.} Every stage of the incremental path is
    canonical: after any sequence of {!apply} calls, [plan] is
    byte-identical to [Pipeline.create] on the mutated network — same
    cover, same headers, same probes, same certificate — for any domain
    count. The only things allowed to differ are wall-clock fields
    ([generation_s]) and cache hit/miss tallies.

    Sessions plan with SDNProbe's static scheme ([Mlpc.Headers.Sat_unique]
    over the minimum cover). Randomized SDNProbe re-draws per detection
    cycle anyway, so it has nothing to reuse across edits — use
    {!Sdnprobe.Plan.randomized} for that mode ([Runner.execute] then
    re-draws with {!Sdnprobe.Plan.redraw}). *)

type t

exception Edit_error of string
(** An edit referenced a missing entry id, carried a malformed ternary
    cube, or was rejected by {!Openflow.Network.add_entry} (bad
    switch/table/port). Raised by {!apply_op} and {!apply}; see
    {!apply} for the state guarantee. *)

val create : ?pool:Sdn_parallel.Pool.t -> Openflow.Network.t -> t
(** Build a session: full rule graph, cover, headers, plan — the static
    planner — retaining everything needed to re-plan incrementally.
    Raises {!Rulegraph.Rule_graph.Cyclic_policy} on looping policies. *)

val plan : t -> Sdnprobe.Plan.t
(** The current plan. Its probes feed {!Sdnprobe.Runner.execute} and
    {!Sdnprobe.Certify.run} unchanged. *)

val network : t -> Openflow.Network.t
(** The live network the session plans for. Mutating it other than
    through {!apply} invalidates the session. *)

val rulegraph : t -> Rulegraph.Rule_graph.t

val epoch : t -> int
(** Number of {!apply} batches absorbed since {!create}. *)

val apply_op : Openflow.Network.t -> Sdn_util.Edits.op -> int * int
(** Apply one edit to a network and return the [(switch, table)] it
    touched — the unit of {!Rulegraph.Rule_graph.update}'s
    [changed_tables]. Raises {!Edit_error} on invalid edits. Exposed so
    other consumers of the edit stream ([sdnprobe verify --edits])
    mutate networks exactly the way the pipeline does. *)

val apply : t -> Sdn_util.Edits.t -> t * Sdnprobe.Plan.patch
(** Apply one batch atomically-in-intent: mutate the network, update
    the rule graph incrementally, re-solve the cover over retained
    caches, re-assign headers through the transcript memo, and diff
    the plans. The patch carries the batch itself as provenance.

    The input session must not be used afterwards: the network is
    mutated in place, so [t]'s plan no longer matches its network
    (sessions are a linear type in spirit). An empty batch returns the
    session unchanged with an empty patch.

    If an op raises {!Edit_error} (or the churn introduces a loop,
    {!Rulegraph.Rule_graph.Cyclic_policy}), earlier ops of the batch
    have already mutated the network — discard the session and rebuild
    with {!create} if you need to continue past the error. *)
