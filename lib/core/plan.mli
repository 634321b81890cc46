(** Probe-plan generation: the paper's test-packet generation stage
    (Figure 2) end to end — rule graph, MLPC, header construction.

    A generated plan keeps its rule graph so Randomized SDNProbe can
    cheaply re-draw paths each detection cycle ("tested path
    randomization can reuse the same rule graph", §V-C). *)

type mode =
  | Static  (** SDNProbe: minimum cover, SAT-unique headers *)
  | Randomized of Sdn_util.Prng.t
      (** Randomized SDNProbe: randomized greedy legal matching and
          uniform header draws *)

type t = {
  network : Openflow.Network.t;
  rulegraph : Rulegraph.Rule_graph.t;
  cover : Mlpc.Cover.t;
  probes : Probe.t list;
  generation_s : float;  (** wall-clock pre-computation time *)
  mode : mode;
      (** how the plan was drawn — carries the redraw capability: a
          [Randomized] plan re-draws fresh paths (over the kept rule
          graph) at every detection-cycle boundary of
          {!Runner.execute} *)
}

val randomized : ?pool:Sdn_parallel.Pool.t -> Sdn_util.Prng.t -> Openflow.Network.t -> t
(** A Randomized SDNProbe plan: build the rule graph, then draw a
    randomized greedy legal matching and uniform headers from [rng].
    With [pool] the header draw runs one task per start-space
    component; the plan is byte-identical for any domain count. Raises
    {!Rulegraph.Rule_graph.Cyclic_policy} on looping policies.

    Static plans (minimum cover, [Sat_unique] headers) come from
    [Pipeline.create] (library [pipeline]), which keeps the session for
    incremental re-planning. *)

val redraw : ?pool:Sdn_parallel.Pool.t -> t -> Sdn_util.Prng.t -> t
(** New randomized paths + headers over the plan's kept rule graph
    (used between detection cycles by Randomized SDNProbe). The same
    draw as {!randomized}: from a fresh PRNG of the same seed the probes
    are byte-identical. *)

val probes_of_assignment :
  Openflow.Network.t ->
  Rulegraph.Rule_graph.t ->
  (Mlpc.Cover.path * Hspace.Header.t) list ->
  Probe.t list
(** Lower an already-assigned cover to probes (probe ids are indices
    into the cover's path list). A caller can run {!Mlpc.Headers.assign}
    itself with a transcript memo ([Pipeline] does) and still produce
    probes the standard way. *)

val size : t -> int
(** Number of probes (= test packets). *)

(** {2 Plan patches}

    The delta produced by one [Pipeline.apply]: how the probe plan
    changed in response to one batch of flow-table edits. Probe ids are
    cover indices and renumber wholesale on every re-plan, so the patch
    identifies probes by their tested rule sequence (entry ids, which
    are stable): a before/after pair on the same sequence is the same
    logical probe. *)

type patch = {
  edits : Sdn_util.Edits.t;  (** the batch that caused this patch *)
  added : Probe.t list;  (** paths tested only by the new plan *)
  removed : Probe.t list;  (** paths no longer tested *)
  rewritten : (Probe.t * Probe.t) list;
      (** same path, new header — [(before, after)] *)
}

val diff : edits:Sdn_util.Edits.t -> before:Probe.t list -> after:Probe.t list -> patch
(** Multiset-match the two probe lists on their rule sequences.
    Duplicate sequences (several probes on one path) pair up in plan
    order. Probes present in both plans with an unchanged header are
    {e survivors} and appear in no list. [removed] is sorted by the old
    probe id; [added] and [rewritten] follow the new plan's order. *)

val patch_size : patch -> int
(** [|added| + |removed| + |rewritten|]. *)

val patch_is_empty : patch -> bool

val patch_to_json : patch -> Sdn_util.Json.t
(** Object with the provenance [edits] (one-batch {!Sdn_util.Edits}
    stream) and the three probe lists, each probe via
    {!Probe.to_json}. *)
