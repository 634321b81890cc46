(** The incremental symbolic invariant verifier.

    An engine owns the plumbing graph of one network plus a cache of
    closure states (one per (source, avoided-switch) pair the checked
    invariants needed so far). {!check} computes the missing states,
    then evaluates each invariant against them and certifies every
    violation's witness through {!Witness.certify} before reporting it;
    a witness that fails certification raises {!Uncertified} instead of
    being reported (the acceptance gate of docs/VERIFY.md).

    {!update} consumes the same [changed_tables] edit stream as
    [Rulegraph.Rule_graph.update]: after the caller mutates the
    network's flow tables, it patches the plumbing graph and
    delta-propagates every cached state, so the next {!check} pays only
    for the affected region ([verify.edit/*] in the bench regression
    suite measures the amortized cost). *)

type t

exception Uncertified of string
(** A violation's witness failed independent certification — an engine
    bug, never a report. *)

val create : Openflow.Network.t -> t
(** Build the plumbing graph. *)

val network : t -> Openflow.Network.t

val plumbing : t -> Plumbing.t
(** The current graph (replaced by {!update}). *)

val default_invariants : Invariant.t list
(** [[Loop_free; No_blackhole]] — the network-wide invariants that need
    no switch arguments. *)

val check : t -> Invariant.t list -> Report.t
(** Evaluate the invariants, in order. Raises [Invalid_argument] when
    one fails {!Invariant.validate} against the engine's network. *)

val update : t -> changed_tables:(int * int) list -> unit
(** The network behind the engine was mutated in the given
    [(switch, table)] pairs (inserted, removed or replaced entries):
    patch the plumbing graph and delta-propagate all cached states. *)

val state : t -> source:int -> ?avoid:int -> unit -> Closure.state
(** The cached closure state for a source (computed on demand) — the
    engine's ground truth, exposed for differential tests. *)

val states_cached : t -> int
