(** A single OpenFlow flow table: a priority-ordered set of entries.

    Lookup returns the highest-priority matching entry; ties are broken
    by lower entry id (OpenFlow leaves equal-priority overlap undefined —
    fixing a deterministic order keeps the emulator and the analytic
    rule graph consistent).

    A table is an array of its entries in lookup order plus their match
    fields packed by {!Hspace.Cube.pack}, so {!lookup} is a first-match
    scan over flat words. Every edit rebuilds both, in O(size). *)

type t

val empty : t

val of_entries : Flow_entry.t list -> t
(** Entries are sorted by (priority desc, id asc). *)

val entries : t -> Flow_entry.t list
(** In lookup order; a fresh list per call. *)

val fold : ('a -> Flow_entry.t -> 'a) -> 'a -> t -> 'a
(** Left fold over the entries in lookup order. *)

val size : t -> int

val add : t -> Flow_entry.t -> t

val remove : t -> int -> t
(** Remove by entry id (no-op when absent). *)

val lookup : t -> Hspace.Header.t -> Flow_entry.t option
(** First match in lookup order: highest priority wins; among entries of
    {e equal} priority the one with the lower id wins. OpenFlow leaves
    equal-priority overlap undefined, so this tiebreak is a modelling
    decision — see {!higher_priority_overlaps} for its analytic twin. *)

val higher_priority_overlaps : t -> Flow_entry.t -> Flow_entry.t list
(** The paper's overlapping rules [q >_o r]: entries of this table with
    strictly higher lookup precedence whose match intersects [r]'s.
    "Precedence" is the {!lookup} order, so an equal-priority entry with
    a lower id {e does} count as an overlap of [r], while one with a
    higher id does not — keeping [input_space]/[output_space] consistent
    with what the emulator actually executes. An entry shadowed only by
    equal-priority, lower-id rules is therefore still reported as
    shadowed (its {!input_space} is empty). *)

val input_space : t -> Flow_entry.t -> Hspace.Hs.t
(** [r.in = r.m − ∪ { q.m | q >_o r }] (§V-A). *)

val output_space : t -> Flow_entry.t -> Hspace.Hs.t
(** [r.out = T(r.in, r.s)]. *)
