(** A conflict-driven clause-learning (CDCL) SAT solver.

    A from-scratch replacement for MiniSat, which the paper uses to pick
    probe headers inside a rule's input space and to find unique test
    headers (§V-B step 3, §VI). The solver implements the standard
    MiniSat architecture: two-literal watching for unit propagation,
    first-UIP conflict analysis with clause learning and backjumping,
    VSIDS-style branching activity with exponential decay, phase saving,
    and Luby-sequence restarts.

    Variables are 1-based as in DIMACS; a literal is a non-zero integer
    whose sign gives the polarity ([-3] is the negation of variable 3).

    The solver is incremental: clauses may be added between [solve]
    calls, and [solve] accepts per-call assumptions. *)

type t

type result =
  | Sat of bool array
      (** Model indexed by variable (entry 0 unused; entry [v] is the
          value of variable [v]). *)
  | Unsat

val create : ?nvars:int -> unit -> t
(** Fresh solver. [nvars] pre-allocates variables; more are created on
    demand by {!add_clause}. *)

val nvars : t -> int

val nclauses : t -> int
(** Problem clauses (excludes learnt clauses). *)

val new_var : t -> int
(** Allocate and return the next variable. *)

val add_clause : t -> int list -> unit
(** Add a clause (list of literals). Adding the empty clause, or a
    clause that is falsified at level 0, makes the instance permanently
    Unsat. Variables referenced beyond [nvars] are allocated
    automatically. *)

val add_clause_array : t -> int array -> unit
(** {!add_clause} with the literals in an array, which the solver does
    not keep: the same clause, without the list. *)

val solve : ?assumptions:int list -> t -> result
(** Decide satisfiability under the optional assumptions. The returned
    model covers all allocated variables. The solver state remains
    usable afterwards (add more clauses, solve again). *)

val stats : t -> (string * int) list
(** Counters: conflicts, decisions, propagations, restarts, learnt. *)

(** {2 DRUP proof logging}

    Opt-in witness production for certification (see {!Cert.Drup} for
    the independent checker). When enabled, the solver records every
    problem clause verbatim and every clause it derives — level-0
    strengthenings, learnt clauses, and the final empty clause on an
    (assumption-free) refutation. Each derived clause is RUP (reverse
    unit propagation) with respect to the problem clauses plus the
    earlier derivations, so the sequence is a standard DRUP proof.

    Logging is off by default and costs nothing when off (a single
    [option] test per derived clause on the conflict path). An Unsat
    under [solve ~assumptions] is {e not} an absolute refutation and
    does not produce an empty-clause step. *)

val log_proof : t -> unit
(** Start recording clauses and derivations. Must be called before the
    first {!add_clause}; raises [Invalid_argument] otherwise.
    Idempotent. *)

val proof_logging : t -> bool

val logged_clauses : t -> int list list
(** The problem clauses exactly as given to {!add_clause}, in order
    (including clauses the simplifier dropped — the proof refutes the
    caller's instance, not the solver's view of it). Empty when logging
    is off. *)

val proof : t -> int list list
(** The DRUP derivation steps so far, in order. Ends with the empty
    clause [[]] iff the instance is refuted without assumptions. Empty
    when logging is off. *)
