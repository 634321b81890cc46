(** SAT encodings of header-selection queries.

    The paper uses MiniSat for two queries:

    - §V-A: find a concrete header inside a rule's input space
      [r.in = r.m − ∪ overlapping q.m] (computing the input is
      NP-complete in general, but concrete witnesses are easy for SAT);
    - §VI: find a {e unique} test header for a tested path — inside the
      path's header space, outside the match of every other flow entry
      on the on-path switches, and different from all previously chosen
      test headers.

    One Boolean variable per header bit (variable [k+1] is bit [k]). *)

val encode_in_cube : Solver.t -> Hspace.Cube.t -> unit
(** Constrain the header to lie inside the cube: one unit clause per
    fixed bit. *)

val encode_not_in_cube : Solver.t -> Hspace.Cube.t -> unit
(** Constrain the header to lie outside the cube: one clause negating
    the conjunction of its fixed bits. A fully-wildcard cube makes the
    instance unsatisfiable (the empty clause). *)

val encode_differs_from : Solver.t -> Hspace.Header.t -> unit
(** Constrain the header to differ from a concrete header in at least
    one bit position (a blocking clause). *)

val find_header :
  ?avoid:Hspace.Cube.t list ->
  ?distinct_from:Hspace.Header.t list ->
  inside:Hspace.Cube.t list ->
  int ->
  Hspace.Header.t option
(** [find_header ~avoid ~distinct_from ~inside len] solves for a
    concrete [len]-bit header that lies inside {e every} cube of
    [inside], outside every cube of [avoid], and differs from every
    header in [distinct_from]. [None] when unsatisfiable. Every cube and
    header must have length [len] ([Invalid_argument] otherwise).

    The answer is {!find_header_certified}'s, bit for bit: the bits
    [inside] fixes are evaluated before the solver starts, and only the
    free bits become variables. It is not in general the least
    satisfying header. When the first member
    ({!Hspace.Cube.first_member}) of the intersection of [inside] is
    neither in [distinct_from] nor in an [avoid] cube, no clause can
    conflict, and the search returns that first member. Otherwise
    conflict learning, VSIDS bumps, phase saving and restarts steer it,
    so the answer depends on the order of [distinct_from], not only on
    its set. *)

val find_rule_input : match_:Hspace.Cube.t -> overlaps:Hspace.Cube.t list -> Hspace.Header.t option
(** The paper's §V-A query: a header matching [match_] but none of the
    higher-priority [overlaps]. *)

type certified = {
  header : Hspace.Header.t option;  (** the answer, as {!find_header} *)
  nvars : int;  (** at least the header bit-length *)
  clauses : int list list;  (** the encoded instance, DIMACS literals *)
  proof : int list list;
      (** DRUP derivation steps; ends with [[]] iff [header = None] *)
}

val find_header_certified :
  ?avoid:Hspace.Cube.t list ->
  ?distinct_from:Hspace.Header.t list ->
  inside:Hspace.Cube.t list ->
  int ->
  certified
(** {!find_header} with proof logging enabled: the same answer, plus
    everything an independent checker needs — the problem clauses for a
    [Sat] model check, the DRUP proof for an [Unsat] refutation check
    (see [Cert.Drup]). *)

val model_to_header : bool array -> int -> Hspace.Header.t
(** Decode a solver model into a header of the given bit-length. *)
