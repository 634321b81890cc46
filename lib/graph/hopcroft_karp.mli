(** Hopcroft–Karp maximum bipartite matching in O(E √V).

    The bipartite graph has [nl] left vertices and [nr] right vertices;
    [adj.(u)] lists the right neighbours of left vertex [u]. This is the
    unmodified algorithm; the MLPC solver layers the paper's
    legal-augmenting-path restriction on top (see {!Mlpc.Legal_matching}). *)

type matching = {
  match_l : int array;  (** left vertex -> matched right vertex or -1 *)
  match_r : int array;  (** right vertex -> matched left vertex or -1 *)
  size : int;  (** number of matched pairs *)
}

val run : nl:int -> nr:int -> int list array -> matching
(** Maximum matching. [adj] must have length [nl] and neighbour indices
    in [\[0, nr)]. *)

val konig_cover :
  nl:int -> nr:int -> int list array -> matching -> int list * int list
(** [(cover_l, cover_r)] — a vertex cover built by König's construction
    ((L \ Z) ∪ (R ∩ Z) for Z the alternating-path closure of the free
    left vertices). When the input matching is maximum the cover has
    the same cardinality, which is exactly the certificate
    {!Cert.Konig.check} validates; for a non-maximum matching the
    construction may miss edges, and the checker will say so. *)
