(** Yen's algorithm for the K shortest loopless paths.

    The paper's evaluation installs flow entries "along paths computed by
    an all-pairs K-th shortest path algorithm" (citing Eppstein); Yen's
    algorithm is the loopless variant suited to routing-rule synthesis,
    where each path becomes a forwarding chain and must not revisit a
    switch. *)

val k_shortest : Digraph.t -> src:int -> dst:int -> k:int -> int list list
(** Up to [k] loopless paths from [src] to [dst] as vertex sequences, in
    non-decreasing weight order. Fewer than [k] results when the graph
    does not contain that many distinct loopless paths. *)

val path_weight : Digraph.t -> int list -> float
(** Total weight of a vertex sequence. Raises [Invalid_argument] if a
    listed edge is absent. *)
