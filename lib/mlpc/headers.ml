module Hs = Hspace.Hs
module Cube = Hspace.Cube
module Header = Hspace.Header

type policy =
  | Deterministic
  | Sat_unique
  | Random of Sdn_util.Prng.t
  | Traffic_weighted of Traffic.t * Sdn_util.Prng.t

(* Start-space components, the [Sat_unique] SAT queries they run, and
   the blocking clauses those queries carry: the sum of their
   distinct-from lists, the assignment's quadratic term. *)
let c_components = Metrics.Counter.create "headers.components"

let c_queries = Metrics.Counter.create "headers.sat_queries"

let c_clauses = Metrics.Counter.create "headers.sat_clauses"

let sat_pick ~distinct_from hs =
  (* Try each cube of the space until the SAT query finds a header that
     differs from all previously chosen ones. *)
  match distinct_from with
  | [] ->
      (* Unconstrained query: no clause can conflict, so the solver's
         all-false first phase is its answer — the cube's first member —
         and no solver instance is needed. *)
      Option.map Header.of_cube (Hs.first_member hs)
  | _ :: _ ->
      List.find_map
        (fun cube ->
          Sat.Header_encoding.find_header ~distinct_from ~inside:[ cube ]
            (Cube.length cube))
        (Hs.cubes hs)

let random_pick rng ~distinct_from hs =
  (* Rejection sampling for distinctness; falls back to a duplicate when
     the space is smaller than the number of paths sharing it. *)
  let taken h = List.exists (Header.equal h) distinct_from in
  let rec loop attempts =
    match Hs.sample rng hs with
    | None -> None
    | Some c ->
        let h = Header.of_cube c in
        if (not (taken h)) && attempts < 64 then Some h
        else if taken h && attempts < 64 then loop (attempts + 1)
        else Some h
  in
  loop 0

let header_for_path ?(distinct_from = []) policy (p : Cover.path) =
  match policy with
  | Deterministic -> Option.map Header.of_cube (Hs.first_member p.Cover.start_space)
  | Sat_unique -> (
      match sat_pick ~distinct_from p.Cover.start_space with
      | Some h -> Some h
      | None ->
          (* Space exhausted by distinctness constraints: fall back to a
             (duplicate) deterministic member. *)
          Option.map Header.of_cube (Hs.first_member p.Cover.start_space))
  | Random rng -> random_pick rng ~distinct_from p.Cover.start_space
  | Traffic_weighted (traffic, rng) -> (
      match Traffic.sample_in traffic rng p.Cover.start_space with
      | Some h -> Some h
      | None -> random_pick rng ~distinct_from p.Cover.start_space)

(* Per-path PRNG streams: one generator per path, seeded from a single
   draw of the master generator and the path index (golden-ratio Weyl
   step, as inside splitmix64 itself). Draws for path [i] then depend
   only on (master state, i) — not on how many paths were assigned
   before it or on which domain ran it. *)
let stream_of salt i =
  Sdn_util.Prng.create
    (Int64.to_int (Int64.add salt (Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L)))

(* Transcript memo for the delta planning path. Keyed by the probe's
   rule ids, which survive graph renumbering. *)
type memo = {
  mutable transcript : (int list * Hs.t * Header.t option) array;
      (* (key, start space, chosen header) of every path of the last
         [assign], in path order. The chosen header at position [i] is a
         pure function of the path's start space and the headers chosen
         before it, so as long as a new cover's prefix matches the
         transcript — same keys, same space representations — the
         recorded choices replay verbatim, constrained SAT queries
         included. The first mismatching position invalidates the rest
         (its choice changes the seen-set every later query is
         constrained by). *)
}

let memo_create () = { transcript = [||] }

let hs_repr_equal a b =
  let ca = Hs.cubes a and cb = Hs.cubes b in
  List.compare_lengths ca cb = 0 && List.for_all2 Cube.equal ca cb

module Cube_tbl = Hashtbl.Make (struct
  type t = Cube.t

  let equal = Cube.equal

  let hash = Cube.hash
end)

(* Paths that can compete for a header. Every policy picks a path's
   header inside one of its start-space cubes, so a header taken in one
   component lies in no cube of another: each component sees exactly
   the taken headers, in the same order, that one global pass in path
   order would show it. Union-find over the distinct cubes joins the
   cubes that overlap and the cubes of one path. Components come out as
   ascending path-index arrays, largest first (the order a pool claims
   them in), ties by first path. *)
let components pols =
  let nn = Array.length pols in
  (* Number the distinct cubes in order of first appearance. *)
  let ids = Cube_tbl.create 256 and distinct = ref [] and nd = ref 0 in
  let id_of c =
    match Cube_tbl.find_opt ids c with
    | Some i -> i
    | None ->
        Cube_tbl.add ids c !nd;
        distinct := c :: !distinct;
        incr nd;
        !nd - 1
  in
  let path_cubes =
    Array.map (fun ((p : Cover.path), _) -> List.map id_of (Hs.cubes p.Cover.start_space)) pols
  in
  let uf = Sdngraph.Union_find.create !nd in
  let join a b = ignore (Sdngraph.Union_find.union uf a b) in
  Cube.iter_overlapping (Array.of_list (List.rev !distinct)) join;
  let anchor =
    Array.map (function [] -> -1 | a :: rest -> List.iter (join a) rest; a) path_cubes
  in
  (* Number components by first path; a path with an empty start space
     is a component of its own. *)
  let comp_of_root = Array.make !nd (-1) and ncomp = ref 0 in
  let fresh () =
    incr ncomp;
    !ncomp - 1
  in
  let comp =
    Array.init nn (fun i ->
        if anchor.(i) < 0 then fresh ()
        else
          let r = Sdngraph.Union_find.find uf anchor.(i) in
          if comp_of_root.(r) < 0 then comp_of_root.(r) <- fresh ();
          comp_of_root.(r))
  in
  let members = Array.make !ncomp [] in
  for i = nn - 1 downto 0 do
    members.(comp.(i)) <- i :: members.(comp.(i))
  done;
  let groups = Array.map Array.of_list members in
  Array.stable_sort (fun a b -> Int.compare (Array.length b) (Array.length a)) groups;
  groups

(* One component, in path order: accept each path's unconstrained pick
   unless an earlier path of the component took it, else run the
   constrained query. Paths before [replayed] take their transcript
   header instead. Returns the headers in [comp] order and the SAT
   query and clause counts. *)
let reconcile pols ~replayed ~transcript comp =
  (* [seen] feeds the constrained re-queries; the hash set answers the
     per-path "is this header taken" membership test, which a list scan
     would make quadratic in the component size. *)
  let seen = ref [] in
  let seen_tbl : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  (* [Sat_unique] collision path: per-cube buckets of the already-taken
     headers that lie inside the cube, in reverse-chronological order —
     the headers that the query's distinct-from list must block (the
     encoding drops a header outside the cube, so the others would
     change nothing). A bucket is seeded from [seen] when its cube is
     first queried and kept current by [record]. *)
  let buckets : (string, Header.t list ref) Hashtbl.t = Hashtbl.create 16 in
  let registered : (Cube.t * Header.t list ref) list ref = ref [] in
  let queries = ref 0 and clauses = ref 0 in
  let record h =
    seen := h :: !seen;
    Hashtbl.replace seen_tbl (Header.to_string h) ();
    List.iter
      (fun (cube, b) -> if Header.matches h cube then b := h :: !b)
      !registered
  in
  let bucket_for cube =
    let ckey = Cube.to_string cube in
    match Hashtbl.find_opt buckets ckey with
    | Some b -> b
    | None ->
        let b = ref (List.filter (fun h -> Header.matches h cube) !seen) in
        Hashtbl.add buckets ckey b;
        registered := (cube, b) :: !registered;
        b
  in
  let pick_unique (p : Cover.path) =
    let rec try_cubes = function
      | [] ->
          (* Every cube exhausted by distinctness: same duplicate
             fallback as [header_for_path]. *)
          Option.map Header.of_cube (Hs.first_member p.Cover.start_space)
      | cube :: rest -> (
          let distinct_from = !(bucket_for cube) in
          incr queries;
          clauses := !clauses + List.length distinct_from;
          match
            Sat.Header_encoding.find_header ~distinct_from ~inside:[ cube ]
              (Cube.length cube)
          with
          | Some h -> Some h
          | None -> try_cubes rest)
    in
    try_cubes (Hs.cubes p.Cover.start_space)
  in
  let pick i =
    if i < replayed then
      let _, _, h = transcript.(i) in
      h
    else
      let p, pol = pols.(i) in
      let taken h = Hashtbl.mem seen_tbl (Header.to_string h) in
      match header_for_path pol p with
      | Some h when not (taken h) -> Some h
      | _ -> (
          match pol with
          | Sat_unique -> pick_unique p
          | _ -> header_for_path ~distinct_from:!seen pol p)
  in
  let headers =
    Array.map
      (fun i ->
        let h = pick i in
        Option.iter record h;
        h)
      comp
  in
  (headers, !queries, !clauses)

let assign ?pool ?memo ?(key = fun (p : Cover.path) -> p.Cover.rules) policy
    (cover : Cover.t) =
  (* Split randomized policies into per-path streams (see [stream_of]);
     [Deterministic] / [Sat_unique] are shared as-is. The array is
     materialized once, so a path draws from the same stream object for
     its unconstrained pick and any constrained retry. *)
  let per_path =
    match policy with
    | Deterministic | Sat_unique -> fun _ -> policy
    | Random master ->
        let salt = Sdn_util.Prng.bits64 master in
        fun i -> Random (stream_of salt i)
    | Traffic_weighted (traffic, master) ->
        let salt = Sdn_util.Prng.bits64 master in
        fun i -> Traffic_weighted (traffic, stream_of salt i)
  in
  let pols =
    Array.of_list cover.Cover.paths |> Array.mapi (fun i p -> (p, per_path i))
  in
  let nn = Array.length pols in
  (* The memo only applies to the pure policies: a randomized draw must
     not be replayed from a cache. *)
  let memo =
    match (memo, policy) with
    | Some m, (Deterministic | Sat_unique) -> Some m
    | _ -> None
  in
  (* Replay the memoized transcript while the cover's prefix matches it
     (see the [memo] type); reconciliation takes over from the first
     divergence on. *)
  let transcript = match memo with Some m -> m.transcript | None -> [||] in
  let rec matching i =
    if i < nn && i < Array.length transcript then
      let p, _ = pols.(i) in
      let k0, hs0, _ = transcript.(i) in
      if k0 = key p && hs_repr_equal hs0 p.Cover.start_space then matching (i + 1)
      else i
    else i
  in
  let replayed = matching 0 in
  let comps = components pols in
  let run = reconcile pols ~replayed ~transcript in
  let results =
    match pool with
    | Some pl when Sdn_parallel.Pool.domains pl > 1 -> Sdn_parallel.Pool.map pl run comps
    | _ -> Array.map run comps
  in
  let out = Array.make nn None in
  Array.iteri
    (fun c (headers, queries, clauses) ->
      Array.iteri (fun k i -> out.(i) <- headers.(k)) comps.(c);
      Metrics.Counter.add c_queries queries;
      Metrics.Counter.add c_clauses clauses)
    results;
  Metrics.Counter.add c_components (Array.length comps);
  (match memo with
  | Some m ->
      m.transcript <-
        Array.mapi (fun i (p, _) -> (key p, p.Cover.start_space, out.(i))) pols
  | None -> ());
  Array.to_list pols
  |> List.mapi (fun i (p, _) -> Option.map (fun h -> (p, h)) out.(i))
  |> List.filter_map Fun.id
