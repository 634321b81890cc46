module Hs = Hspace.Hs
module Flow_entry = Openflow.Flow_entry
module Network = Openflow.Network
module Digraph = Sdngraph.Digraph

exception Cyclic_policy of int list

(* Memoized header-space queries. The MLPC solvers and the L009 lint
   audit ask for the same path spaces over and over (every candidate
   splice re-derives its chain's injectability; Cover.all_legal
   re-checks every recorded start space), so each graph carries keyed
   caches. Every key is a path spelled in ENTRY IDS, not vertex
   numbers: ids survive the renumbering of an edit, so {!update} carries
   the tables over by copying them and evicting stale keys in place.

   - [start]: keyed by path {e suffix} — start_space is a backward
     fold, so [start_space (p :: rules)] reuses the memoized
     [start_space rules], which is exactly the shape of
     [injection_plan]'s backward extension search;
   - [forward]: keyed by the whole (expanded) path;
   - [inject]: [injection_plan] results, keyed by the expanded path,
     the plan's rule chain in ids too;
   - [legal]: {!is_injectable} claims, keyed by the unexpanded chain.

   A query spells its path in ids once and shares that list: the start
   keys are its suffixes, and a table-0 head's inject key and plan are
   the list itself.

   {!build} installs empty caches, {!update} copied ones, and
   {!invalidate_caches} empties them in place (required if the
   underlying network is mutated without going through [update]).
   Hit/miss totals feed both the per-graph [cache_stats] and the global
   {!Metrics.Counter} registry.

   Concurrency: the tables are plain [Hashtbl]s, written only by the
   domain that built the graph. No query runs on a pool; a sharded
   plan builds and queries each region's graph inside one task, so
   its caches never cross domains. *)
type stats = { mutable hits : int; mutable misses : int }

type caches = {
  start : (int list, Hs.t) Hashtbl.t;
  forward : (int list, Hs.t) Hashtbl.t;
  inject : (int list, (int list * Hs.t) option) Hashtbl.t;
  legal : (int list, bool) Hashtbl.t;
      (* the MLPC solvers' claim shape: one short-list lookup replaces
         prefix expansion (witness walks, concatenation) plus the inject
         query, which is what the warm re-solve of the delta planning
         path spends its time on *)
  stats : stats;
  own : Sdn_parallel.Ownership.region;
      (* SDNPROBE_POOL_CHECK witness: only the building domain may
         write the tables *)
}

let fresh_caches () =
  {
    start = Hashtbl.create 256;
    forward = Hashtbl.create 64;
    inject = Hashtbl.create 64;
    legal = Hashtbl.create 64;
    stats = { hits = 0; misses = 0 };
    own = Sdn_parallel.Ownership.register ~name:"rule_graph.caches";
  }

let c_start_hits = Metrics.Counter.create "rulegraph.cache.start.hits"

let c_start_misses = Metrics.Counter.create "rulegraph.cache.start.misses"

let c_forward_hits = Metrics.Counter.create "rulegraph.cache.forward.hits"

let c_forward_misses = Metrics.Counter.create "rulegraph.cache.forward.misses"

let c_inject_hits = Metrics.Counter.create "rulegraph.cache.inject.hits"

let c_inject_misses = Metrics.Counter.create "rulegraph.cache.inject.misses"

let c_legal_hits = Metrics.Counter.create "rulegraph.cache.legal.hits"

let c_legal_misses = Metrics.Counter.create "rulegraph.cache.legal.misses"

type t = {
  base : Base.t; (* Step 1: vertices, spaces, base edges *)
  full : Digraph.t; (* base + closure edges *)
  witness : (int * int, int list list) Hashtbl.t;
      (* closure edge -> witness interiors, all in entry ids *)
  mutable pruned : int; (* closure expansions cut by the subsumption check *)
  caches : caches;
}

(* Witness interiors remembered per closure edge. *)
let max_witnesses = 3

let cached t table (chit, cmiss) key compute =
  let stats = t.caches.stats in
  match Hashtbl.find_opt table key with
  | Some v ->
      stats.hits <- stats.hits + 1;
      Metrics.Counter.incr chit;
      v
  | None ->
      stats.misses <- stats.misses + 1;
      Metrics.Counter.incr cmiss;
      let v = compute () in
      Sdn_parallel.Ownership.touch t.caches.own;
      Hashtbl.add table key v;
      v

let invalidate_caches t =
  Sdn_parallel.Ownership.touch t.caches.own;
  Hashtbl.reset t.caches.start;
  Hashtbl.reset t.caches.forward;
  Hashtbl.reset t.caches.inject;
  Hashtbl.reset t.caches.legal

let cache_stats t =
  [
    ("space_cache_hits", t.caches.stats.hits);
    ("space_cache_misses", t.caches.stats.misses);
  ]

let network t = t.base.network

let n_vertices t = Array.length t.base.vertices

let vertex_entry t v = t.base.vertices.(v)

let vertex_of_entry t id =
  match Hashtbl.find_opt t.base.index_of id with Some v -> v | None -> raise Not_found

let input t v = t.base.inputs.(v)

let output t v = t.base.outputs.(v)

let base_graph t = t.base.graph

let graph t = t.full

let id t v = t.base.vertices.(v).Flow_entry.id

let ids t path = List.map (id t) path

let vertices_of t ids = List.map (Hashtbl.find t.base.index_of) ids

let is_closure_edge t u v = Hashtbl.mem t.witness (id t u, id t v)

let witnesses t u v =
  match Hashtbl.find_opt t.witness (id t u, id t v) with
  | Some w -> List.map (vertices_of t) w
  | None -> []

(* Propagate a header space through one more rule (Definition 1). *)
let step (b : Base.t) hs j =
  let r = b.vertices.(j) in
  Hs.apply_set_field ~set:r.Flow_entry.set_field (Hs.inter hs b.inputs.(j))

(* Legal closure exploration from one source vertex: each distinct
   legally-reached vertex yields a closure edge with the interior of the
   discovering path as witness. Per-node subsumption pruning keeps the
   exploration polynomial in practice: a new header space at a node is
   dropped when contained in one already explored. *)
let closure_from t g u =
  let seen : (int, Hs.t list) Hashtbl.t = Hashtbl.create 16 in
  let q = Queue.create () in
  (* State: (current vertex, header space after it, interior so far in
     entry ids, reversed). *)
  Queue.add (u, t.base.outputs.(u), []) q;
  while not (Queue.is_empty q) do
    let v, hs, interior = Queue.pop q in
    List.iter
      (fun w ->
        let hs' = step t.base hs w in
        if not (Hs.is_empty hs') then begin
          let dominated =
            match Hashtbl.find_opt seen w with
            | Some prev -> List.exists (fun p -> Hs.is_subset hs' p) prev
            | None -> false
          in
          if dominated then t.pruned <- t.pruned + 1
          else begin
            Hashtbl.replace seen w
              (hs' :: (Option.value ~default:[] (Hashtbl.find_opt seen w)));
            if interior <> [] && not (Digraph.mem_edge t.base.graph u w) then begin
              let key = (id t u, id t w) in
              let ws = Option.value ~default:[] (Hashtbl.find_opt t.witness key) in
              if List.length ws < max_witnesses then begin
                Hashtbl.replace t.witness key (ws @ [ List.rev interior ]);
                Digraph.add_edge g u w
              end
            end;
            Queue.add (w, hs', id t w :: interior) q
          end
        end)
      (Digraph.succ t.base.graph v)
  done

let check_acyclic (b : Base.t) =
  match Digraph.find_cycle b.graph with
  | Some cycle ->
      raise (Cyclic_policy (List.map (fun v -> b.vertices.(v).Flow_entry.id) cycle))
  | None -> ()

let build ?(closure = true) net =
  let base = Base.build net in
  check_acyclic base;
  let t =
    {
      base;
      full = base.graph;
      witness = Hashtbl.create 64;
      pruned = 0;
      caches = fresh_caches ();
    }
  in
  if not closure then t
  else begin
    (* Step 2 over every vertex. *)
    let full = Digraph.copy base.graph in
    for u = 0 to n_vertices t - 1 do
      closure_from t full u
    done;
    { t with full }
  end

(* Incremental rebuild after flow-table churn. See the interface for
   the reuse strategy; {!Base.patch} redoes Step 1, and the per-source
   closure search from [u] can only change if [u] can reach an affected
   vertex — in the old graph (an old path may have died) or the new one
   (a new path may have appeared). *)
let update old ~changed_tables =
  let { Base.base; affected; remap = o2n } = Base.patch old.base ~changed_tables in
  check_acyclic base;
  let n = Array.length base.vertices in
  (* Closure: sources that could reach an affected vertex (old or new
     graph) are re-explored; everything else keeps its closure edges and
     witnesses. *)
  let affected_new = ref [] in
  Array.iteri (fun i a -> if a then affected_new := i :: !affected_new) affected;
  let affected_new = !affected_new in
  let ancestors g seeds =
    let mark = Array.make (Digraph.n_vertices g) false in
    let q = Queue.create () in
    List.iter
      (fun s ->
        if not mark.(s) then begin
          mark.(s) <- true;
          Queue.add s q
        end)
      seeds;
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      List.iter
        (fun p ->
          if not mark.(p) then begin
            mark.(p) <- true;
            Queue.add p q
          end)
        (Digraph.pred g v)
    done;
    mark
  in
  let affected_old =
    List.filter
      (fun ov -> o2n.(ov) < 0 || affected.(o2n.(ov)))
      (List.init (Array.length old.base.vertices) Fun.id)
  in
  (* Dirty: an ancestor of an affected vertex in the new base graph (new
     entries are affected, so dirty) or, through the map, the old one. *)
  let dirty_arr = ancestors base.graph affected_new in
  Array.iteri
    (fun ov d -> if d && o2n.(ov) >= 0 then dirty_arr.(o2n.(ov)) <- true)
    (ancestors old.base.graph affected_old);
  let dirty i = dirty_arr.(i) in
  (* Closure edges of clean sources, per source in the OLD graph's
     successor order. A clean source's reachable cone is entirely clean
     (a vertex reachable from it that could reach an affected vertex
     would make the source dirty), so a fresh build's closure
     exploration from it would traverse identical spaces over identical
     adjacency and discover the same edges in the same order — the old
     succ order IS the fresh discovery order, and its witnesses, keyed
     by entry ids, carry over verbatim. A [full] successor list is the
     base list followed by the closure edges, so the closure edges are
     what follows the base out-degree, and none of them is in the new
     base list: they append without a duplicate scan. Dirty and removed
     sources lose their witnesses; dirty ones are re-explored from
     scratch below, which appends their edges in discovery order, so
     the updated [full] is adjacency-order identical to a scratch
     build's. *)
  let full = Digraph.copy base.graph in
  let witness = Hashtbl.copy old.witness in
  Array.iteri
    (fun ou (e : Flow_entry.t) ->
      let u = o2n.(ou) and n_base = Digraph.out_degree old.base.graph ou in
      let clean = u >= 0 && not (dirty u) in
      List.iteri
        (fun k (ov, _) ->
          if k < n_base then ()
          else if clean then Digraph.add_new_edge full u o2n.(ov)
          else Hashtbl.remove witness (e.id, old.base.vertices.(ov).Flow_entry.id))
        (Digraph.succ_weighted old.full ou))
    old.base.vertices;
  (* Space-cache carry-over: every cached value is a pure function of
     the entries on its key path, so a key through no removed or
     affected entry stays valid — and, keyed by entry ids, needs no
     remapping. Injection plans survive only for table-0 heads: a
     later-table head's plan searches the head's predecessors for a
     pipeline prefix, which edits elsewhere in the switch can change.
     Legality claims are keyed by UNEXPANDED chains, so their value
     also depends on the witness expansion of each closure hop: they
     survive only when no chain vertex is removed or dirty (clean
     sources keep their witnesses verbatim) and the head enters at
     table 0. Surviving values are the exact Hs objects a recomputation
     over the unchanged per-rule spaces would rebuild, so warm lookups
     are representation-identical, not merely semantically equal.
     Eviction tests each key on its own, so the hash order of
     [filter_map_inplace] cannot matter. *)
  let changed = Hashtbl.create 64 and redone = Hashtbl.create 64 in
  let mark set (e : Flow_entry.t) = Hashtbl.replace set e.id () in
  Array.iteri
    (fun ov e -> if o2n.(ov) < 0 then (mark changed e; mark redone e))
    old.base.vertices;
  Array.iteri
    (fun i e ->
      if affected.(i) then mark changed e;
      if dirty i then mark redone e)
    base.vertices;
  let through set key = List.exists (Hashtbl.mem set) key in
  let table0 = function
    | head :: _ -> base.vertices.(Hashtbl.find base.index_of head).Flow_entry.table = 0
    | [] -> false
  in
  let carry table stale =
    let copy = Hashtbl.copy table in
    Hashtbl.filter_map_inplace (fun key v -> if stale key then None else Some v) copy;
    copy
  in
  let caches =
    {
      start = carry old.caches.start (through changed);
      forward = carry old.caches.forward (through changed);
      inject = carry old.caches.inject (fun k -> through changed k || not (table0 k));
      legal = carry old.caches.legal (fun k -> through redone k || not (table0 k));
      stats = { hits = 0; misses = 0 };
      own = Sdn_parallel.Ownership.register ~name:"rule_graph.caches";
    }
  in
  let t = { base; full; witness; pruned = old.pruned; caches } in
  for u = 0 to n - 1 do
    if dirty u then closure_from t full u
  done;
  t

let expand_pair t u v =
  if Digraph.mem_edge t.base.graph u v then [ v ]
  else
    match Hashtbl.find_opt t.witness (id t u, id t v) with
    | Some (interior :: _) -> vertices_of t interior @ [ v ]
    | Some [] | None -> invalid_arg "Rule_graph.expand_path: pair is not an edge"

let expand_path t = function
  | [] -> []
  | first :: _ as path ->
      let rec loop = function
        | [] | [ _ ] -> []
        | u :: (v :: _ as rest) -> expand_pair t u v @ loop rest
      in
      first :: loop path

let forward_space t path =
  let len = Network.header_len t.base.network in
  match path with
  | [] -> Hs.empty len
  | _ ->
      cached t t.caches.forward (c_forward_hits, c_forward_misses) (ids t path) (fun () ->
          List.fold_left (fun hs v -> step t.base hs v) (Hs.full len) path)

(* [start_space] over a path and its id spelling. Memoized on suffixes:
   the backward fold means every cached tail is reusable verbatim when
   the path is extended at the front. *)
let rec start_of t path key =
  match (path, key) with
  | v :: rest, _ :: key_rest ->
      cached t t.caches.start (c_start_hits, c_start_misses) key (fun () ->
          let after = start_of t rest key_rest in
          let r = t.base.vertices.(v) in
          Hs.inter t.base.inputs.(v) (Hs.inverse_set_field ~set:r.Flow_entry.set_field after))
  | _ -> Hs.full (Network.header_len t.base.network)

let start_space t path =
  match path with
  | [] -> Hs.empty (Network.header_len t.base.network)
  | _ -> start_of t path (ids t path)

(* [injection_plan] over a path and its id spelling; the plan comes back
   in ids. *)
let rec inject_of t rules key =
  match rules with
  | [] -> None
  | head :: _ ->
      cached t t.caches.inject (c_inject_hits, c_inject_misses) key (fun () ->
          let e = t.base.vertices.(head) in
          if e.Flow_entry.table = 0 then
            let hs = start_of t rules key in
            if Hs.is_empty hs then None else Some (key, hs)
          else
            (* Reach the head through its own switch's earlier tables. *)
            List.find_map
              (fun p ->
                let pe = t.base.vertices.(p) in
                let rules' = p :: rules and key' = pe.Flow_entry.id :: key in
                if
                  pe.Flow_entry.switch = e.Flow_entry.switch
                  && pe.Flow_entry.table < e.Flow_entry.table
                  && not (Hs.is_empty (start_of t rules' key'))
                then inject_of t rules' key'
                else None)
              (Digraph.pred t.base.graph head))

let is_legal t path = not (Hs.is_empty (forward_space t (expand_path t path)))

let injection_plan t rules =
  Option.map
    (fun (key, hs) -> (vertices_of t key, hs))
    (inject_of t rules (ids t rules))

let is_injectable t path =
  cached t t.caches.legal (c_legal_hits, c_legal_misses) (ids t path) (fun () ->
      let rules = expand_path t path in
      inject_of t rules (ids t rules) <> None)

let stats t =
  [
    ("vertices", n_vertices t);
    ("base_edges", Digraph.n_edges t.base.graph);
    ("closure_edges", Digraph.n_edges t.full - Digraph.n_edges t.base.graph);
    ("pruned", t.pruned);
  ]
