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
  network : Network.t;
  vertices : Flow_entry.t array;
  index_of : (int, int) Hashtbl.t; (* entry id -> vertex *)
  inputs : Hs.t array;
  outputs : Hs.t array;
  base : Digraph.t;
  full : Digraph.t; (* base + closure edges *)
  witness : (int * int, int list list) Hashtbl.t;
      (* closure edge -> witness interiors, all in entry ids *)
  mutable pruned : int; (* closure expansions cut by the subsumption check *)
  caches : caches;
}

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

let network t = t.network

let n_vertices t = Array.length t.vertices

let vertex_entry t v = t.vertices.(v)

let vertex_of_entry t id =
  match Hashtbl.find_opt t.index_of id with Some v -> v | None -> raise Not_found

let input t v = t.inputs.(v)

let output t v = t.outputs.(v)

let base_graph t = t.base

let graph t = t.full

let id t v = t.vertices.(v).Flow_entry.id

let ids t path = List.map (id t) path

let vertices_of t ids = List.map (Hashtbl.find t.index_of) ids

let is_closure_edge t u v = Hashtbl.mem t.witness (id t u, id t v)

let witnesses t u v =
  match Hashtbl.find_opt t.witness (id t u, id t v) with
  | Some w -> List.map (vertices_of t) w
  | None -> []

(* Hull prefilter for the all-pairs edge scans. [Hs.inter out in] over
   shadow-fragmented spaces is the superlinear hotspot of the flat
   build (every cube of one side against every cube of the other, plus
   the quadratic subsumption pass on the pieces) — at 200 switches it
   dominates the build. A space's hull (smallest enclosing cube) is a
   one-word-per-chunk summary: disjoint hulls imply an empty
   intersection, so the expensive [Hs.inter] only runs on pairs whose
   hulls overlap. [None] = empty space, which can never contribute an
   edge. See docs/PERF.md for before/after numbers. *)
let hull_memo spaces =
  let memo = Array.make (Array.length spaces) None in
  fun i ->
    match memo.(i) with
    | Some h -> h
    | None ->
        let h = Hs.hull spaces.(i) in
        memo.(i) <- Some h;
        h

let may_intersect out_hull in_hull i j =
  match (out_hull i, in_hull j) with
  | Some a, Some b -> not (Hspace.Cube.disjoint a b)
  | _ -> false

(* Step 1: pairwise edges. An edge (r_i, r_j) exists iff r_j sits where
   r_i's action sends the packet and r_i.out ∩ r_j.in ≠ ∅.

   The scan is all-pairs between neighboring tables, so every table is
   visited once per rule that feeds it — resolving its entry list and
   each entry's vertex index through hashtables on every visit was the
   other half of the superlinear hotspot (20M+ lookups at 200-switch
   default policy). Candidate vertex arrays are resolved once per
   table; edge order is unchanged (table entry order either way). *)
let build_base net vertices index_of inputs outputs =
  let n = Array.length vertices in
  let g = Digraph.create n in
  let out_hull = hull_memo outputs and in_hull = hull_memo inputs in
  let table_verts = Hashtbl.create 64 in
  let verts_at ~switch ~table =
    match Hashtbl.find_opt table_verts (switch, table) with
    | Some a -> a
    | None ->
        let a =
          Array.of_list
            (List.map
               (fun (q : Flow_entry.t) -> Hashtbl.find index_of q.id)
               (Openflow.Flow_table.entries (Network.table net ~switch ~table)))
        in
        Hashtbl.add table_verts (switch, table) a;
        a
  in
  for i = 0 to n - 1 do
    let r = vertices.(i) in
    let candidates =
      match r.Flow_entry.action with
      | Flow_entry.Drop -> [||]
      | Flow_entry.Output _ -> (
          match Network.next_switch net r with
          | None -> [||]
          | Some sw -> verts_at ~switch:sw ~table:0)
      | Flow_entry.Goto_table tb -> verts_at ~switch:r.Flow_entry.switch ~table:tb
    in
    match out_hull i with
    | None -> ()
    | Some hi ->
        Array.iter
          (fun j ->
            let overlaps =
              match in_hull j with
              | Some hj -> not (Hspace.Cube.disjoint hi hj)
              | None -> false
            in
            if overlaps && Hs.inter_nonempty outputs.(i) inputs.(j) then
              Digraph.add_edge g i j)
          candidates
  done;
  g

(* Propagate a header space through one more rule (Definition 1). *)
let step inputs vertices hs j =
  let r = vertices.(j) in
  Hs.apply_set_field ~set:r.Flow_entry.set_field (Hs.inter hs inputs.(j))

(* Legal closure exploration from one source vertex: each distinct
   legally-reached vertex yields a closure edge with the interior of the
   discovering path as witness. Per-node subsumption pruning keeps the
   exploration polynomial in practice: a new header space at a node is
   dropped when contained in one already explored. *)
let closure_from t g u ~max_witnesses =
  let seen : (int, Hs.t list) Hashtbl.t = Hashtbl.create 16 in
  let q = Queue.create () in
  (* State: (current vertex, header space after it, interior so far in
     entry ids, reversed). *)
  Queue.add (u, t.outputs.(u), []) q;
  while not (Queue.is_empty q) do
    let v, hs, interior = Queue.pop q in
    List.iter
      (fun w ->
        let hs' = step t.inputs t.vertices hs w in
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
            if interior <> [] && not (Digraph.mem_edge t.base u w) then begin
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
      (Digraph.succ t.base v)
  done

(* Step 2 over every vertex. *)
let build_closure t ~max_witnesses =
  let g = Digraph.copy t.base in
  for u = 0 to n_vertices t - 1 do
    closure_from t g u ~max_witnesses
  done;
  g

let build ?(closure = true) ?(max_witnesses = 3) net =
  let vertices = Array.of_list (Network.all_entries net) in
  let index_of = Hashtbl.create (Array.length vertices) in
  Array.iteri (fun i (e : Flow_entry.t) -> Hashtbl.add index_of e.id i) vertices;
  let inputs = Array.map (Network.input_space net) vertices in
  let outputs = Array.map (Network.output_space net) vertices in
  let base = build_base net vertices index_of inputs outputs in
  (match Digraph.find_cycle base with
  | Some cycle -> raise (Cyclic_policy (List.map (fun v -> vertices.(v).Flow_entry.id) cycle))
  | None -> ());
  let t =
    {
      network = net;
      vertices;
      index_of;
      inputs;
      outputs;
      base;
      full = base;
      witness = Hashtbl.create 64;
      pruned = 0;
      caches = fresh_caches ();
    }
  in
  if closure then { t with full = build_closure t ~max_witnesses } else t

(* Incremental rebuild after flow-table churn. See the interface for
   the reuse strategy; correctness rests on three observations:
   - input/output spaces depend only on an entry's own table;
   - a base edge depends only on its endpoints' spaces (and the fixed
     topology);
   - the per-source closure search from [u] can only change if [u] can
     reach an affected vertex — in the old graph (an old path may have
     died) or the new one (a new path may have appeared). *)
let update ?(max_witnesses = 3) old ~changed_tables =
  let net = old.network in
  let vertices = Array.of_list (Network.all_entries net) in
  let n = Array.length vertices in
  let index_of = Hashtbl.create n in
  Array.iteri (fun i (e : Flow_entry.t) -> Hashtbl.add index_of e.id i) vertices;
  let in_changed (e : Flow_entry.t) =
    List.exists (fun (sw, tb) -> sw = e.switch && tb = e.table) changed_tables
  in
  (* Space-diff marking (the incremental verifier's trick): entries of a
     changed table have their input/output spaces recomputed, but only
     those whose REPRESENTATION actually differs — plus brand-new
     entries — count as affected. Removing a low-priority rule leaves
     every rule it never shadowed bit-identical, so the affected set
     tracks the semantic edit size, not the table size; everything
     downstream (edge recomputation, closure dirtiness, cache
     retention) shrinks with it. Representation equality (same cubes in
     the same order), not mere set equality, is required: retained
     caches and copied spaces must match a scratch build bit for bit. *)
  let hs_repr_equal a b =
    let ca = Hs.cubes a and cb = Hs.cubes b in
    List.compare_lengths ca cb = 0 && List.for_all2 Hspace.Cube.equal ca cb
  in
  let empty = Hs.empty (Network.header_len net) in
  let affected_arr = Array.make n false in
  let inputs = Array.make n empty in
  let outputs = Array.make n empty in
  Array.iteri
    (fun i (e : Flow_entry.t) ->
      match Hashtbl.find_opt old.index_of e.id with
      | Some ov when not (in_changed e) ->
          inputs.(i) <- old.inputs.(ov);
          outputs.(i) <- old.outputs.(ov)
      | Some ov ->
          let inp = Network.input_space net e
          and out = Network.output_space net e in
          inputs.(i) <- inp;
          outputs.(i) <- out;
          if
            not
              (hs_repr_equal inp old.inputs.(ov)
              && hs_repr_equal out old.outputs.(ov))
          then affected_arr.(i) <- true
      | None ->
          inputs.(i) <- Network.input_space net e;
          outputs.(i) <- Network.output_space net e;
          affected_arr.(i) <- true)
    vertices;
  (* On new entries [affected] reads the array; on removed ones (only
     reachable through [old.vertices]) it is vacuously true. *)
  let affected (e : Flow_entry.t) =
    match Hashtbl.find_opt index_of e.id with
    | Some i -> affected_arr.(i)
    | None -> true
  in
  (* Base edges: copy edges between unaffected endpoints; recompute the
     rest. Candidate predecessors of an affected vertex live on switches
     linked into its switch (or earlier tables of the same switch). *)
  let base = Digraph.create n in
  Digraph.iter_edges
    (fun ou ov ->
      let eu = old.vertices.(ou) and ev = old.vertices.(ov) in
      if not (affected eu || affected ev) then
        match (Hashtbl.find_opt index_of eu.id, Hashtbl.find_opt index_of ev.id) with
        | Some i, Some j -> Digraph.add_edge base i j
        | _ -> ())
    old.base;
  let entries_at ~switch ~table =
    Openflow.Flow_table.entries (Network.table net ~switch ~table)
  in
  let out_hull = hull_memo outputs and in_hull = hull_memo inputs in
  let try_edge i j =
    if
      may_intersect out_hull in_hull i j
      && Hs.inter_nonempty outputs.(i) inputs.(j)
    then Digraph.add_edge base i j
  in
  let candidates_from i =
    let r = vertices.(i) in
    match r.Flow_entry.action with
    | Flow_entry.Drop -> []
    | Flow_entry.Output _ -> (
        match Network.next_switch net r with
        | None -> []
        | Some sw -> entries_at ~switch:sw ~table:0)
    | Flow_entry.Goto_table tb -> entries_at ~switch:r.Flow_entry.switch ~table:tb
  in
  (* Does executing [p] hand the packet to rule [q]'s flow table? *)
  let leads_to (p : Flow_entry.t) (q : Flow_entry.t) =
    match p.action with
    | Flow_entry.Drop -> false
    | Flow_entry.Output _ ->
        q.table = 0 && Network.next_switch net p = Some q.switch
    | Flow_entry.Goto_table tb -> p.switch = q.switch && tb = q.table
  in
  Array.iteri
    (fun i (e : Flow_entry.t) ->
      if affected e then begin
        (* Outgoing edges of the affected vertex. *)
        List.iter
          (fun (q : Flow_entry.t) -> try_edge i (Hashtbl.find index_of q.id))
          (candidates_from i);
        (* Incoming edges: rules on switches linked into ours, plus
           earlier tables of the same switch (goto sources). *)
        let topo = Network.topology net in
        let feeders =
          List.concat_map
            (fun sw ->
              List.concat_map
                (fun tb -> entries_at ~switch:sw ~table:tb)
                (List.init (Network.n_tables net) Fun.id))
            (Openflow.Topology.neighbors topo e.switch)
          @ List.concat_map
              (fun tb -> entries_at ~switch:e.switch ~table:tb)
              (List.init e.table Fun.id)
        in
        List.iter
          (fun (p : Flow_entry.t) ->
            if leads_to p e then try_edge (Hashtbl.find index_of p.id) i)
          feeders
      end)
    vertices;
  (* The edge SET above is that of a fresh build, but the insertion
     ORDER is not (copied edges first, recomputed ones appended) — and
     [Digraph.succ] exposes insertion order, which the MLPC augmentation
     search consults candidate by candidate. Re-insert every edge in
     [build_base]'s canonical order so an updated graph is
     adjacency-order identical to a scratch build: the delta planning
     path relies on this to reproduce a scratch re-plan byte for byte.
     All successors of a vertex live in one flow table (the next
     switch's table 0, or a later table of the same switch), and
     [build_base] visits candidates in that table's entry order — so
     sorting each successor list by table rank reproduces the canonical
     order without re-scanning whole candidate tables. *)
  let base =
    let g = Digraph.create n in
    let rank_tbl = Hashtbl.create 16 in
    let rank_of (q : Flow_entry.t) =
      let key = (q.Flow_entry.switch, q.Flow_entry.table) in
      let tbl =
        match Hashtbl.find_opt rank_tbl key with
        | Some tbl -> tbl
        | None ->
            let tbl = Hashtbl.create 64 in
            List.iteri
              (fun k (e : Flow_entry.t) -> Hashtbl.add tbl e.id k)
              (entries_at ~switch:q.Flow_entry.switch ~table:q.Flow_entry.table);
            Hashtbl.add rank_tbl key tbl;
            tbl
      in
      Hashtbl.find tbl q.Flow_entry.id
    in
    Array.iteri
      (fun i (_ : Flow_entry.t) ->
        Digraph.succ base i
        |> List.map (fun j -> (rank_of vertices.(j), j))
        |> List.sort compare
        |> List.iter (fun (_, j) -> Digraph.add_edge g i j))
      vertices;
    g
  in
  (match Digraph.find_cycle base with
  | Some cycle ->
      raise (Cyclic_policy (List.map (fun v -> vertices.(v).Flow_entry.id) cycle))
  | None -> ());
  (* Closure: sources that could reach an affected vertex (old or new
     graph) are re-explored; everything else keeps its closure edges and
     witnesses. *)
  let affected_new = ref [] in
  Array.iteri (fun i e -> if affected e then affected_new := i :: !affected_new) vertices;
  let affected_new = !affected_new in
  let ancestors g seeds =
    let tr = Digraph.transpose g in
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
        (Digraph.succ tr v)
    done;
    mark
  in
  (* Old-index -> new-index map (-1 = removed), so the dirtiness marking
     and the closure copy below remap with array reads instead of
     per-vertex hashtable lookups. *)
  let o2n =
    Array.map
      (fun (e : Flow_entry.t) -> Option.value ~default:(-1) (Hashtbl.find_opt index_of e.id))
      old.vertices
  in
  let affected_old =
    List.filter
      (fun ov -> o2n.(ov) < 0 || affected_arr.(o2n.(ov)))
      (List.init (Array.length old.vertices) Fun.id)
  in
  (* Dirty: an ancestor of an affected vertex in the new base graph (new
     entries are affected, so dirty) or, through the map, the old one. *)
  let dirty_arr = ancestors base affected_new in
  Array.iteri
    (fun ov d -> if d && o2n.(ov) >= 0 then dirty_arr.(o2n.(ov)) <- true)
    (ancestors old.base affected_old);
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
  let full = Digraph.copy base in
  let witness = Hashtbl.copy old.witness in
  Array.iteri
    (fun ou (e : Flow_entry.t) ->
      let u = o2n.(ou) and n_base = Digraph.out_degree old.base ou in
      let clean = u >= 0 && not (dirty u) in
      List.iteri
        (fun k (ov, _) ->
          if k < n_base then ()
          else if clean then Digraph.add_new_edge full u o2n.(ov)
          else Hashtbl.remove witness (e.id, old.vertices.(ov).Flow_entry.id))
        (Digraph.succ_weighted old.full ou))
    old.vertices;
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
    old.vertices;
  Array.iteri
    (fun i e ->
      if affected_arr.(i) then mark changed e;
      if dirty i then mark redone e)
    vertices;
  let through set key = List.exists (Hashtbl.mem set) key in
  let table0 = function
    | head :: _ -> vertices.(Hashtbl.find index_of head).Flow_entry.table = 0
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
  let t =
    {
      network = net;
      vertices;
      index_of;
      inputs;
      outputs;
      base;
      full;
      witness;
      pruned = old.pruned;
      caches;
    }
  in
  for u = 0 to n - 1 do
    if dirty u then closure_from t full u ~max_witnesses
  done;
  t

let expand_pair t u v =
  if Digraph.mem_edge t.base u v then [ v ]
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
  let len = Network.header_len t.network in
  match path with
  | [] -> Hs.empty len
  | _ ->
      cached t t.caches.forward (c_forward_hits, c_forward_misses) (ids t path) (fun () ->
          List.fold_left (fun hs v -> step t.inputs t.vertices hs v) (Hs.full len) path)

(* [start_space] over a path and its id spelling. Memoized on suffixes:
   the backward fold means every cached tail is reusable verbatim when
   the path is extended at the front. *)
let rec start_of t path key =
  match (path, key) with
  | v :: rest, _ :: key_rest ->
      cached t t.caches.start (c_start_hits, c_start_misses) key (fun () ->
          let after = start_of t rest key_rest in
          let r = t.vertices.(v) in
          Hs.inter t.inputs.(v) (Hs.inverse_set_field ~set:r.Flow_entry.set_field after))
  | _ -> Hs.full (Network.header_len t.network)

let start_space t path =
  match path with
  | [] -> Hs.empty (Network.header_len t.network)
  | _ -> start_of t path (ids t path)

(* [injection_plan] over a path and its id spelling; the plan comes back
   in ids. *)
let rec inject_of t rules key =
  match rules with
  | [] -> None
  | head :: _ ->
      cached t t.caches.inject (c_inject_hits, c_inject_misses) key (fun () ->
          let e = t.vertices.(head) in
          if e.Flow_entry.table = 0 then
            let hs = start_of t rules key in
            if Hs.is_empty hs then None else Some (key, hs)
          else
            (* Reach the head through its own switch's earlier tables. *)
            List.find_map
              (fun p ->
                let pe = t.vertices.(p) in
                let rules' = p :: rules and key' = pe.Flow_entry.id :: key in
                if
                  pe.Flow_entry.switch = e.Flow_entry.switch
                  && pe.Flow_entry.table < e.Flow_entry.table
                  && not (Hs.is_empty (start_of t rules' key'))
                then inject_of t rules' key'
                else None)
              (Digraph.pred t.base head))

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
    ("base_edges", Digraph.n_edges t.base);
    ("closure_edges", Digraph.n_edges t.full - Digraph.n_edges t.base);
    ("pruned", t.pruned);
  ]
