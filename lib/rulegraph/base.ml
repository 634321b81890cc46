module Hs = Hspace.Hs
module Flow_entry = Openflow.Flow_entry
module Network = Openflow.Network
module Digraph = Sdngraph.Digraph

type t = {
  network : Network.t;
  vertices : Flow_entry.t array;
  index_of : (int, int) Hashtbl.t; (* entry id -> vertex *)
  inputs : Hs.t array;
  outputs : Hs.t array;
  graph : Digraph.t;
}

let index vertices =
  let index_of = Hashtbl.create (Array.length vertices) in
  Array.iteri (fun i (e : Flow_entry.t) -> Hashtbl.add index_of e.id i) vertices;
  index_of

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

(* A flow table's vertices in its entry (lookup) order. The edge scan is
   all-pairs between neighboring tables, so every table is visited once
   per rule that feeds it — resolving its entry list and each entry's
   vertex index through hashtables on every visit was the other half of
   the superlinear hotspot (20M+ lookups at 200-switch default policy).
   Each table is resolved once. *)
let table_vertices net index_of =
  let memo = Hashtbl.create 64 in
  fun ~switch ~table ->
    match Hashtbl.find_opt memo (switch, table) with
    | Some a -> a
    | None ->
        let a =
          Array.of_list
            (List.map
               (fun (q : Flow_entry.t) -> Hashtbl.find index_of q.id)
               (Openflow.Flow_table.entries (Network.table net ~switch ~table)))
        in
        Hashtbl.add memo (switch, table) a;
        a

(* Where rule [r]'s action hands the packet: the next switch's table 0
   for an output onto a live link, a later table of the same switch for
   a goto. *)
let candidates net verts_at (r : Flow_entry.t) =
  match r.action with
  | Flow_entry.Drop -> [||]
  | Flow_entry.Output _ -> (
      match Network.next_switch net r with
      | None -> [||]
      | Some sw -> verts_at ~switch:sw ~table:0)
  | Flow_entry.Goto_table tb -> verts_at ~switch:r.switch ~table:tb

(* Step 1: pairwise edges. An edge (r_i, r_j) exists iff r_j sits where
   r_i's action sends the packet and r_i.out ∩ r_j.in ≠ ∅. Successors
   are inserted in their table's entry order. *)
let build net =
  let vertices = Array.of_list (Network.all_entries net) in
  let index_of = index vertices in
  let inputs = Array.map (Network.input_space net) vertices in
  let outputs = Array.map (Network.output_space net) vertices in
  let graph = Digraph.create (Array.length vertices) in
  let out_hull = hull_memo outputs and in_hull = hull_memo inputs in
  let verts_at = table_vertices net index_of in
  Array.iteri
    (fun i r ->
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
                Digraph.add_edge graph i j)
            (candidates net verts_at r))
    vertices;
  { network = net; vertices; index_of; inputs; outputs; graph }

type patch = { base : t; affected : bool array; remap : int array }

(* Incremental rebuild after flow-table churn. Correctness rests on two
   observations: input/output spaces depend only on an entry's own
   table, and a base edge depends only on its endpoints' spaces (and
   the fixed topology). *)
let patch old ~changed_tables =
  let net = old.network in
  let vertices = Array.of_list (Network.all_entries net) in
  let n = Array.length vertices in
  let index_of = index vertices in
  let in_changed (e : Flow_entry.t) =
    List.exists (fun (sw, tb) -> sw = e.switch && tb = e.table) changed_tables
  in
  (* Space-diff marking: entries of a changed table have their
     input/output spaces recomputed, but only those whose REPRESENTATION
     actually differs — plus brand-new entries — count as affected.
     Removing a low-priority rule leaves every rule it never shadowed
     bit-identical, so the affected set tracks the semantic edit size,
     not the table size; everything downstream (edge recomputation, the
     planner's closure dirtiness and cache retention, the verifier's
     re-propagation wavefront) shrinks with it. Representation equality
     (same cubes in the same order), not mere set equality, is required:
     retained caches and copied spaces must match a scratch build bit
     for bit. *)
  let hs_repr_equal a b =
    let ca = Hs.cubes a and cb = Hs.cubes b in
    List.compare_lengths ca cb = 0 && List.for_all2 Hspace.Cube.equal ca cb
  in
  let empty = Hs.empty (Network.header_len net) in
  let affected = Array.make n false in
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
          then affected.(i) <- true
      | None ->
          inputs.(i) <- Network.input_space net e;
          outputs.(i) <- Network.output_space net e;
          affected.(i) <- true)
    vertices;
  let remap =
    Array.map
      (fun (e : Flow_entry.t) -> Option.value ~default:(-1) (Hashtbl.find_opt index_of e.id))
      old.vertices
  in
  (* Copy edges between surviving unaffected endpoints; recompute the
     rest. Dispatch between two surviving entries never changes (actions
     are immutable, the topology is fixed, and an entry stays in its
     table), so a copied edge is still an edge and no new edge can
     appear between unaffected pairs. Candidate predecessors of an
     affected vertex live on switches linked into its switch (or earlier
     tables of the same switch). *)
  let graph = Digraph.create n in
  Digraph.iter_edges
    (fun ou ov ->
      let i = remap.(ou) and j = remap.(ov) in
      if i >= 0 && j >= 0 && not (affected.(i) || affected.(j)) then
        Digraph.add_new_edge graph i j)
    old.graph;
  let out_hull = hull_memo outputs and in_hull = hull_memo inputs in
  let try_edge i j =
    if may_intersect out_hull in_hull i j && Hs.inter_nonempty outputs.(i) inputs.(j)
    then Digraph.add_edge graph i j
  in
  let verts_at = table_vertices net index_of in
  (* Does executing [p] hand the packet to rule [q]'s flow table? *)
  let leads_to (p : Flow_entry.t) (q : Flow_entry.t) =
    match p.action with
    | Flow_entry.Drop -> false
    | Flow_entry.Output _ ->
        q.table = 0 && Network.next_switch net p = Some q.switch
    | Flow_entry.Goto_table tb -> p.switch = q.switch && tb = q.table
  in
  let topo = Network.topology net in
  Array.iteri
    (fun i (e : Flow_entry.t) ->
      if affected.(i) then begin
        (* Outgoing edges of the affected vertex. *)
        Array.iter (try_edge i) (candidates net verts_at e);
        (* Incoming edges: rules on switches linked into ours, plus
           earlier tables of the same switch (goto sources). *)
        let feed_from ~switch ~table =
          Array.iter
            (fun j -> if leads_to vertices.(j) e then try_edge j i)
            (verts_at ~switch ~table)
        in
        List.iter
          (fun sw ->
            for tb = 0 to Network.n_tables net - 1 do
              feed_from ~switch:sw ~table:tb
            done)
          (Openflow.Topology.neighbors topo e.switch);
        for tb = 0 to e.table - 1 do
          feed_from ~switch:e.switch ~table:tb
        done
      end)
    vertices;
  (* The edge SET above is that of a fresh build, but the insertion
     ORDER is not (copied edges first, recomputed ones appended) — and
     [Digraph.succ] exposes insertion order, which the MLPC augmentation
     search consults candidate by candidate. Re-insert every edge in
     {!build}'s canonical order so a patched graph is adjacency-order
     identical to a scratch build: the delta planning path relies on
     this to reproduce a scratch re-plan byte for byte. All successors
     of a vertex live in one flow table (the next switch's table 0, or a
     later table of the same switch), and {!build} visits candidates in
     that table's entry order — so sorting each successor list by table
     rank reproduces the canonical order without re-scanning whole
     candidate tables. *)
  let rank = Array.make n (-1) in
  let rank_of j =
    if rank.(j) < 0 then begin
      let e = vertices.(j) in
      Array.iteri (fun k v -> rank.(v) <- k) (verts_at ~switch:e.switch ~table:e.table)
    end;
    rank.(j)
  in
  let sorted = Digraph.create n in
  for i = 0 to n - 1 do
    Digraph.succ graph i
    |> List.map (fun j -> (rank_of j, j))
    |> List.sort compare
    |> List.iter (fun (_, j) -> Digraph.add_new_edge sorted i j)
  done;
  {
    base = { network = net; vertices; index_of; inputs; outputs; graph = sorted };
    affected;
    remap;
  }
