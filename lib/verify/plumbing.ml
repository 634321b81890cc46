module Hs = Hspace.Hs
module FE = Openflow.Flow_entry
module Network = Openflow.Network
module Flow_table = Openflow.Flow_table
module Digraph = Sdngraph.Digraph
module Base = Rulegraph.Base

type t = {
  base : Base.t;
  labels : (int * int, Hs.t) Hashtbl.t;
}

let base t = t.base

let network t = t.base.network

let n_vertices t = Array.length t.base.vertices

let vertex_entry t v = t.base.vertices.(v)

let vertex_of_entry t id = Hashtbl.find_opt t.base.index_of id

let input t v = t.base.inputs.(v)

let output t v = t.base.outputs.(v)

let graph t = t.base.graph

let succ t v = Digraph.succ t.base.graph v

let label t u v =
  match Hashtbl.find_opt t.labels (u, v) with
  | Some hs -> hs
  | None -> Hs.empty (Network.header_len t.base.network)

(* Attach [label u v] to every edge of the base graph (each has a
   non-empty hand-off space by construction). *)
let labeled (base : Base.t) label =
  let labels = Hashtbl.create (4 * Array.length base.vertices) in
  Digraph.iter_edges (fun u v -> Hashtbl.replace labels (u, v) (label u v)) base.graph;
  { base; labels }

let hand_off (base : Base.t) u v = Hs.inter base.outputs.(u) base.inputs.(v)

let build net =
  let base = Base.build net in
  labeled base (hand_off base)

(* ------------------------------------------------------------------ *)
(* Incremental patching. {!Base.patch} redoes the vertices, spaces and
   edges; an edge between two unaffected vertices joins two spaces the
   patch kept bit for bit, so its old label is still exact.

   The [affected] set drives the closure engine's delta worklist: a
   vertex is affected exactly when its own spaces (and hence the labels
   of its incident edges) may differ from the old graph's. Everything
   about an edge between two unaffected vertices is unchanged, so a
   flow whose whole provenance chain avoids affected vertices is still
   a valid derivation; {!Closure.update} exploits exactly that. *)

type patch = { plumbing : t; affected : bool array; remap : int array; back : int array }

let patch old ~changed_tables =
  let { Base.base; affected; remap } = Base.patch old.base ~changed_tables in
  let back = Array.make (Array.length base.vertices) (-1) in
  Array.iteri (fun ov nv -> if nv >= 0 then back.(nv) <- ov) remap;
  let label u v =
    if affected.(u) || affected.(v) then hand_off base u v
    else Hashtbl.find old.labels (back.(u), back.(v))
  in
  { plumbing = labeled base label; affected; remap; back }

(* ------------------------------------------------------------------ *)
(* Local analyses shared with the lint passes. *)

let find_cycle t = Digraph.find_cycle t.base.graph

let backward_space ?target t path =
  let init =
    match target with
    | Some hs -> hs
    | None -> Hs.full (Network.header_len t.base.network)
  in
  List.fold_right
    (fun v after ->
      let r = t.base.vertices.(v) in
      Hs.inter t.base.inputs.(v) (Hs.inverse_set_field ~set:r.FE.set_field after))
    path init

let cycle_witness t cycle =
  match cycle with
  | [] -> Hs.empty (Network.header_len t.base.network)
  | head :: _ ->
      let round_trip = backward_space t (cycle @ [ head ]) in
      if not (Hs.is_empty round_trip) then round_trip
      else (
        match cycle with
        | a :: b :: _ -> hand_off t.base a b
        | [ a ] -> hand_off t.base a a
        | [] -> assert false)

let leak t v =
  let r = t.base.vertices.(v) in
  match r.FE.action with
  | FE.Output _ -> (
      let net = t.base.network in
      match Network.next_switch net r with
      | None -> None
      | Some sw ->
          (* The exact fold (table lookup order, diff by raw match) the
             historical L002 pass used: witnesses must stay bit-identical
             across the delegation. *)
          let leaked =
            Flow_table.fold
              (fun space (q : FE.t) -> Hs.diff_cube space q.FE.match_)
              t.base.outputs.(v)
              (Network.table net ~switch:sw ~table:0)
          in
          if Hs.is_empty leaked then None else Some (sw, leaked))
  | FE.Drop | FE.Goto_table _ -> None

let leaks t =
  List.filter_map
    (fun v -> Option.map (fun (sw, leaked) -> (vertex_entry t v, sw, leaked)) (leak t v))
    (List.init (n_vertices t) Fun.id)

let stats t =
  [
    ("vertices", n_vertices t);
    ("edges", Digraph.n_edges t.base.graph);
    ( "label_cubes",
      (* sdncheck: allow D001 — commutative int sum over all labels *)
      Hashtbl.fold (fun _ hs acc -> acc + Hs.cube_count hs) t.labels 0 );
  ]
