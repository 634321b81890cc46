module Hs = Hspace.Hs
module FE = Openflow.Flow_entry

type flow = {
  entry : int;
  hs : Hs.t;
  parent : flow option;
  depth : int;
  serial : int;
}

type node = {
  mutable flows : flow list; (* reverse arrival order *)
  mutable acc : Hs.t;
}

type tally = {
  mutable cubes : int;
  mutable iterations : int;
  mutable pruned : int;
}

type state = {
  src : int;
  av : int; (* avoided switch, -1 for none *)
  mutable nodes : node array;
  mutable loop_acc : flow list; (* reverse discovery order *)
  mutable serials : int; (* next flow serial (creation rank) *)
  t : tally;
}

let next_serial st =
  let s = st.serials in
  st.serials <- s + 1;
  s

let source st = st.src

let avoid st = st.av

let tally st = st.t

let flows_at st v = List.rev st.nodes.(v).flows

let acc_at st v = st.nodes.(v).acc

let reached st =
  let acc = ref [] in
  for v = Array.length st.nodes - 1 downto 0 do
    if st.nodes.(v).flows <> [] then acc := v :: !acc
  done;
  !acc

let loops st = List.rev st.loop_acc

let path_of f =
  let rec go acc = function
    | None -> acc
    | Some g -> go (g.entry :: acc) g.parent
  in
  go [ f.entry ] f.parent

let in_provenance f id =
  let rec go = function
    | None -> false
    | Some g -> g.entry = id || go g.parent
  in
  go (Some f)

let fresh_node len = { flows = []; acc = Hs.empty len }

(* Extend flow [f] (sitting at vertex [u]) across the edge to vertex
   [w]: intersect with the edge label, rewrite through [w]'s set-field.
   A non-empty result either closes a loop (the target entry already
   occurs in [f]'s provenance — recorded, not extended), is pruned
   (subsumed by the headers already known at [w]), or becomes a new
   flow on the worklist. *)
let step plumbing st queue f u w =
  let we = Plumbing.vertex_entry plumbing w in
  if st.av < 0 || we.FE.switch <> st.av then begin
    let arriving = Hs.inter f.hs (Plumbing.label plumbing u w) in
    if not (Hs.is_empty arriving) then begin
      let hs' = Hs.apply_set_field ~set:we.FE.set_field arriving in
      let extended =
        {
          entry = we.FE.id;
          hs = hs';
          parent = Some f;
          depth = f.depth + 1;
          serial = next_serial st;
        }
      in
      if in_provenance f we.FE.id then st.loop_acc <- extended :: st.loop_acc
      else begin
        let node = st.nodes.(w) in
        if Hs.is_subset hs' node.acc then st.t.pruned <- st.t.pruned + 1
        else begin
          node.flows <- extended :: node.flows;
          node.acc <- Hs.union node.acc hs';
          st.t.cubes <- st.t.cubes + Hs.cube_count hs';
          Queue.add extended queue
        end
      end
    end
  end

let drain plumbing st queue =
  while not (Queue.is_empty queue) do
    let f = Queue.pop queue in
    st.t.iterations <- st.t.iterations + 1;
    match Plumbing.vertex_of_entry plumbing f.entry with
    | None -> () (* cannot happen: flows reference current vertices *)
    | Some u -> List.iter (fun w -> step plumbing st queue f u w) (Plumbing.succ plumbing u)
  done

let seed plumbing st queue v =
  let e = Plumbing.vertex_entry plumbing v in
  if
    e.FE.switch = st.src && e.FE.table = 0
    && (st.av < 0 || e.FE.switch <> st.av)
    && not (Hs.is_empty (Plumbing.input plumbing v))
  then begin
    let f =
      {
        entry = e.FE.id;
        hs = Plumbing.output plumbing v;
        parent = None;
        depth = 1;
        serial = next_serial st;
      }
    in
    let node = st.nodes.(v) in
    if not (Hs.is_subset f.hs node.acc) then begin
      node.flows <- f :: node.flows;
      node.acc <- Hs.union node.acc f.hs;
      st.t.cubes <- st.t.cubes + Hs.cube_count f.hs;
      Queue.add f queue
    end
  end

let compute plumbing ~source ?(avoid = -1) () =
  let len = Openflow.Network.header_len (Plumbing.network plumbing) in
  let n = Plumbing.n_vertices plumbing in
  let st =
    {
      src = source;
      av = avoid;
      nodes = Array.init n (fun _ -> fresh_node len);
      loop_acc = [];
      serials = 0;
      t = { cubes = 0; iterations = 0; pruned = 0 };
    }
  in
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    seed plumbing st queue v
  done;
  drain plumbing st queue;
  st

(* ------------------------------------------------------------------ *)
(* Change-driven incremental re-propagation (NetPlumber's update
   discipline).

   A flow is a derivation: its provenance chain names the vertices it
   traversed, and its header set was built from the edge labels and
   set-fields along exactly that chain. The patch's [affected] set is
   precisely the vertices whose spaces or incident edge labels may
   differ from the old graph's, so a flow stays a valid derivation iff
   every entry on its chain still resolves to a current, unaffected
   vertex. Everything else is deleted; per-vertex unions are rebuilt
   where a deletion landed ("damaged" vertices); and the worklist is
   re-primed with exactly the constraints the edit could have broken —
   injection seeds at affected vertices, plus every surviving flow one
   edge upstream of an affected or damaged vertex. Subsumption against
   the surviving unions then kills the wavefront as soon as it stops
   adding coverage, so the cost tracks the semantic size of the edit,
   not the topological size of its descendant cone (the bench's
   [verify.edit] entries gate this).

   Loop records whose path touches an affected or deleted vertex are
   dropped; re-propagation rediscovers any that still close (duplicates
   of surviving records are possible — so they are from scratch — and
   deduplicated by the engine's canonical cycle key). *)

(* Validity memoized by flow serial: provenance chains are shared by
   every flow they were extended into, so the total filter cost is one
   check per live flow, not per (flow × depth). Serials are the state's
   dense creation ranks, so the memo is a byte per serial: '\000'
   unknown, 'v' valid, 'x' invalid. *)
let flow_validator plumbing (patch : Plumbing.patch) st =
  let memo = Bytes.make st.serials '\000' in
  let entry_ok id =
    match Plumbing.vertex_of_entry plumbing id with
    | Some v -> not patch.affected.(v)
    | None -> false
  in
  let rec valid f =
    match Bytes.get memo f.serial with
    | 'v' -> true
    | 'x' -> false
    | _ ->
        let v =
          entry_ok f.entry
          && (match f.parent with None -> true | Some g -> valid g)
        in
        Bytes.set memo f.serial (if v then 'v' else 'x');
        v
  in
  valid

let update plumbing (patch : Plumbing.patch) st =
  let len = Openflow.Network.header_len (Plumbing.network plumbing) in
  let n = Plumbing.n_vertices plumbing in
  let old_nodes = st.nodes in
  let back = patch.back in
  (* Every prefix of a stored flow's chain is itself a stored flow
     (only stored flows are ever extended), so the state holds an
     invalid flow iff some affected vertex, or some deleted old vertex,
     holds flows. When none does, the whole validity filter — the
     dominant cost for states far from the edit — is skipped. *)
  let has_invalid =
    (let found = ref false in
     for nv = 0 to n - 1 do
       if patch.affected.(nv) && back.(nv) >= 0 && old_nodes.(back.(nv)).flows <> []
       then found := true
     done;
     Array.iteri
       (fun ov nv -> if nv < 0 && old_nodes.(ov).flows <> [] then found := true)
       patch.remap;
     !found)
  in
  let touched = ref has_invalid in
  let damaged = Array.make n false in
  if not has_invalid then
    st.nodes <-
      Array.init n (fun nv ->
          if back.(nv) < 0 then fresh_node len else old_nodes.(back.(nv)))
  else begin
    let flow_valid = flow_validator plumbing patch st in
    let kept_loops = List.filter flow_valid st.loop_acc in
    st.loop_acc <- kept_loops;
    st.nodes <-
      Array.init n (fun nv ->
          if back.(nv) < 0 then fresh_node len
          else begin
            let node = old_nodes.(back.(nv)) in
            let kept = List.filter flow_valid node.flows in
            if List.compare_lengths kept node.flows <> 0 then begin
              damaged.(nv) <- true;
              node.flows <- kept;
              node.acc <-
                List.fold_left (fun acc f -> Hs.union acc f.hs) (Hs.empty len) kept
            end;
            node
          end)
  end;
  let queue = Queue.create () in
  (* Injections at affected vertices (an affected vertex kept no flows —
     its own entry is the tail of each of its chains — so nothing here
     is pruned by stale coverage). *)
  for v = 0 to n - 1 do
    if patch.affected.(v) then seed plumbing st queue v
  done;
  (* Surviving flows one edge upstream of the affected or damaged
     region: the only edges whose constraint [step(acc u) ⊆ acc w] the
     edit can have invalidated — by changing the label, or by shrinking
     the coverage at [w] below what subsumption once credited. *)
  let graph = Plumbing.graph plumbing in
  for w = 0 to n - 1 do
    if patch.affected.(w) || damaged.(w) then
      List.iter
        (fun u ->
          let node = st.nodes.(u) in
          if node.flows <> [] then
            List.iter (fun f -> step plumbing st queue f u w) (List.rev node.flows))
        (Sdngraph.Digraph.pred graph w)
  done;
  if Queue.is_empty queue && not !touched then `Hit
  else begin
    drain plumbing st queue;
    `Recomputed
  end
