type tree = { dist : float array; parent : int array }

(* Reusable scratch state. Yen runs one spur Dijkstra per vertex of each
   accepted path — hundreds of calls on the same small graph — and the
   per-call cost there is dominated by allocating and initializing the
   dist/parent/settled arrays and the heap, not by the search itself.
   A workspace pays the allocation once and resets in place. *)
type workspace = {
  wg : Digraph.t;
  wdist : float array;
  wparent : int array;
  wsettled : bool array;
  wheap : int Heap.t;
}

let workspace g =
  let n = Digraph.n_vertices g in
  {
    wg = g;
    wdist = Array.make n infinity;
    wparent = Array.make n (-1);
    wsettled = Array.make n false;
    wheap = Heap.create ();
  }

(* One cached workspace per domain, keyed by the graph it was built for
   (physical equality): successive Yen calls on one graph reuse the
   domain's work arrays instead of allocating fresh ones per pair, and
   a call from any other domain never shares them. *)
let ws_key : workspace option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let local_workspace g =
  let cell = Domain.DLS.get ws_key in
  match !cell with
  | Some ws when ws.wg == g -> ws
  | _ ->
      let ws = workspace g in
      cell := Some ws;
      ws

let dijkstra_ws ws ?blocked_vertices ?(edge_blocked = fun _ _ -> false) ?target
    src =
  let g = ws.wg in
  let n = Digraph.n_vertices g in
  let dist = ws.wdist and parent = ws.wparent and settled = ws.wsettled in
  let heap = ws.wheap in
  Array.fill dist 0 n infinity;
  Array.fill parent 0 n (-1);
  Array.fill settled 0 n false;
  Heap.clear heap;
  let blocked v =
    match blocked_vertices with Some b -> b.(v) | None -> false
  in
  dist.(src) <- 0.;
  Heap.push heap 0. src;
  let rec loop () =
    match Heap.pop_min heap with
    | None -> ()
    | Some (d, u) ->
        if not settled.(u) && d <= dist.(u) then begin
          settled.(u) <- true;
          (* A settled vertex has final dist/parent, as does every vertex
             on the shortest path to it (all settled earlier) — so when
             only [target]'s path is wanted, stop here: the rest of the
             tree is never read. *)
          if target = Some u then ()
          else begin
            List.iter
              (fun (v, w) ->
                if (not (blocked v)) && (not (edge_blocked u v)) && not settled.(v)
                then begin
                  let nd = dist.(u) +. w in
                  if nd < dist.(v) then begin
                    dist.(v) <- nd;
                    parent.(v) <- u;
                    Heap.push heap nd v
                  end
                end)
              (Digraph.succ_weighted g u);
            loop ()
          end
        end
        else loop ()
  in
  loop ();
  { dist; parent }

let dijkstra ?blocked_vertices ?(blocked_edges = []) ?target g src =
  (* One-shot entry point: a fresh workspace, so the returned tree owns
     its arrays. Blocked-edge membership goes through a hash table built
     once — a List.mem here would run once per relaxation. *)
  let edge_blocked =
    match blocked_edges with
    | [] -> fun _ _ -> false
    | edges ->
        let tbl = Hashtbl.create (2 * List.length edges) in
        List.iter (fun e -> Hashtbl.replace tbl e ()) edges;
        fun u v -> Hashtbl.mem tbl (u, v)
  in
  dijkstra_ws (workspace g) ?blocked_vertices ~edge_blocked ?target src

let path_to tree target =
  if tree.dist.(target) = infinity then None
  else begin
    let rec build v acc = if tree.parent.(v) = -1 then v :: acc else build tree.parent.(v) (v :: acc) in
    Some (build target [])
  end

let shortest_path g src dst = path_to (dijkstra ~target:dst g src) dst
