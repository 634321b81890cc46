type t = {
  n : int;
  adj : (int * float) list array; (* reverse insertion order *)
  mutable nedges : int;
  mutable preds : int list array option; (* cache *)
  mutable fsucc : (int * float) list array option;
      (* insertion-order successor cache: [succ_weighted] sits in
         Dijkstra's relaxation loop, where a List.rev per settled vertex
         shows up *)
}

let create n =
  if n < 0 then invalid_arg "Digraph.create: negative size";
  { n; adj = Array.make n []; nedges = 0; preds = None; fsucc = None }

let n_vertices g = g.n

let n_edges g = g.nedges

let check g v name = if v < 0 || v >= g.n then invalid_arg (name ^ ": vertex out of range")

let mem_edge g u v =
  check g u "Digraph.mem_edge";
  check g v "Digraph.mem_edge";
  List.exists (fun (w, _) -> w = v) g.adj.(u)

let add_new_edge ?(weight = 1.0) g u v =
  check g u "Digraph.add_edge";
  check g v "Digraph.add_edge";
  g.adj.(u) <- (v, weight) :: g.adj.(u);
  g.nedges <- g.nedges + 1;
  g.preds <- None;
  g.fsucc <- None

let add_edge ?weight g u v =
  check g u "Digraph.add_edge";
  if not (List.exists (fun (w, _) -> w = v) g.adj.(u)) then add_new_edge ?weight g u v

let weight g u v =
  check g u "Digraph.weight";
  List.assoc_opt v g.adj.(u)

let fsucc_table g =
  match g.fsucc with
  | Some f -> f
  | None ->
      let f = Array.map List.rev g.adj in
      g.fsucc <- Some f;
      f

let succ_weighted g u =
  check g u "Digraph.succ";
  (fsucc_table g).(u)

let succ g u = List.map fst (succ_weighted g u)

let preds_table g =
  match g.preds with
  | Some p -> p
  | None ->
      let p = Array.make g.n [] in
      for u = g.n - 1 downto 0 do
        List.iter (fun (v, _) -> p.(v) <- u :: p.(v)) g.adj.(u)
      done;
      g.preds <- Some p;
      p

let pred g v =
  check g v "Digraph.pred";
  (preds_table g).(v)

let in_degree g v = List.length (pred g v)

let out_degree g u =
  check g u "Digraph.out_degree";
  List.length g.adj.(u)

let edges g =
  List.concat (List.init g.n (fun u -> List.map (fun (v, _) -> (u, v)) (succ_weighted g u)))

let iter_edges f g =
  for u = 0 to g.n - 1 do
    List.iter (fun (v, _) -> f u v) (succ_weighted g u)
  done

let transpose g =
  let t = create g.n in
  iter_edges (fun u v -> add_edge t v u) g;
  t

let copy g =
  { n = g.n; adj = Array.copy g.adj; nedges = g.nedges; preds = g.preds; fsucc = g.fsucc }

let fold_vertices f acc g =
  let acc = ref acc in
  for v = 0 to g.n - 1 do
    acc := f !acc v
  done;
  !acc

let sources g =
  let p = preds_table g in
  List.filter (fun v -> p.(v) = []) (List.init g.n Fun.id)

let sinks g = List.filter (fun v -> g.adj.(v) = []) (List.init g.n Fun.id)

let reachable g start =
  check g start "Digraph.reachable";
  let seen = Array.make g.n false in
  let q = Queue.create () in
  seen.(start) <- true;
  Queue.add start q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun (v, _) ->
        if not seen.(v) then begin
          seen.(v) <- true;
          Queue.add v q
        end)
      g.adj.(u)
  done;
  seen

let topological_sort g =
  let indeg = Array.make g.n 0 in
  iter_edges (fun _ v -> indeg.(v) <- indeg.(v) + 1) g;
  let q = Queue.create () in
  for v = 0 to g.n - 1 do
    if indeg.(v) = 0 then Queue.add v q
  done;
  let order = ref [] in
  let count = ref 0 in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    incr count;
    order := u :: !order;
    List.iter
      (fun (v, _) ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then Queue.add v q)
      g.adj.(u)
  done;
  if !count = g.n then Some (List.rev !order) else None

let has_cycle g = topological_sort g = None

let find_cycle g =
  (* Iterative DFS with colors; extracts the cycle from the stack. *)
  let color = Array.make g.n 0 in
  let parent = Array.make g.n (-1) in
  let result = ref None in
  let rec dfs u =
    color.(u) <- 1;
    List.iter
      (fun (v, _) ->
        if !result = None then
          if color.(v) = 0 then begin
            parent.(v) <- u;
            dfs v
          end
          else if color.(v) = 1 then begin
            (* Found a back edge u -> v: walk parents from u back to v. *)
            let rec collect w acc = if w = v then v :: acc else collect parent.(w) (w :: acc) in
            result := Some (collect u [])
          end)
      g.adj.(u);
    color.(u) <- 2
  in
  (try
     for v = 0 to g.n - 1 do
       if color.(v) = 0 && !result = None then dfs v;
       if !result <> None then raise Exit
     done
   with Exit -> ());
  !result

let is_connected_undirected g =
  if g.n = 0 then true
  else begin
    let und = Array.make g.n [] in
    iter_edges
      (fun u v ->
        und.(u) <- v :: und.(u);
        und.(v) <- u :: und.(v))
      g;
    let seen = Array.make g.n false in
    let q = Queue.create () in
    seen.(0) <- true;
    Queue.add 0 q;
    let count = ref 1 in
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun v ->
          if not seen.(v) then begin
            seen.(v) <- true;
            incr count;
            Queue.add v q
          end)
        und.(u)
    done;
    !count = g.n
  end

let pp fmt g =
  Format.fprintf fmt "digraph(%d vertices, %d edges)" g.n g.nedges
