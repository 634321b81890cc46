type matching = { match_l : int array; match_r : int array; size : int }

let infinity_dist = max_int

let run ~nl ~nr adj =
  if Array.length adj <> nl then invalid_arg "Hopcroft_karp.run: adj length";
  let match_l = Array.make nl (-1) and match_r = Array.make nr (-1) in
  let dist = Array.make nl infinity_dist in
  let size = ref 0 in
  (* BFS phase: layer free left vertices; returns true if an augmenting
     path exists. *)
  let bfs () =
    let q = Queue.create () in
    for u = 0 to nl - 1 do
      if match_l.(u) = -1 then begin
        dist.(u) <- 0;
        Queue.add u q
      end
      else dist.(u) <- infinity_dist
    done;
    let found = ref false in
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun v ->
          let u' = match_r.(v) in
          if u' = -1 then found := true
          else if dist.(u') = infinity_dist then begin
            dist.(u') <- dist.(u) + 1;
            Queue.add u' q
          end)
        adj.(u)
    done;
    !found
  in
  (* DFS phase: vertex-disjoint shortest augmenting paths. *)
  let rec dfs u =
    let rec try_neighbours = function
      | [] ->
          dist.(u) <- infinity_dist;
          false
      | v :: rest ->
          let u' = match_r.(v) in
          if u' = -1 || (dist.(u') = dist.(u) + 1 && dfs u') then begin
            match_l.(u) <- v;
            match_r.(v) <- u;
            true
          end
          else try_neighbours rest
    in
    try_neighbours adj.(u)
  in
  while bfs () do
    for u = 0 to nl - 1 do
      if match_l.(u) = -1 && dfs u then incr size
    done
  done;
  { match_l; match_r; size = !size }

(* König construction: Z = vertices reachable from the free left
   vertices by alternating paths (unmatched edges left->right, matched
   edges right->left). (L \ Z) ∪ (R ∩ Z) is a vertex cover of size
   |M| whenever M is maximum — the checkable maximality witness. *)
let konig_cover ~nl ~nr adj m =
  if Array.length adj <> nl then
    invalid_arg "Hopcroft_karp.konig_cover: adj length";
  let zl = Array.make nl false and zr = Array.make nr false in
  let q = Queue.create () in
  for u = 0 to nl - 1 do
    if m.match_l.(u) = -1 then begin
      zl.(u) <- true;
      Queue.add u q
    end
  done;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
        if m.match_l.(u) <> v && not zr.(v) then begin
          zr.(v) <- true;
          let u' = m.match_r.(v) in
          if u' <> -1 && not zl.(u') then begin
            zl.(u') <- true;
            Queue.add u' q
          end
        end)
      adj.(u)
  done;
  let cover_left = ref [] and cover_right = ref [] in
  for u = nl - 1 downto 0 do
    if not zl.(u) then cover_left := u :: !cover_left
  done;
  for v = nr - 1 downto 0 do
    if zr.(v) then cover_right := v :: !cover_right
  done;
  (!cover_left, !cover_right)
