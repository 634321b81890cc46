let path_weight g path =
  let rec loop = function
    | [] | [ _ ] -> 0.
    | u :: (v :: _ as rest) -> (
        match Digraph.weight g u v with
        | Some w -> w +. loop rest
        | None -> invalid_arg "Yen.path_weight: missing edge")
  in
  loop path

(* Same sum, same association order (w_0 +. (w_1 +. ...)), on the packed
   representation below. *)
let path_weight_arr g p =
  let m = Array.length p in
  let rec go i =
    if i >= m - 1 then 0.
    else
      match Digraph.weight g p.(i) p.(i + 1) with
      | Some w -> w +. go (i + 1)
      | None -> invalid_arg "Yen.path_weight: missing edge"
  in
  go 0

(* Paths are int arrays internally: the spur loop needs random access at
   the spur index, and the root-prefix comparison against accepted paths
   is then O(1) per step instead of the former List.nth / take / (=) on
   growing prefixes. [known] holds every candidate ever pushed plus the
   accepted paths (pushed candidates are never un-known: popping moves
   them to [accepted], which the old list-based dedup also consulted), so
   one membership test replaces the seen-table check + List.mem scan. *)
let k_shortest g ~src ~dst ~k =
  if k <= 0 then []
  else
    match Shortest_path.shortest_path g src dst with
    | None -> []
    | Some first ->
        let first = Array.of_list first in
        let n = Digraph.n_vertices g in
        let accepted = ref [ first ] (* newest first *)
        and n_accepted = ref 1 in
        let candidates = Heap.create () in
        let known = Hashtbl.create 16 in
        Hashtbl.add known first ();
        let blocked_vertices = Array.make n false in
        let ws = Shortest_path.local_workspace g in
        let continue = ref (!n_accepted < k) in
        while !continue do
          let prev = List.hd !accepted in
          let prev_len = Array.length prev in
          (* Accepted paths still sharing prev's root prefix [0..i]; the
             filter refines incrementally as i grows, so each path is
             compared against one vertex per step, not a whole prefix. *)
          let sharing = ref !accepted in
          (* Spur from every vertex of the previous path except the last. *)
          for i = 0 to prev_len - 2 do
            (* Root vertices before the spur node are removed. *)
            if i > 0 then blocked_vertices.(prev.(i - 1)) <- true;
            sharing :=
              List.filter (fun p -> Array.length p > i && p.(i) = prev.(i)) !sharing;
            (* Edges used by accepted paths sharing this root are removed;
               at most one per accepted path, so packed-int list membership
               beats building a hash table per spur. *)
            let blocked_edges =
              List.filter_map
                (fun p ->
                  if Array.length p > i + 1 then Some ((p.(i) * n) + p.(i + 1))
                  else None)
                !sharing
            in
            let edge_blocked u v = List.mem ((u * n) + v) blocked_edges in
            let spur = prev.(i) in
            let tree =
              Shortest_path.dijkstra_ws ws ~blocked_vertices ~edge_blocked
                ~target:dst spur
            in
            match Shortest_path.path_to tree dst with
            | None -> ()
            | Some spur_path ->
                (* root (minus spur) @ spur path; spur_path starts at spur. *)
                let total =
                  Array.append (Array.sub prev 0 i) (Array.of_list spur_path)
                in
                if not (Hashtbl.mem known total) then begin
                  Hashtbl.add known total ();
                  Heap.push candidates (path_weight_arr g total) total
                end
          done;
          for j = 0 to prev_len - 3 do
            blocked_vertices.(prev.(j)) <- false
          done;
          (match Heap.pop_min candidates with
          | None -> continue := false
          | Some (_, best) ->
              accepted := best :: !accepted;
              incr n_accepted;
              if !n_accepted >= k then continue := false)
        done;
        List.rev_map Array.to_list !accepted
