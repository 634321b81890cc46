module RG = Rulegraph.Rule_graph
module Digraph = Sdngraph.Digraph
module Hs = Hspace.Hs

(* The matching is kept as successor/predecessor arrays over rule-graph
   vertices: succ.(u) = v encodes the matched bipartite edge (u, v'),
   i.e. "u is immediately followed by v in its chain". All mutations go
   through an undo log so an augmenting path whose final splice is
   illegal can be rolled back and an alternative explored. The log is
   an int stack of (slot, old value) pairs, slot [u] for succ.(u) and
   [lnot v] for pred.(v); an augmentation search marks the vertices it
   visits with its own stamp, so neither allocates per visit. *)

type state = {
  rg : RG.t;
  succ : int array;
  pred : int array;
  adj : int list array; (* legal candidate successors (closure graph) *)
  seen : int array; (* stamp of the last search that visited v *)
  mutable stamp : int;
  mutable log : int array;
  mutable logn : int; (* entries in the log, two ints each *)
}

let make_state rg =
  let n = RG.n_vertices rg in
  let g = RG.graph rg in
  let testable = Array.init n (fun v -> not (Hs.is_empty (RG.input rg v))) in
  let adj =
    Array.init n (fun u ->
        if testable.(u) then List.filter (fun v -> testable.(v)) (Digraph.succ g u)
        else [])
  in
  {
    rg;
    succ = Array.make n (-1);
    pred = Array.make n (-1);
    adj;
    seen = Array.make n 0;
    stamp = 0;
    log = Array.make 64 0;
    logn = 0;
  }

let push st slot old =
  let i = 2 * st.logn in
  if i = Array.length st.log then begin
    let log = Array.make (2 * i) 0 in
    Array.blit st.log 0 log 0 i;
    st.log <- log
  end;
  st.log.(i) <- slot;
  st.log.(i + 1) <- old;
  st.logn <- st.logn + 1

let set_succ st u v =
  push st u st.succ.(u);
  st.succ.(u) <- v

let set_pred st v u =
  push st (lnot v) st.pred.(v);
  st.pred.(v) <- u

let rollback st mark =
  while st.logn > mark do
    st.logn <- st.logn - 1;
    let slot = st.log.(2 * st.logn) and old = st.log.((2 * st.logn) + 1) in
    if slot >= 0 then st.succ.(slot) <- old else st.pred.(lnot slot) <- old
  done

(* The chain head .. u (u must be a chain tail when used for a splice). *)
let prefix_of st u =
  let rec up v acc = if st.pred.(v) = -1 then v :: acc else up st.pred.(v) (v :: acc) in
  up u []

(* The chain v .. tail (v must be a chain head when used for a splice). *)
let suffix_of st v =
  let rec down v acc =
    if st.succ.(v) = -1 then List.rev (v :: acc) else down st.succ.(v) (v :: acc)
  in
  down v []

(* Definition 3, strengthened for multi-table pipelines: the splice
   (u, v) is admitted iff the chain it would create is a legal path AND
   a probe can actually enter it through its first switch's table-0
   stage (see {!RG.is_injectable}). *)
let legal_claim st u v = RG.is_injectable st.rg (prefix_of st u @ suffix_of st v)

(* Kuhn-style augmentation: find a new successor for the chain tail [u],
   re-routing current predecessors recursively; every splice is admitted
   only if legal, and failed branches are rolled back. *)
let rec try_augment st u =
  let rec try_candidates = function
    | [] -> false
    | v :: rest ->
        if st.seen.(v) = st.stamp then try_candidates rest
        else begin
          st.seen.(v) <- st.stamp;
          let mark = st.logn in
          let w = st.pred.(v) in
          if w = -1 then
            if legal_claim st u v then begin
              set_succ st u v;
              set_pred st v u;
              true
            end
            else try_candidates rest
          else begin
            (* Detach w from v; w's chain loses its tail segment, which
               keeps both halves legal (prefixes/suffixes of legal paths
               are legal). Then find w another successor. *)
            set_succ st w (-1);
            set_pred st v (-1);
            if try_augment st w && legal_claim st u v then begin
              set_succ st u v;
              set_pred st v u;
              true
            end
            else begin
              rollback st mark;
              try_candidates rest
            end
          end
        end
  in
  try_candidates st.adj.(u)

let solve_successors rg =
  let st = make_state rg in
  let n = RG.n_vertices rg in
  (* Passes until fixpoint: a legality-induced rollback in one pass can
     be unlocked by a later augmentation. *)
  let progress = ref true in
  while !progress do
    progress := false;
    for u = 0 to n - 1 do
      if st.succ.(u) = -1 && st.adj.(u) <> [] then begin
        (* A fresh search: nothing visited, and no earlier search is
           ever rolled back, so its log entries can go. *)
        st.stamp <- st.stamp + 1;
        st.logn <- 0;
        if try_augment st u then progress := true
      end
    done
  done;
  st.succ

let solve rg = Cover.of_successors rg ~succ:(solve_successors rg)

let randomized ?(dropout = 0.15) rng rg =
  let st = make_state rg in
  let n = RG.n_vertices rg in
  let edges =
    Array.of_list
      (List.concat (List.init n (fun u -> List.map (fun v -> (u, v)) st.adj.(u))))
  in
  Sdn_util.Prng.shuffle rng edges;
  (* Endpoint dropout: each redraw forces a random [dropout]-fraction of
     the rules to end their chain, cutting tested paths at positions a
     maximal matching would never expose. Over the rounds every rule
     appears at the end of some tested path — the endpoint diversity
     that defeats colluding detours ("the location of switches is not
     always at the end of a test path", §V-C). The price is a larger
     cover (the paper reports +72% test packets on average). *)
  let forced_terminal =
    Array.init n (fun _ -> Sdn_util.Prng.float rng 1.0 < dropout)
  in
  Array.iter
    (fun (u, v) ->
      if
        st.succ.(u) = -1
        && st.pred.(v) = -1
        && (not forced_terminal.(u))
        && legal_claim st u v
      then begin
        set_succ st u v;
        set_pred st v u
      end)
    edges;
  Cover.of_successors rg ~succ:st.succ
