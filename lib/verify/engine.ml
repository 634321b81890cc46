module Hs = Hspace.Hs
module Header = Hspace.Header
module FE = Openflow.Flow_entry
module Network = Openflow.Network

exception Uncertified of string

(* Process-wide counters, published through Metrics.Counter. *)
let c_states = Metrics.Counter.create "verify.states.computed"
let c_updates = Metrics.Counter.create "verify.states.updated"
let c_hits = Metrics.Counter.create "verify.states.cache_hits"
let c_cubes = Metrics.Counter.create "verify.closure.cubes"
let c_iters = Metrics.Counter.create "verify.closure.iterations"
let c_pruned = Metrics.Counter.create "verify.closure.pruned"

type t = {
  mutable plumbing : Plumbing.t;
  states : (int * int, Closure.state) Hashtbl.t;
      (* (source, avoided switch or -1) -> closure state *)
  leak_cache : (int, (int * Hs.t) option) Hashtbl.t;
      (* entry id -> Some (next switch, leaked space) | None = checked clean *)
  timing : Metrics.Timing.t;
  mutable computed : int;
  mutable updated : int;
  mutable hits : int;
}

let create net =
  let timing = Metrics.Timing.create () in
  let plumbing = Metrics.Timing.time timing "plumbing" (fun () -> Plumbing.build net) in
  {
    plumbing;
    states = Hashtbl.create 16;
    leak_cache = Hashtbl.create 64;
    timing;
    computed = 0;
    updated = 0;
    hits = 0;
  }

let network t = Plumbing.network t.plumbing

let plumbing t = t.plumbing

let states_cached t = Hashtbl.length t.states

let default_invariants = [ Invariant.Loop_free; Invariant.No_blackhole ]

let bump_tally (d : Closure.tally) =
  Metrics.Counter.add c_cubes d.cubes;
  Metrics.Counter.add c_iters d.iterations;
  Metrics.Counter.add c_pruned d.pruned

(* Compute the closure states for the missing (source, avoid) keys, in
   sorted key order. *)
let ensure_states t keys =
  let missing =
    List.sort_uniq compare keys
    |> List.filter (fun k -> not (Hashtbl.mem t.states k))
  in
  if missing <> [] then begin
    let compute (source, avoid) =
      Closure.compute t.plumbing ~source ~avoid ()
    in
    let fresh =
      Metrics.Timing.time t.timing "closure" (fun () -> List.map compute missing)
    in
    List.iter2
      (fun key st ->
        Hashtbl.replace t.states key st;
        t.computed <- t.computed + 1;
        Metrics.Counter.incr c_states;
        bump_tally (Closure.tally st))
      missing fresh
  end

let state t ~source ?(avoid = -1) () =
  ensure_states t [ (source, avoid) ];
  Hashtbl.find t.states (source, avoid)

let sorted_keys t =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.states [])

(* ------------------------------------------------------------------ *)
(* Witness construction: paths come from flow provenance chains, the
   injected header from the path's backward preimage (optionally
   constrained to land in a target space at the end). *)

let vertex_path t path_ids =
  List.map
    (fun id ->
      match Plumbing.vertex_of_entry t.plumbing id with
      | Some v -> v
      | None -> raise (Uncertified (Printf.sprintf "path references unknown entry %d" id)))
    path_ids

let header_for t ?target path_ids =
  let start = Plumbing.backward_space ?target t.plumbing (vertex_path t path_ids) in
  Option.map Header.of_cube (Hs.first_member start)

(* Canonical flow choice: minimal (depth, vertex index, arrival rank) —
   deterministic and patch-independent enough for stable reports. *)
let best_flow t st ~at_switch ~overlap =
  let best = ref None in
  let n = Plumbing.n_vertices t.plumbing in
  for v = 0 to n - 1 do
    if (Plumbing.vertex_entry t.plumbing v).FE.switch = at_switch then
      List.iteri
        (fun rank (f : Closure.flow) ->
          if
            (match overlap with
            | None -> true
            | Some hs -> not (Hs.is_empty (Hs.inter f.hs hs)))
            && (match !best with
               | None -> true
               | Some (d, bv, br, _) -> (f.depth, v, rank) < (d, bv, br))
          then best := Some (f.depth, v, rank, f))
        (Closure.flows_at st v)
  done;
  Option.map (fun (_, _, _, f) -> f) !best

let deepest_flow t st =
  let best = ref None in
  let n = Plumbing.n_vertices t.plumbing in
  for v = 0 to n - 1 do
    List.iteri
      (fun rank (f : Closure.flow) ->
        if
          (match !best with
          | None -> true
          | Some (d, bv, br, _) -> (-f.depth, v, rank) < (-d, bv, br))
        then best := Some (f.depth, v, rank, f))
      (Closure.flows_at st v)
  done;
  Option.map (fun (_, _, _, f) -> f) !best

let certified t kind (w : Witness.t) =
  match Witness.certify (network t) kind w with
  | Ok cert -> cert
  | Error msg ->
      raise
        (Uncertified
           (Format.asprintf "%a: %s (path [%a])" Witness.pp_kind kind msg
              (Format.pp_print_list
                 ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " ")
                 Format.pp_print_int)
              w.rules))

let violation t inv severity kind witness message =
  let certificate = certified t kind witness in
  { Report.invariant = inv; severity; message; witness; kind; certificate }

let pp_ids fmt ids =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " ")
    Format.pp_print_int fmt ids

(* ------------------------------------------------------------------ *)
(* Per-invariant evaluation. *)

let eval_reach t inv a b =
  let st = state t ~source:a () in
  match best_flow t st ~at_switch:b ~overlap:None with
  | Some _ -> Report.Holds
  | None ->
      let v =
        match deepest_flow t st with
        | None ->
            violation t inv Report.Error (Witness.Vacuous_source { src = a })
              { Witness.rules = []; header = None }
              (Printf.sprintf
                 "no packet is injectable at sw%d: every table-0 entry has an empty \
                  input space"
                 a)
        | Some f ->
            let rules = Closure.path_of f in
            let header = header_for t rules in
            violation t inv Report.Error (Witness.Deepest_path { src = a })
              { Witness.rules; header }
              (Format.asprintf
                 "no packet injected at sw%d reaches sw%d (deepest exploration: %d \
                  rule%s, entries %a)"
                 a b f.Closure.depth
                 (if f.Closure.depth = 1 then "" else "s")
                 pp_ids rules)
      in
      Report.Violated [ v ]

let eval_isolated t inv a b =
  let st = state t ~source:a () in
  match best_flow t st ~at_switch:b ~overlap:None with
  | None -> Report.Holds
  | Some f ->
      let rules = Closure.path_of f in
      let header = header_for t rules in
      let v =
        violation t inv Report.Error (Witness.Path_reaches { src = a; dst = b })
          { Witness.rules; header }
          (Format.asprintf "a packet injected at sw%d reaches sw%d via entries %a" a b
             pp_ids rules)
      in
      Report.Violated [ v ]

let eval_waypoint t inv a w b =
  if w = a || w = b then Report.Holds
  else
    let st = state t ~source:a ~avoid:w () in
    match best_flow t st ~at_switch:b ~overlap:None with
    | None -> Report.Holds
    | Some f ->
        let rules = Closure.path_of f in
        let header = header_for t rules in
        let v =
          violation t inv Report.Error
            (Witness.Path_avoids { src = a; waypoint = w; dst = b })
            { Witness.rules; header }
            (Format.asprintf
               "a packet injected at sw%d reaches sw%d without traversing sw%d \
                (entries %a)"
               a b w pp_ids rules)
        in
        Report.Violated [ v ]

(* Canonical cycle key: the lexicographically-least rotation of the
   entry-id cycle, so the same loop found from different sources (or
   unrolled at a different entry) is reported once. *)
let cycle_key ids =
  let n = List.length ids in
  let arr = Array.of_list ids in
  let rotation i = List.init n (fun j -> arr.((i + j) mod n)) in
  let best = ref (rotation 0) in
  for i = 1 to n - 1 do
    let r = rotation i in
    if r < !best then best := r
  done;
  !best

(* The cycle segment of a loop-closing flow's path: the last entry
   repeats an earlier one; the cycle is everything from that first
   occurrence up to (excluding) the repeat. *)
let cycle_of_path path =
  let closing = List.nth path (List.length path - 1) in
  let rec from = function
    | [] -> []
    | x :: rest -> if x = closing then x :: rest else from rest
  in
  match from path with
  | [] -> []
  | _ :: _ as tail -> List.filteri (fun i _ -> i < List.length tail - 1) tail

let eval_loop_free t inv =
  let net = network t in
  let n_sw = Network.n_switches net in
  ensure_states t (List.init n_sw (fun s -> (s, -1)));
  let seen = Hashtbl.create 8 in
  let vs = ref [] in
  for s = 0 to n_sw - 1 do
    let st = Hashtbl.find t.states (s, -1) in
    List.iter
      (fun (f : Closure.flow) ->
        let path = Closure.path_of f in
        let cycle = cycle_of_path path in
        let key = cycle_key cycle in
        if cycle <> [] && not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          let header = header_for t path in
          let switches =
            List.sort_uniq Int.compare
              (List.map (fun id -> (Network.entry net id).FE.switch) cycle)
          in
          let v =
            violation t inv Report.Error Witness.Loop_unrolled
              { Witness.rules = path; header }
              (Format.asprintf
                 "a packet injected at sw%d loops through entries %a (switches %a)" s
                 pp_ids cycle pp_ids switches)
          in
          vs := v :: !vs
        end)
      (Closure.loops st)
  done;
  (* A structural cycle no injectable packet drives is still a
     violation (L001 semantics): certify edge feasibility instead. *)
  (match Plumbing.find_cycle t.plumbing with
  | None -> ()
  | Some cycle_vs ->
      let cycle = List.map (fun v -> (Plumbing.vertex_entry t.plumbing v).FE.id) cycle_vs in
      let key = cycle_key cycle in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        let switches =
          List.sort_uniq Int.compare
            (List.map (fun id -> (Network.entry net id).FE.switch) cycle)
        in
        let v =
          violation t inv Report.Error Witness.Structural_cycle
            { Witness.rules = cycle; header = None }
            (Format.asprintf
               "structural forwarding loop through entries %a (switches %a); no \
                injectable packet drives it"
               pp_ids cycle pp_ids switches)
        in
        vs := v :: !vs
      end);
  match List.rev !vs with [] -> Report.Holds | vs -> Report.Violated vs

(* Blackhole facts are cached per entry id and invalidated by edits
   (the entry's own table, or its next hop's table 0), so re-checks
   after an edit only recompute the affected diffs. *)
let leak_of t v (r : FE.t) =
  match Hashtbl.find_opt t.leak_cache r.FE.id with
  | Some cached -> cached
  | None ->
      let fresh = Plumbing.leak t.plumbing v in
      Hashtbl.replace t.leak_cache r.FE.id fresh;
      fresh

let eval_no_blackhole t inv =
  let n = Plumbing.n_vertices t.plumbing in
  (* Witnesses need the leaking rules' own switches as sources. *)
  let leaking = ref [] in
  for v = n - 1 downto 0 do
    let r = Plumbing.vertex_entry t.plumbing v in
    match leak_of t v r with
    | Some (sw, leaked) -> leaking := (v, r, sw, leaked) :: !leaking
    | None -> ()
  done;
  ensure_states t (List.map (fun (_, (r : FE.t), _, _) -> (r.FE.switch, -1)) !leaking);
  let vs =
    List.map
      (fun (v, (r : FE.t), sw, leaked) ->
        let st = Hashtbl.find t.states (r.FE.switch, -1) in
        let reaching =
          List.find_opt
            (fun (f : Closure.flow) -> not (Hs.is_empty (Hs.inter f.Closure.hs leaked)))
            (Closure.flows_at st v)
        in
        let message =
          Format.asprintf
            "entry %d (sw%d, prio %d) forwards %a to sw%d, where no entry matches it"
            r.FE.id r.FE.switch r.FE.priority Hs.pp leaked sw
        in
        match reaching with
        | Some f ->
            let rules = Closure.path_of f in
            let target = Hs.inter f.Closure.hs leaked in
            let header = header_for t ~target rules in
            violation t inv Report.Warning
              (Witness.Leak { rule = r.FE.id; next_switch = sw })
              { Witness.rules; header } message
        | None ->
            violation t inv Report.Warning
              (Witness.Leak_unexercised { rule = r.FE.id; next_switch = sw })
              { Witness.rules = [ r.FE.id ]; header = None }
              (message ^ " (no injection exercises the leak)"))
      !leaking
  in
  match vs with [] -> Report.Holds | vs -> Report.Violated vs

(* ------------------------------------------------------------------ *)

let metrics t =
  let keys = sorted_keys t in
  let sum f =
    List.fold_left (fun acc k -> acc + f (Closure.tally (Hashtbl.find t.states k))) 0 keys
  in
  Plumbing.stats t.plumbing
  @ [
      ("states_cached", List.length keys);
      ("states_computed", t.computed);
      ("states_updated", t.updated);
      ("state_cache_hits", t.hits);
      ("cubes_propagated", sum (fun (d : Closure.tally) -> d.cubes));
      ("worklist_iterations", sum (fun (d : Closure.tally) -> d.iterations));
      ("flows_pruned", sum (fun (d : Closure.tally) -> d.pruned));
    ]

let check t invs =
  let net = network t in
  List.iter
    (fun inv ->
      match Invariant.validate ~n_switches:(Network.n_switches net) inv with
      | Ok () -> ()
      | Error msg -> invalid_arg ("Verify.Engine.check: " ^ msg))
    invs;
  (* Pre-compute every state the invariants will need in one batch
     (blackhole sources are discovered during evaluation and
     filled in lazily — they are per-switch states too, so a later
     check reuses them). *)
  let keys =
    List.concat_map
      (function
        | Invariant.Reach (a, _) | Invariant.Isolated (a, _) -> [ (a, -1) ]
        | Invariant.Waypoint (a, w, b) -> if w = a || w = b then [] else [ (a, w) ]
        | Invariant.Loop_free ->
            List.init (Network.n_switches net) (fun s -> (s, -1))
        | Invariant.No_blackhole -> [])
      invs
  in
  ensure_states t keys;
  let results =
    Metrics.Timing.time t.timing "invariants" (fun () ->
        List.map
          (fun inv ->
            let status =
              match inv with
              | Invariant.Reach (a, b) -> eval_reach t inv a b
              | Invariant.Isolated (a, b) -> eval_isolated t inv a b
              | Invariant.Waypoint (a, w, b) -> eval_waypoint t inv a w b
              | Invariant.Loop_free -> eval_loop_free t inv
              | Invariant.No_blackhole -> eval_no_blackhole t inv
            in
            (inv, status))
          invs)
  in
  { Report.results; metrics = metrics t; timings = Metrics.Timing.timings t.timing }

let update t ~changed_tables =
  let old_plumbing = t.plumbing in
  let patch =
    Metrics.Timing.time t.timing "patch" (fun () ->
        Plumbing.patch t.plumbing ~changed_tables)
  in
  t.plumbing <- patch.Plumbing.plumbing;
  let keys = sorted_keys t in
  let snapshot k =
    let d = Closure.tally (Hashtbl.find t.states k) in
    (d.Closure.cubes, d.Closure.iterations, d.Closure.pruned)
  in
  let before = List.map (fun k -> (k, snapshot k)) keys in
  let outcomes =
    Metrics.Timing.time t.timing "repropagate" (fun () ->
        List.map
          (fun k -> Closure.update patch.Plumbing.plumbing patch (Hashtbl.find t.states k))
          keys)
  in
  List.iter2
    (fun (k, (c0, i0, p0)) outcome ->
      let d = Closure.tally (Hashtbl.find t.states k) in
      Metrics.Counter.add c_cubes (d.Closure.cubes - c0);
      Metrics.Counter.add c_iters (d.Closure.iterations - i0);
      Metrics.Counter.add c_pruned (d.Closure.pruned - p0);
      match outcome with
      | `Hit ->
          t.hits <- t.hits + 1;
          Metrics.Counter.incr c_hits
      | `Recomputed ->
          t.updated <- t.updated + 1;
          Metrics.Counter.incr c_updates)
    before outcomes;
  (* Invalidate blackhole facts the edit can actually have changed. A
     leak fold reads the entry's output space and the raw matches of
     its next hop's table 0, so a cached fact goes stale only when the
     entry is gone, its own spaces changed (patch-affected), or a match
     was added to / removed from its next-hop table AND that match
     overlaps the entry's output — a disjoint match leaves every
     intermediate space of the fold bit-identical. *)
  let net = network t in
  (* Per edited table 0: the matches that differ between the old and
     new entry sets (entries are immutable, so the id symmetric
     difference is exactly the match difference). *)
  let match_delta = Hashtbl.create 4 in
  List.iter
    (fun (sw, tb) ->
      if tb = 0 && not (Hashtbl.mem match_delta sw) then begin
        let old_ids = Hashtbl.create 16 in
        for v = 0 to Plumbing.n_vertices old_plumbing - 1 do
          let e = Plumbing.vertex_entry old_plumbing v in
          if e.FE.switch = sw && e.FE.table = 0 then
            Hashtbl.replace old_ids e.FE.id e.FE.match_
        done;
        let delta = ref [] in
        List.iter
          (fun (e : FE.t) ->
            if Hashtbl.mem old_ids e.FE.id then Hashtbl.remove old_ids e.FE.id
            else delta := e.FE.match_ :: !delta)
          (Openflow.Flow_table.entries (Network.table net ~switch:sw ~table:0));
        (* sdncheck: allow D001 — delta is consumed as an existential
           set (any-overlap test below); element order is immaterial *)
        Hashtbl.iter (fun _ m -> delta := m :: !delta) old_ids;
        Hashtbl.replace match_delta sw !delta
      end)
    changed_tables;
  let output_overlaps_delta v sw =
    match Hashtbl.find_opt match_delta sw with
    | None -> false
    | Some delta ->
        let out = Plumbing.output t.plumbing v in
        List.exists (fun m -> not (Hs.is_empty (Hs.inter_cube out m))) delta
  in
  let stale =
    (* sdncheck: allow D001 — every stale id is evicted below; the
       eviction set is order-free *)
    Hashtbl.fold
      (fun id _ acc ->
        match Plumbing.vertex_of_entry t.plumbing id with
        | None -> id :: acc
        | Some v ->
            if
              patch.Plumbing.affected.(v)
              || (match Network.next_switch net (Plumbing.vertex_entry t.plumbing v) with
                 | Some sw -> output_overlaps_delta v sw
                 | None -> false)
            then id :: acc
            else acc)
      t.leak_cache []
  in
  List.iter (Hashtbl.remove t.leak_cache) stale
