module Hs = Hspace.Hs
module Cube = Hspace.Cube
module FE = Openflow.Flow_entry
module Flow_table = Openflow.Flow_table
module Network = Openflow.Network
module Topology = Openflow.Topology
module D = Diagnostic

module Plumbing = Verify.Plumbing

type ctx = {
  net : Network.t;
  entries : FE.t array; (* the plumbing graph's vertices *)
  inputs : Hs.t array; (* and their input spaces *)
  probes : int list list option;
  plumbing : Plumbing.t;
      (* the verifier's reachability substrate; every pass reads its
         spaces off it, L001/L002 also its edges, so lint and
         [sdnprobe verify] cannot disagree *)
}

let make_ctx ?probes net =
  let plumbing = Plumbing.build net in
  let base = Plumbing.base plumbing in
  { net; entries = base.vertices; inputs = base.inputs; probes; plumbing }

let network ctx = ctx.net

let probes ctx = ctx.probes

let table_entries ctx ~switch ~table =
  Flow_table.entries (Network.table ctx.net ~switch ~table)

(* ------------------------------------------------------------------ *)
(* L001: forwarding loops.

   Delegates to the verifier's plumbing graph (the same construction
   this pass historically built inline: base rule-graph edges kept when
   the hand-off space is non-empty, in the same iteration order, so the
   reported cycle and witness are unchanged — test_lint pins this).
   The witness is the header space at the loop head that survives a
   full traversal of the cycle; when per-edge compatibility does not
   compose into a global round trip, the first edge's hand-off space is
   the witness instead — the cycle still violates SDNProbe's DAG
   precondition either way. *)

let pass_forwarding_loop ctx =
  let plumbing = ctx.plumbing in
  match Plumbing.find_cycle plumbing with
  | None -> []
  | Some cycle ->
      let witness = Plumbing.cycle_witness plumbing cycle in
      let entry v = Plumbing.vertex_entry plumbing v in
      let ids = List.map (fun v -> (entry v).FE.id) cycle in
      let switches =
        List.sort_uniq compare (List.map (fun v -> (entry v).FE.switch) cycle)
      in
      [
        D.make ~check:"L001-forwarding-loop" ~severity:D.Error
          ~switch:(List.hd switches) ~entries:ids ~witness
          (Format.asprintf "forwarding loop through entries %a (switches %a)"
             Fmt.(list ~sep:(any " -> ") int)
             ids
             Fmt.(list ~sep:(any ",") int)
             switches);
      ]

(* ------------------------------------------------------------------ *)
(* L002: blackholes — the part of a forwarding rule's output space no
   entry of the next hop's first table matches (traffic silently dies
   on table-miss). Witness: the leaked space. Delegates to the
   verifier's plumbing graph, whose [leaks] computes the exact fold
   this pass historically ran inline (same lookup order, same diff by
   raw match), so witness cube lists are bit-identical. *)

let pass_blackhole ctx =
  Plumbing.leaks ctx.plumbing
  |> List.map (fun ((r : FE.t), sw, leaked) ->
         D.make ~check:"L002-blackhole" ~severity:D.Warning ~switch:sw ~table:0
           ~entries:[ r.id ] ~witness:leaked
           (Format.asprintf
              "entry %d (sw%d, prio %d) forwards %a to sw%d, where no entry \
               matches it"
              r.id r.switch r.priority Hs.pp leaked sw))

(* ------------------------------------------------------------------ *)
(* L003: fully-shadowed rules — empty input space: higher-precedence
   rules of the same table cover the whole match. Witness: the match
   itself (every header of it is stolen). *)

let pass_shadowed ctx =
  let acc = ref [] in
  Array.iteri
    (fun i (e : FE.t) ->
      if Hs.is_empty ctx.inputs.(i) then begin
        let shadowers =
          Flow_table.higher_priority_overlaps
            (Network.table ctx.net ~switch:e.switch ~table:e.table)
            e
        in
        let shadower_ids = List.map (fun (q : FE.t) -> q.FE.id) shadowers in
        acc :=
          D.make ~check:"L003-shadowed-rule" ~severity:D.Error ~switch:e.switch
            ~table:e.table
            ~entries:(e.id :: shadower_ids)
            ~witness:(Hs.of_cube e.match_)
            (Format.asprintf
               "entry %d (sw%d, prio %d) can never match: fully shadowed by %a"
               e.id e.switch e.priority
               Fmt.(list ~sep:(any ",") int)
               shadower_ids)
          :: !acc
      end)
    ctx.entries;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* L004: partially-shadowed rules — a non-empty strict subset of the
   match survives higher-precedence rules. Normal in priority-based
   tables (aggregate/specific families), so informational. Witness:
   the shadowed portion. *)

let pass_partial_shadow ctx =
  let acc = ref [] in
  Array.iteri
    (fun i (e : FE.t) ->
      if not (Hs.is_empty ctx.inputs.(i)) then begin
        let stolen = Hs.diff (Hs.of_cube e.match_) ctx.inputs.(i) in
        if not (Hs.is_empty stolen) then
          acc :=
            D.make ~check:"L004-partial-shadow" ~severity:D.Info ~switch:e.switch
              ~table:e.table ~entries:[ e.id ] ~witness:stolen
              (Format.asprintf
                 "entry %d (sw%d, prio %d) loses %a to higher-precedence rules"
                 e.id e.switch e.priority Hs.pp stolen)
            :: !acc
      end)
    ctx.entries;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* L005: equal-priority overlap ambiguity. OpenFlow leaves the winner
   among equal-priority matching entries undefined; the reproduction's
   Flow_table papers over this with a lowest-id tiebreak. Report pairs
   whose undefined region is actually reachable (not already resolved
   by genuinely higher priorities) and whose behaviors differ — for
   observationally identical rules the ambiguity is harmless. Witness:
   the headers the two rules compete for. *)

let same_behavior (a : FE.t) (b : FE.t) =
  a.action = b.action && (a.action = FE.Drop || Cube.equal a.set_field b.set_field)

let pass_priority_ambiguity ctx =
  let acc = ref [] in
  let n = Array.length ctx.entries in
  for i = 0 to n - 1 do
    let a = ctx.entries.(i) in
    for j = i + 1 to n - 1 do
      let b = ctx.entries.(j) in
      if
        a.FE.switch = b.FE.switch && a.FE.table = b.FE.table
        && a.FE.priority = b.FE.priority
        && (not (Cube.disjoint a.FE.match_ b.FE.match_))
        && not (same_behavior a b)
      then begin
        (* The winner of the id tiebreak is the lower id; its input
           space is the overlap net of genuinely higher priorities. *)
        let low, high = if a.FE.id < b.FE.id then (i, j) else (j, i) in
        let contested =
          Hs.inter_cube ctx.inputs.(low) ctx.entries.(high).FE.match_
        in
        if not (Hs.is_empty contested) then
          acc :=
            D.make ~check:"L005-priority-ambiguity" ~severity:D.Warning
              ~switch:a.FE.switch ~table:a.FE.table
              ~entries:[ ctx.entries.(low).FE.id; ctx.entries.(high).FE.id ]
              ~witness:contested
              (Format.asprintf
                 "entries %d and %d (sw%d, prio %d) overlap on %a with \
                  different behavior; OpenFlow leaves the winner undefined \
                  (the emulator breaks the tie by lower id)"
                 ctx.entries.(low).FE.id ctx.entries.(high).FE.id a.FE.switch
                 a.FE.priority Hs.pp contested)
            :: !acc
      end
    done
  done;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* L006: dead or unreachable switches. Three shapes: a switch with no
   links (isolated — nothing can reach or leave it), a linked switch
   with no flow entries (every arriving packet dies on table-miss), and
   a switch no neighbour policy forwards into (only locally injected
   packets can exercise its rules — informational). *)

let pass_dead_switch ctx =
  let topo = Network.topology ctx.net in
  let len = Network.header_len ctx.net in
  let fed = Array.make (Network.n_switches ctx.net) false in
  Array.iteri
    (fun _ (r : FE.t) ->
      match Network.next_switch ctx.net r with
      | Some sw -> fed.(sw) <- true
      | None -> ())
    ctx.entries;
  let acc = ref [] in
  for sw = 0 to Network.n_switches ctx.net - 1 do
    let has_links = Topology.ports_of topo sw <> [] in
    let has_entries = Network.switch_entries ctx.net sw <> [] in
    if not has_links then
      acc :=
        D.make ~check:"L006-dead-switch" ~severity:D.Warning ~switch:sw
          ~witness:(Hs.empty len)
          (Format.asprintf "sw%d is isolated: no links attached" sw)
        :: !acc
    else if not has_entries then
      acc :=
        D.make ~check:"L006-dead-switch" ~severity:D.Warning ~switch:sw
          ~witness:(Hs.full len)
          (Format.asprintf
             "sw%d has no flow entries: every packet reaching it dies on \
              table-miss" sw)
        :: !acc
    else if not fed.(sw) then
      acc :=
        D.make ~check:"L006-dead-switch" ~severity:D.Info ~switch:sw
          ~witness:(Hs.empty len)
          (Format.asprintf
             "no policy forwards traffic into sw%d: only locally injected \
              packets can exercise its %d entries" sw
             (List.length (Network.switch_entries ctx.net sw)))
        :: !acc
  done;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* L007: dead ports — a linked port no rule of its switch ever outputs
   onto. Unused capacity, or a hint the policy misses a path. Witness:
   the (empty) set of headers the switch sends out of the port. *)

let pass_dead_port ctx =
  let topo = Network.topology ctx.net in
  let len = Network.header_len ctx.net in
  let used = Hashtbl.create 64 in
  Array.iter
    (fun (r : FE.t) ->
      match r.action with
      | FE.Output p -> Hashtbl.replace used (r.switch, p) ()
      | FE.Drop | FE.Goto_table _ -> ())
    ctx.entries;
  let acc = ref [] in
  for sw = 0 to Network.n_switches ctx.net - 1 do
    List.iter
      (fun port ->
        if not (Hashtbl.mem used (sw, port)) then
          let peer =
            match Topology.peer topo ~sw ~port with
            | Some (psw, pport) -> Format.asprintf " (to sw%d:%d)" psw pport
            | None -> ""
          in
          acc :=
            D.make ~check:"L007-dead-port" ~severity:D.Info ~switch:sw
              ~witness:(Hs.empty len)
              (Format.asprintf "no rule of sw%d outputs onto port %d%s" sw port
                 peer)
            :: !acc)
      (Topology.ports_of topo sw)
  done;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* L008: redundant rules — removable without changing the table's
   forwarding function. A rule is redundant when every header of its
   input space would, in its absence, fall through to rules with the
   same observable behavior (or to the table-miss drop, for Drop
   rules). Witness: the rule's whole input space. *)

let pass_redundant ctx =
  let acc = ref [] in
  for sw = 0 to Network.n_switches ctx.net - 1 do
    for tb = 0 to Network.n_tables ctx.net - 1 do
      let entries = table_entries ctx ~switch:sw ~table:tb in
      let rec scan = function
        | [] -> ()
        | (r : FE.t) :: rest ->
            let i = Option.get (Plumbing.vertex_of_entry ctx.plumbing r.id) in
            if not (Hs.is_empty ctx.inputs.(i)) then begin
              (* Fold the rule's input space through the rest of the
                 table in lookup order. *)
              let rec absorb residual = function
                | _ when Hs.is_empty residual -> Some (Hs.empty (Hs.length residual))
                | [] -> if r.action = FE.Drop then Some residual else None
                | (q : FE.t) :: qs ->
                    if Hs.is_empty (Hs.inter_cube residual q.match_) then
                      absorb residual qs
                    else if same_behavior r q then
                      absorb (Hs.diff_cube residual q.match_) qs
                    else None
              in
              match absorb ctx.inputs.(i) rest with
              | Some _ ->
                  acc :=
                    D.make ~check:"L008-redundant-rule" ~severity:D.Info
                      ~switch:sw ~table:tb ~entries:[ r.id ]
                      ~witness:ctx.inputs.(i)
                      (Format.asprintf
                         "entry %d (sw%d, prio %d) is redundant: removing it \
                          leaves the table's behavior unchanged on %a"
                         r.id sw r.priority Hs.pp ctx.inputs.(i))
                    :: !acc
              | None -> ()
            end;
            scan rest
      in
      scan entries
    done
  done;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* L009: probe-plan coverage audit — statically prove every testable
   (non-shadowed) entry is traversed by some planned probe, or name the
   uncovered entries. Witness: the headers that would exercise the
   uncovered entry. *)

let pass_coverage ctx =
  match ctx.probes with
  | None -> []
  | Some probes ->
      (* Delegate to the certification layer's coverage checker so the
         lint audit and `sdnprobe certify` share one implementation and
         cannot disagree on what "covered" means. *)
      List.map
        (fun ((e : FE.t), input) ->
          D.make ~check:"L009-uncovered-rule" ~severity:D.Error
            ~switch:e.switch ~table:e.table ~entries:[ e.id ] ~witness:input
            (Format.asprintf
               "entry %d (sw%d, prio %d) is testable but no planned probe \
                traverses it" e.id e.switch e.priority))
        (Cert.Replay.uncovered ctx.net ~probes)

(* ------------------------------------------------------------------ *)
(* Registry *)

type t = {
  id : string;
  severity : Diagnostic.severity;
  doc : string;
  needs_probes : bool;
  run : ctx -> Diagnostic.t list;
}

let all =
  [
    {
      id = "L001-forwarding-loop";
      severity = D.Error;
      doc = "cycle of flow entries some header can traverse";
      needs_probes = false;
      run = pass_forwarding_loop;
    };
    {
      id = "L002-blackhole";
      severity = D.Warning;
      doc = "forwarded header space the next hop silently drops";
      needs_probes = false;
      run = pass_blackhole;
    };
    {
      id = "L003-shadowed-rule";
      severity = D.Error;
      doc = "entry fully covered by higher-precedence rules";
      needs_probes = false;
      run = pass_shadowed;
    };
    {
      id = "L004-partial-shadow";
      severity = D.Info;
      doc = "entry losing part of its match to higher-precedence rules";
      needs_probes = false;
      run = pass_partial_shadow;
    };
    {
      id = "L005-priority-ambiguity";
      severity = D.Warning;
      doc = "equal-priority overlap with different behavior (undefined in OpenFlow)";
      needs_probes = false;
      run = pass_priority_ambiguity;
    };
    {
      id = "L006-dead-switch";
      severity = D.Warning;
      doc = "isolated, entry-less, or policy-unreachable switch";
      needs_probes = false;
      run = pass_dead_switch;
    };
    {
      id = "L007-dead-port";
      severity = D.Info;
      doc = "linked port no rule outputs onto";
      needs_probes = false;
      run = pass_dead_port;
    };
    {
      id = "L008-redundant-rule";
      severity = D.Info;
      doc = "entry removable without changing reachability";
      needs_probes = false;
      run = pass_redundant;
    };
    {
      id = "L009-uncovered-rule";
      severity = D.Error;
      doc = "testable entry no planned probe traverses";
      needs_probes = true;
      run = pass_coverage;
    };
  ]

let find key =
  let key = String.lowercase_ascii key in
  List.find_opt
    (fun p ->
      let id = String.lowercase_ascii p.id in
      id = key
      || String.length key <= String.length id
         && String.sub id 0 (String.length key) = key
         && String.length key >= 4)
    all
