module RG = Rulegraph.Rule_graph
module N = Openflow.Network
module FE = Openflow.Flow_entry
module Edits = Sdn_util.Edits

exception Edit_error of string

type t = {
  pool : Sdn_parallel.Pool.t option;
  network : N.t;
  rulegraph : RG.t;
  memo : Mlpc.Headers.memo;
  plan : Sdnprobe.Plan.t;
  epoch : int;
}

let plan t = t.plan
let network t = t.network
let rulegraph t = t.rulegraph
let epoch t = t.epoch

(* The memo outlives graph renumbering, so paths are keyed by the entry
   ids they test — the one name that survives an edit. *)
let entry_key rg (p : Mlpc.Cover.path) =
  List.map (fun v -> (RG.vertex_entry rg v).FE.id) p.Mlpc.Cover.rules

let plan_of ?pool ~memo net rg =
  let t0 = Sdn_util.Mono.now_s () in
  let cover = Mlpc.Legal_matching.solve rg in
  let assigned =
    Mlpc.Headers.assign ?pool ~memo ~key:(entry_key rg) Mlpc.Headers.Sat_unique
      cover
  in
  let probes = Sdnprobe.Plan.probes_of_assignment net rg assigned in
  {
    Sdnprobe.Plan.network = net;
    rulegraph = rg;
    cover;
    probes;
    generation_s = Sdn_util.Mono.now_s () -. t0;
    mode = Sdnprobe.Plan.Static;
  }

let create ?pool net =
  let rg = RG.build net in
  let memo = Mlpc.Headers.memo_create () in
  { pool; network = net; rulegraph = rg; memo; plan = plan_of ?pool ~memo net rg; epoch = 0 }

let apply_op net (op : Edits.op) =
  match op with
  | Edits.Remove id -> (
      match N.find_entry net id with
      | None -> raise (Edit_error (Printf.sprintf "remove %d: no such entry" id))
      | Some e ->
          N.remove_entry net id;
          (e.FE.switch, e.FE.table))
  | Edits.Add a ->
      let cube what s =
        try Hspace.Cube.of_string s
        with Invalid_argument m ->
          raise (Edit_error (Printf.sprintf "add: bad %s %S (%s)" what s m))
      in
      let match_ = cube "match" a.Edits.match_ in
      let set_field = Option.map (cube "set") a.Edits.set_field in
      let action =
        match a.Edits.action with
        | Edits.Drop -> FE.Drop
        | Edits.Output p -> FE.Output p
        | Edits.Goto_table tb -> FE.Goto_table tb
      in
      let e =
        try
          N.add_entry net ~switch:a.Edits.switch ~table:a.Edits.table
            ~priority:a.Edits.priority ~match_ ?set_field action
        with Invalid_argument m -> raise (Edit_error (Printf.sprintf "add: %s" m))
      in
      (e.FE.switch, e.FE.table)

let dedup_tables tables =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun tb ->
      if Hashtbl.mem seen tb then false
      else (
        Hashtbl.add seen tb ();
        true))
    tables

let apply t (edits : Edits.t) =
  if edits = [] then
    (t, { Sdnprobe.Plan.edits; added = []; removed = []; rewritten = [] })
  else begin
    let changed = dedup_tables (List.map (apply_op t.network) edits) in
    let rg = RG.update t.rulegraph ~changed_tables:changed in
    let plan = plan_of ?pool:t.pool ~memo:t.memo t.network rg in
    let patch =
      Sdnprobe.Plan.diff ~edits ~before:t.plan.Sdnprobe.Plan.probes
        ~after:plan.Sdnprobe.Plan.probes
    in
    ({ t with rulegraph = rg; plan; epoch = t.epoch + 1 }, patch)
  end
