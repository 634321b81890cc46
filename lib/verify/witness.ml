module Hs = Hspace.Hs
module Header = Hspace.Header
module FE = Openflow.Flow_entry
module Network = Openflow.Network
module Flow_table = Openflow.Flow_table

type t = { rules : int list; header : Hspace.Header.t option }

type kind =
  | Path_reaches of { src : int; dst : int }
  | Path_avoids of { src : int; waypoint : int; dst : int }
  | Loop_unrolled
  | Structural_cycle
  | Leak of { rule : int; next_switch : int }
  | Leak_unexercised of { rule : int; next_switch : int }
  | Deepest_path of { src : int }
  | Vacuous_source of { src : int }

type certificate = Replayed | Structural

let certificate_name = function
  | Replayed -> "replayed"
  | Structural -> "structural"

let pp_kind fmt = function
  | Path_reaches { src; dst } -> Format.fprintf fmt "path-reaches sw%d->sw%d" src dst
  | Path_avoids { src; waypoint; dst } ->
      Format.fprintf fmt "path-avoids sw%d-/%d->sw%d" src waypoint dst
  | Loop_unrolled -> Format.pp_print_string fmt "loop-unrolled"
  | Structural_cycle -> Format.pp_print_string fmt "structural-cycle"
  | Leak { rule; next_switch } -> Format.fprintf fmt "leak entry %d -> sw%d" rule next_switch
  | Leak_unexercised { rule; next_switch } ->
      Format.fprintf fmt "leak (unexercised) entry %d -> sw%d" rule next_switch
  | Deepest_path { src } -> Format.fprintf fmt "deepest-path from sw%d" src
  | Vacuous_source { src } -> Format.fprintf fmt "vacuous-source sw%d" src

let ( let* ) = Result.bind

let err fmt = Format.kasprintf (fun s -> Error s) fmt

let entry_opt net id = Network.find_entry net id

(* Run the header through the path's set-field rewrites; replay already
   established that the path is the real lookup trajectory of this
   header, so a plain fold reproduces the header the last rule emits. *)
let final_header net rules header =
  List.fold_left
    (fun h id -> FE.apply (Network.entry net id) h)
    header rules

let switch_of net id = (Network.entry net id).FE.switch

(* Replay through the real lookup semantics, then check the claim's
   concrete postcondition. *)
let certify_replayed net kind rules header =
  let* () = Cert.Replay.check_path net { Cert.Replay.rules; header } in
  let first = List.hd rules and last = List.nth rules (List.length rules - 1) in
  match kind with
  | Path_reaches { src; dst } ->
      if switch_of net first <> src then
        err "path starts at sw%d, not sw%d" (switch_of net first) src
      else if switch_of net last <> dst then
        err "path ends at sw%d, not sw%d" (switch_of net last) dst
      else Ok Replayed
  | Path_avoids { src; waypoint; dst } ->
      if switch_of net first <> src then
        err "path starts at sw%d, not sw%d" (switch_of net first) src
      else if switch_of net last <> dst then
        err "path ends at sw%d, not sw%d" (switch_of net last) dst
      else if List.exists (fun id -> switch_of net id = waypoint) rules then
        err "path traverses the waypoint sw%d" waypoint
      else Ok Replayed
  | Loop_unrolled ->
      let sorted = List.sort Int.compare rules in
      let rec has_dup = function
        | a :: (b :: _ as rest) -> a = b || has_dup rest
        | _ -> false
      in
      if has_dup sorted then Ok Replayed
      else err "path revisits no flow entry"
  | Deepest_path { src } ->
      if switch_of net first <> src then
        err "path starts at sw%d, not sw%d" (switch_of net first) src
      else Ok Replayed
  | Leak { rule; next_switch } ->
      if last <> rule then err "path ends at entry %d, not the leaking entry %d" last rule
      else
        let r = Network.entry net rule in
        let* () =
          match r.FE.action with
          | FE.Output _ when Network.next_switch net r = Some next_switch -> Ok ()
          | _ -> err "entry %d does not forward to sw%d" rule next_switch
        in
        (* The packet the witness hands to the next hop, re-derived by
           concrete simulation. *)
        let handed = final_header net rules header in
        (match Flow_table.lookup (Network.table net ~switch:next_switch ~table:0) handed with
        | None -> Ok Replayed
        | Some q ->
            err "header %s is matched by entry %d at sw%d — no blackhole"
              (Header.to_string handed) q.FE.id next_switch)
  | Structural_cycle | Leak_unexercised _ | Vacuous_source _ ->
      err "kind does not admit a replayed witness"

(* Path-free claims: recompute the structural fact fresh from the flow
   tables (input/output spaces re-derived, not read off the engine). *)
let certify_structural net kind rules =
  match kind with
  | Vacuous_source { src } ->
      if rules <> [] then err "vacuous witness carries a path"
      else
        let stuck =
          List.filter
            (fun (e : FE.t) ->
              e.table = 0 && not (Hs.is_empty (Network.input_space net e)))
            (Network.switch_entries net src)
        in
        (match stuck with
        | [] -> Ok Structural
        | e :: _ -> err "entry %d at sw%d is injectable — source not vacuous" e.FE.id src)
  | Structural_cycle ->
      let* entries =
        try
          Ok
            (List.map
               (fun id ->
                 match entry_opt net id with
                 | Some e -> e
                 | None -> raise Exit)
               rules)
        with Exit -> err "cycle references a deleted entry"
      in
      if entries = [] then err "empty cycle"
      else
        let rec check = function
          | [] -> Ok Structural
          | (p, q) :: rest ->
              let hand_off =
                Hs.inter (Network.output_space net p) (Network.input_space net q)
              in
              if Hs.is_empty hand_off then
                err "hand-off %d -> %d is empty — edge infeasible" p.FE.id q.FE.id
              else
                let ok_dispatch =
                  match p.FE.action with
                  | FE.Drop -> false
                  | FE.Output _ ->
                      q.FE.table = 0 && Network.next_switch net p = Some q.FE.switch
                  | FE.Goto_table tb -> p.FE.switch = q.FE.switch && tb = q.FE.table
                in
                if not ok_dispatch then
                  err "entry %d does not dispatch to entry %d" p.FE.id q.FE.id
                else check rest
        in
        let pairs =
          let rec adj = function
            | a :: (b :: _ as rest) -> (a, b) :: adj rest
            | _ -> []
          in
          adj entries @ [ (List.nth entries (List.length entries - 1), List.hd entries) ]
        in
        check pairs
  | Leak_unexercised { rule; next_switch } -> (
      match entry_opt net rule with
      | None -> err "leaking entry %d no longer exists" rule
      | Some r ->
          let* () =
            match r.FE.action with
            | FE.Output _ when Network.next_switch net r = Some next_switch -> Ok ()
            | _ -> err "entry %d does not forward to sw%d" rule next_switch
          in
          let leaked =
            Flow_table.fold
              (fun space (q : FE.t) -> Hs.diff_cube space q.FE.match_)
              (Network.output_space net r)
              (Network.table net ~switch:next_switch ~table:0)
          in
          if Hs.is_empty leaked then err "entry %d leaks nothing — recheck failed" rule
          else Ok Structural)
  | Path_reaches _ | Path_avoids _ | Loop_unrolled | Leak _ | Deepest_path _ ->
      err "kind requires a replayable (header, path) witness"

let certify net kind w =
  match (w.header, w.rules) with
  | Some h, _ :: _ -> certify_replayed net kind w.rules h
  | Some _, [] -> err "witness has a header but no path"
  | None, rules -> certify_structural net kind rules
