module RG = Rulegraph.Rule_graph
module FE = Openflow.Flow_entry

type mode = Static | Randomized of Sdn_util.Prng.t

type t = {
  network : Openflow.Network.t;
  rulegraph : RG.t;
  cover : Mlpc.Cover.t;
  probes : Probe.t list;
  generation_s : float;
  mode : mode;
}

let probes_of_assignment net rg assigned =
  List.mapi
    (fun i ((p : Mlpc.Cover.path), header) ->
      let rules = List.map (fun v -> (RG.vertex_entry rg v).FE.id) p.Mlpc.Cover.rules in
      Probe.make net ~id:i ~rules ~header)
    assigned

(* One randomized draw over a built rule graph: randomized greedy legal
   matching, then uniform header draws from the same PRNG. [randomized]
   and [redraw] differ only in where the rule graph comes from; [t0]
   is when generation started, so [randomized] counts the build too. *)
let draw ?pool ~t0 rng network rulegraph =
  let cover = Mlpc.Legal_matching.randomized rng rulegraph in
  let probes =
    probes_of_assignment network rulegraph
      (Mlpc.Headers.assign ?pool (Mlpc.Headers.Random rng) cover)
  in
  {
    network;
    rulegraph;
    cover;
    probes;
    generation_s = Sdn_util.Mono.now_s () -. t0;
    mode = Randomized rng;
  }

let randomized ?pool rng network =
  let t0 = Sdn_util.Mono.now_s () in
  draw ?pool ~t0 rng network (RG.build network)

let redraw ?pool t rng =
  draw ?pool ~t0:(Sdn_util.Mono.now_s ()) rng t.network t.rulegraph

let size t = List.length t.probes

type patch = {
  edits : Sdn_util.Edits.t;
  added : Probe.t list;
  removed : Probe.t list;
  rewritten : (Probe.t * Probe.t) list;
}

let patch_size p =
  List.length p.added + List.length p.removed + List.length p.rewritten

let patch_is_empty p = patch_size p = 0

let diff ~edits ~before ~after =
  (* Multiset-match probes on their rule sequence: probe ids are cover
     indices and shift wholesale on every edit, so identity must come
     from the tested path itself. A before-probe and an after-probe on
     the same rule sequence are the same logical probe — surviving if
     the header is unchanged, rewritten otherwise. *)
  let pending : (int list, Probe.t Queue.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (p : Probe.t) ->
      let q =
        match Hashtbl.find_opt pending p.Probe.rules with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.add pending p.Probe.rules q;
            q
      in
      Queue.add p q)
    before;
  let added = ref [] and rewritten = ref [] in
  List.iter
    (fun (p : Probe.t) ->
      match Hashtbl.find_opt pending p.Probe.rules with
      | Some q when not (Queue.is_empty q) ->
          let old = Queue.pop q in
          if not (Hspace.Header.equal old.Probe.header p.Probe.header) then
            rewritten := (old, p) :: !rewritten
      | _ -> added := p :: !added)
    after;
  let removed =
    Hashtbl.fold
      (fun _ q acc -> List.rev_append (List.of_seq (Queue.to_seq q)) acc)
      pending []
    |> List.sort (fun (a : Probe.t) b -> compare a.Probe.id b.Probe.id)
  in
  {
    edits;
    added = List.rev !added;
    removed;
    rewritten = List.rev !rewritten;
  }

let patch_to_json p =
  let module J = Sdn_util.Json in
  J.Obj
    [
      ("edits", Sdn_util.Edits.to_json [ p.edits ]);
      ("added", J.List (List.map Probe.to_json p.added));
      ("removed", J.List (List.map Probe.to_json p.removed));
      ( "rewritten",
        J.List
          (List.map
             (fun (o, n) ->
               J.Obj [ ("before", Probe.to_json o); ("after", Probe.to_json n) ])
             p.rewritten) );
    ]
