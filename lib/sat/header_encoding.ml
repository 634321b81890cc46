module Cube = Hspace.Cube
module Header = Hspace.Header

(* Variable for bit k (0-based) is k+1; positive literal = bit is 1. *)
let lit_of_bit k value = if value then k + 1 else -(k + 1)

let fixed_bits cube =
  let rec loop k acc =
    if k >= Cube.length cube then List.rev acc
    else
      match Cube.get cube k with
      | Cube.Any -> loop (k + 1) acc
      | Cube.Zero -> loop (k + 1) ((k, false) :: acc)
      | Cube.One -> loop (k + 1) ((k, true) :: acc)
  in
  loop 0 []

let encode_in_cube solver cube =
  List.iter
    (fun (k, v) -> Solver.add_clause solver [ lit_of_bit k v ])
    (fixed_bits cube)

let encode_not_in_cube solver cube =
  (* ¬(b_{k1}=v1 ∧ ... ∧ b_{kn}=vn)  ≡  (b_{k1}≠v1 ∨ ... ∨ b_{kn}≠vn) *)
  Solver.add_clause solver
    (List.map (fun (k, v) -> lit_of_bit k (not v)) (fixed_bits cube))

let encode_differs_from solver (header : Header.t) =
  encode_not_in_cube solver (header :> Cube.t)

let model_to_header model len =
  Header.of_cube
    (Cube.of_bits
       (Array.init len (fun k ->
            if k + 1 < Array.length model && model.(k + 1) then Cube.One
            else Cube.Zero)))

(* The verbatim encoding ([find_header_certified]) states [inside] as
   unit clauses. Those assign the bits [inside] fixes at level 0, where
   they are never branched on, never bumped and never undone, and
   [Solver.add_clause]'s simplifier then drops every later clause one
   of them satisfies and every literal one of them falsifies. This
   encoding does that evaluation itself and numbers only the free bits,
   in bit order: the solver receives the clause database it would have
   simplified down to, under an order-preserving renaming of its
   variables, so propagation, VSIDS ties, restarts and the model are
   unchanged. What goes is the work on fixed bits — building,
   simplifying and branching past them on every blocking clause. *)
let find_header ?(avoid = []) ?(distinct_from = []) ~inside len =
  let check c =
    if Cube.length c <> len then invalid_arg "Header_encoding.find_header: length mismatch"
  in
  List.iter check inside;
  List.iter check avoid;
  List.iter (fun (h : Header.t) -> check (h :> Cube.t)) distinct_from;
  let box =
    match inside with
    | [] -> Some (Cube.wildcard len)
    | c :: rest -> List.fold_left (fun acc c -> Option.bind acc (Cube.inter c)) (Some c) rest
  in
  match box with
  | None -> None (* the unit clauses of [inside] conflict *)
  | Some box ->
      (* Variable [v] is bit [free.(v - 1)]. *)
      let free =
        Array.of_list (List.filter (fun k -> Cube.get box k = Cube.Any) (List.init len Fun.id))
      in
      let nfree = Array.length free in
      let solver = Solver.create ~nvars:nfree () in
      (* [c]'s blocking clause, minus its literals on fixed bits: one of
         them is true (the clause goes) iff [c] misses [box]; otherwise
         all of them are false. The solver copies the literals, so one
         buffer serves every clause. *)
      let lits = Array.make nfree 0 in
      let encode_outside c =
        if not (Cube.disjoint c box) then begin
          let n = ref 0 in
          let push l =
            lits.(!n) <- l;
            incr n
          in
          Array.iteri
            (fun i k ->
              match Cube.get c k with
              | Cube.Any -> ()
              | Cube.Zero -> push (i + 1)
              | Cube.One -> push (-(i + 1)))
            free;
          Solver.add_clause_array solver (if !n = nfree then lits else Array.sub lits 0 !n)
        end
      in
      List.iter encode_outside avoid;
      List.iter (fun (h : Header.t) -> encode_outside (h :> Cube.t)) distinct_from;
      match Solver.solve solver with
      | Solver.Unsat -> None
      | Solver.Sat model ->
          let bits = Array.init len (Cube.get box) in
          Array.iteri (fun i k -> bits.(k) <- (if model.(i + 1) then Cube.One else Cube.Zero)) free;
          Some (Header.of_cube (Cube.of_bits bits))

type certified = {
  header : Hspace.Header.t option;
  nvars : int;
  clauses : int list list;
  proof : int list list;
}

let find_header_certified ?(avoid = []) ?(distinct_from = []) ~inside len =
  let solver = Solver.create ~nvars:len () in
  Solver.log_proof solver;
  List.iter (encode_in_cube solver) inside;
  List.iter (encode_not_in_cube solver) avoid;
  List.iter (encode_differs_from solver) distinct_from;
  let header =
    match Solver.solve solver with
    | Solver.Unsat -> None
    | Solver.Sat model -> Some (model_to_header model len)
  in
  {
    header;
    nvars = max len (Solver.nvars solver);
    clauses = Solver.logged_clauses solver;
    proof = Solver.proof solver;
  }

let find_rule_input ~match_ ~overlaps =
  find_header ~avoid:overlaps ~inside:[ match_ ] (Cube.length match_)
