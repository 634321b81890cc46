(* CDCL solver, MiniSat-style.

   Internal literal encoding: variable v (1-based) has positive literal
   [2v] and negative literal [2v+1]; negation is [lxor 1]. Clauses are
   int arrays of internal literals; the first two literals of a clause
   are its watched literals. [watches.(l)] lists the clauses currently
   watching literal [l]; they are visited when [l] becomes false. *)

type clause = { lits : int array; learnt : bool }

(* DRUP proof log (opt-in, see [log_proof]). [problem] records every
   clause handed to [add_clause] verbatim; [steps] records derived
   clauses in derivation order — level-0 strengthenings emitted by
   [add_clause]'s simplifier, learnt clauses from conflict analysis, and
   the final empty clause when the instance is refuted. Each step is
   RUP with respect to the problem clauses plus the earlier steps, so a
   from-scratch unit-propagation checker (Cert.Drup) can validate an
   Unsat answer without trusting any of the solver's machinery. Both
   lists are kept in DIMACS literals, newest first. *)
type log = { mutable problem : int list list; mutable steps : int list list }

type t = {
  mutable nvars : int;
  mutable clauses : clause array;
  mutable nclauses : int; (* used slots *)
  mutable nproblem : int; (* problem (non-learnt) clause count *)
  mutable watches : int list array; (* lit -> clause ids watching it *)
  mutable assign : int array; (* var -> -1 unassigned / 0 false / 1 true *)
  mutable level : int array;
  mutable reason : int array; (* var -> implying clause id or -1 *)
  mutable activity : float array;
  mutable phase : bool array; (* saved polarity *)
  mutable seen : bool array; (* scratch for conflict analysis *)
  mutable simp_mark : int array; (* lit -> epoch: scratch for add_clause *)
  mutable simp_epoch : int;
  mutable trail : int array;
  mutable trail_size : int;
  mutable trail_lim : int list; (* trail sizes at decision points (head = latest) *)
  mutable qhead : int;
  mutable var_inc : float;
  mutable unsat : bool; (* contradiction at level 0 *)
  mutable n_conflicts : int;
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_restarts : int;
  mutable log : log option;
}

type result = Sat of bool array | Unsat

let var_of lit = lit lsr 1
let neg lit = lit lxor 1
let pos_lit v = v lsl 1
let sign lit = lit land 1 = 0

let lit_of_dimacs l =
  if l = 0 then invalid_arg "Solver: literal 0";
  let v = abs l in
  if l > 0 then pos_lit v else pos_lit v + 1

let create ?(nvars = 0) () =
  let cap = max 8 (nvars + 1) in
  {
    nvars;
    clauses = Array.make 16 { lits = [||]; learnt = false };
    nclauses = 0;
    nproblem = 0;
    watches = Array.make (2 * cap) [];
    assign = Array.make cap (-1);
    level = Array.make cap 0;
    reason = Array.make cap (-1);
    activity = Array.make cap 0.;
    phase = Array.make cap false;
    seen = Array.make cap false;
    simp_mark = Array.make (2 * cap) 0;
    simp_epoch = 0;
    trail = Array.make cap 0;
    trail_size = 0;
    trail_lim = [];
    qhead = 0;
    var_inc = 1.0;
    unsat = false;
    n_conflicts = 0;
    n_decisions = 0;
    n_propagations = 0;
    n_restarts = 0;
    log = None;
  }

let dimacs_of_lit lit = if sign lit then var_of lit else -var_of lit

let log_proof t =
  if t.nproblem > 0 || t.unsat then
    invalid_arg "Solver.log_proof: enable logging before adding clauses";
  if t.log = None then t.log <- Some { problem = []; steps = [] }

let proof_logging t = t.log <> None

let logged_clauses t =
  match t.log with None -> [] | Some l -> List.rev l.problem

let proof t = match t.log with None -> [] | Some l -> List.rev l.steps

let log_step t clause =
  match t.log with None -> () | Some l -> l.steps <- clause :: l.steps

let nvars t = t.nvars
let nclauses t = t.nproblem

let grow_arrays t needed =
  let cap = Array.length t.assign in
  if needed >= cap then begin
    let ncap = max (needed + 1) (2 * cap) in
    let copy_int a def =
      let b = Array.make ncap def in
      Array.blit a 0 b 0 cap;
      b
    in
    let copy_f a =
      let b = Array.make ncap 0. in
      Array.blit a 0 b 0 cap;
      b
    in
    let copy_b a =
      let b = Array.make ncap false in
      Array.blit a 0 b 0 cap;
      b
    in
    t.assign <- copy_int t.assign (-1);
    t.level <- copy_int t.level 0;
    t.reason <- copy_int t.reason (-1);
    t.activity <- copy_f t.activity;
    t.phase <- copy_b t.phase;
    t.seen <- copy_b t.seen;
    let trail = Array.make ncap 0 in
    Array.blit t.trail 0 trail 0 t.trail_size;
    t.trail <- trail;
    let w = Array.make (2 * ncap) [] in
    Array.blit t.watches 0 w 0 (Array.length t.watches);
    t.watches <- w;
    let m = Array.make (2 * ncap) 0 in
    Array.blit t.simp_mark 0 m 0 (Array.length t.simp_mark);
    t.simp_mark <- m
  end

let ensure_var t v =
  if v > t.nvars then begin
    grow_arrays t v;
    t.nvars <- v
  end

let new_var t =
  let v = t.nvars + 1 in
  ensure_var t v;
  v

let value_lit t lit =
  let a = t.assign.(var_of lit) in
  if a < 0 then -1 else if sign lit then a else 1 - a

let decision_level t = List.length t.trail_lim

let enqueue t lit reason =
  let v = var_of lit in
  t.assign.(v) <- (if sign lit then 1 else 0);
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  t.phase.(v) <- sign lit;
  t.trail.(t.trail_size) <- lit;
  t.trail_size <- t.trail_size + 1

let push_clause t c =
  if t.nclauses >= Array.length t.clauses then begin
    let n = Array.make (2 * Array.length t.clauses) { lits = [||]; learnt = false } in
    Array.blit t.clauses 0 n 0 t.nclauses;
    t.clauses <- n
  end;
  t.clauses.(t.nclauses) <- c;
  t.nclauses <- t.nclauses + 1;
  t.nclauses - 1

let watch t lit cid = t.watches.(lit) <- cid :: t.watches.(lit)

(* Unit propagation. Returns the id of a conflicting clause, or -1. *)
let propagate t =
  let conflict = ref (-1) in
  while !conflict < 0 && t.qhead < t.trail_size do
    let lit = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.n_propagations <- t.n_propagations + 1;
    let falsified = neg lit in
    let ws = t.watches.(falsified) in
    t.watches.(falsified) <- [];
    let rec go = function
      | [] -> ()
      | cid :: rest ->
          let c = t.clauses.(cid) in
          let lits = c.lits in
          if lits.(0) = falsified then begin
            lits.(0) <- lits.(1);
            lits.(1) <- falsified
          end;
          if value_lit t lits.(0) = 1 then begin
            watch t falsified cid;
            go rest
          end
          else begin
            let n = Array.length lits in
            let found = ref false in
            let k = ref 2 in
            while (not !found) && !k < n do
              if value_lit t lits.(!k) <> 0 then begin
                lits.(1) <- lits.(!k);
                lits.(!k) <- falsified;
                watch t lits.(1) cid;
                found := true
              end;
              incr k
            done;
            if !found then go rest
            else begin
              watch t falsified cid;
              if value_lit t lits.(0) = 0 then begin
                conflict := cid;
                List.iter (fun c' -> watch t falsified c') rest
              end
              else begin
                enqueue t lits.(0) cid;
                go rest
              end
            end
          end
    in
    go ws
  done;
  !conflict

let var_bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for i = 1 to t.nvars do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end

let var_decay t = t.var_inc <- t.var_inc /. 0.95

let cancel_until t lvl =
  while decision_level t > lvl do
    let s = List.hd t.trail_lim in
    t.trail_lim <- List.tl t.trail_lim;
    for i = t.trail_size - 1 downto s do
      let v = var_of t.trail.(i) in
      t.assign.(v) <- -1;
      t.reason.(v) <- -1
    done;
    t.trail_size <- s
  done;
  t.qhead <- t.trail_size

(* First-UIP conflict analysis. Returns the learnt clause (asserting
   literal first) and the backjump level. *)
let analyze t confl =
  let learnt = ref [] in
  let pathc = ref 0 in
  let p = ref (-1) in
  let index = ref (t.trail_size - 1) in
  let btlevel = ref 0 in
  let cur_level = decision_level t in
  let confl = ref confl in
  let continue = ref true in
  while !continue do
    let c = t.clauses.(!confl) in
    let start = if !p = -1 then 0 else 1 in
    for j = start to Array.length c.lits - 1 do
      let q = c.lits.(j) in
      let v = var_of q in
      if (not t.seen.(v)) && t.level.(v) > 0 then begin
        t.seen.(v) <- true;
        var_bump t v;
        if t.level.(v) >= cur_level then incr pathc
        else begin
          learnt := q :: !learnt;
          if t.level.(v) > !btlevel then btlevel := t.level.(v)
        end
      end
    done;
    let rec find_next i = if t.seen.(var_of t.trail.(i)) then i else find_next (i - 1) in
    index := find_next !index;
    p := t.trail.(!index);
    t.seen.(var_of !p) <- false;
    decr pathc;
    if !pathc <= 0 then continue := false
    else begin
      confl := t.reason.(var_of !p);
      index := !index - 1
    end
  done;
  let learnt_lits = Array.of_list (neg !p :: !learnt) in
  List.iter (fun q -> t.seen.(var_of q) <- false) !learnt;
  (learnt_lits, !btlevel)

(* Install a learnt clause after backjumping and assert its first literal. *)
let record_learnt t lits =
  if proof_logging t then log_step t (Array.to_list (Array.map dimacs_of_lit lits));
  if Array.length lits = 1 then enqueue t lits.(0) (-1)
  else begin
    let best = ref 1 in
    for k = 2 to Array.length lits - 1 do
      if t.level.(var_of lits.(k)) > t.level.(var_of lits.(!best)) then best := k
    done;
    let tmp = lits.(1) in
    lits.(1) <- lits.(!best);
    lits.(!best) <- tmp;
    let cid = push_clause t { lits; learnt = true } in
    watch t lits.(0) cid;
    watch t lits.(1) cid;
    enqueue t lits.(0) cid
  end

let refute t =
  if not t.unsat then begin
    t.unsat <- true;
    log_step t []
  end

let add_clause_array t dimacs =
  (* The proof log keeps the clause verbatim even when the solver is
     already refuted (or about to drop it): the checker's database must
     be the clauses the caller stated, not the solver's view of them. *)
  (match t.log with
  | Some l -> l.problem <- Array.to_list dimacs :: l.problem
  | None -> ());
  if not t.unsat then begin
    Array.iter (fun l -> ensure_var t (abs l)) dimacs;
    assert (decision_level t = 0);
    (* Level-0 simplification: drop falsified and duplicate literals;
       detect tautologies and already-satisfied clauses. Duplicate
       tracking marks literals in an epoch-stamped scratch array —
       clauses arrive by the hundred thousand on big covers, and a
       per-clause allocated set was the dominant cost of header
       assignment (docs/PERF.md). Kept literals fill [kept] from the
       back, so [kept.(n - k ..)] holds them last-kept first: the
       clause's literal order, which the watches and hence the search
       depend on. *)
    t.simp_epoch <- t.simp_epoch + 1;
    let epoch = t.simp_epoch in
    let n = Array.length dimacs in
    let kept = Array.make n 0 in
    let k = ref 0 and satisfied = ref false and i = ref 0 in
    while (not !satisfied) && !i < n do
      let l = lit_of_dimacs dimacs.(!i) in
      if t.simp_mark.(neg l) = epoch || value_lit t l = 1 then satisfied := true
      else if t.simp_mark.(l) <> epoch && value_lit t l <> 0 then begin
        t.simp_mark.(l) <- epoch;
        incr k;
        kept.(n - !k) <- l
      end;
      incr i
    done;
    t.nproblem <- t.nproblem + 1;
    if not !satisfied then begin
      let k = !k in
      let lits = if k = n then kept else Array.sub kept (n - k) k in
      (* Strengthened clauses (literals dropped by the simplifier) are
         RUP against the database — duplicates negate to the same
         assignment, and level-0-falsified literals are re-derived by
         the checker's own propagation — so they are sound DRUP steps.
         Logging them keeps the checker's database in sync with the
         clauses the solver actually resolves on. *)
      if k > 0 && k < n then
        log_step t (List.rev (Array.to_list (Array.map dimacs_of_lit lits)));
      match k with
      | 0 -> refute t
      | 1 ->
          enqueue t lits.(0) (-1);
          if propagate t >= 0 then refute t
      | _ ->
          let cid = push_clause t { lits; learnt = false } in
          watch t lits.(0) cid;
          watch t lits.(1) cid
    end
  end

let add_clause t dimacs_lits = add_clause_array t (Array.of_list dimacs_lits)

(* Unassigned variable with maximal activity. Linear scan: instances in
   this reproduction are tiny, so a binary heap is not worth the code. *)
let pick_branch_var t =
  let best = ref 0 and best_act = ref neg_infinity in
  for v = 1 to t.nvars do
    if t.assign.(v) < 0 && t.activity.(v) > !best_act then begin
      best := v;
      best_act := t.activity.(v)
    end
  done;
  !best

(* MiniSat's Luby restart sequence: 1 1 2 1 1 2 4 ... *)
let luby x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  1 lsl !seq

let solve ?(assumptions = []) t =
  if t.unsat then Unsat
  else begin
    cancel_until t 0;
    if propagate t >= 0 then refute t;
    if t.unsat then Unsat
    else begin
      List.iter (fun l -> ensure_var t (abs l)) assumptions;
      let assumption_lits = Array.of_list (List.map lit_of_dimacs assumptions) in
      let nassum = Array.length assumption_lits in
      let status = ref 0 in
      let restart_count = ref 0 in
      let conflicts_until_restart = ref (100 * luby 0) in
      let conflicts_this_restart = ref 0 in
      while !status = 0 do
        let confl = propagate t in
        if confl >= 0 then begin
          t.n_conflicts <- t.n_conflicts + 1;
          if decision_level t = 0 then begin
            refute t;
            status := -1
          end
          else if decision_level t <= nassum then
            (* The conflict is forced by the assumptions alone. *)
            status := -1
          else begin
            let learnt, btlevel = analyze t confl in
            cancel_until t btlevel;
            incr conflicts_this_restart;
            record_learnt t learnt;
            var_decay t
          end
        end
        else if
          !conflicts_this_restart >= !conflicts_until_restart
          && decision_level t > nassum
        then begin
          t.n_restarts <- t.n_restarts + 1;
          incr restart_count;
          conflicts_this_restart := 0;
          conflicts_until_restart := 100 * luby !restart_count;
          cancel_until t nassum
        end
        else begin
          let dl = decision_level t in
          if dl < nassum then begin
            (* Install the next assumption as a decision. *)
            let a = assumption_lits.(dl) in
            match value_lit t a with
            | 1 -> t.trail_lim <- t.trail_size :: t.trail_lim
            | 0 -> status := -1
            | _ ->
                t.trail_lim <- t.trail_size :: t.trail_lim;
                enqueue t a (-1)
          end
          else begin
            let v = pick_branch_var t in
            if v = 0 then status := 1
            else begin
              t.n_decisions <- t.n_decisions + 1;
              t.trail_lim <- t.trail_size :: t.trail_lim;
              let lit = if t.phase.(v) then pos_lit v else pos_lit v + 1 in
              enqueue t lit (-1)
            end
          end
        end
      done;
      let res =
        if !status = 1 then begin
          let model = Array.make (t.nvars + 1) false in
          for v = 1 to t.nvars do
            model.(v) <- t.assign.(v) = 1
          done;
          Sat model
        end
        else Unsat
      in
      cancel_until t 0;
      res
    end
  end

let stats t =
  [
    ("conflicts", t.n_conflicts);
    ("decisions", t.n_decisions);
    ("propagations", t.n_propagations);
    ("restarts", t.n_restarts);
    ("learnt", t.nclauses - t.nproblem);
  ]
