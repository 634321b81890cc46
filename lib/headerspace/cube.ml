(* A cube is two packed bit arrays over int chunks:
   - [mask]: bit k set  <=>  position k is fixed (not a wildcard)
   - [value]: the fixed bit's value; invariant: value land (lnot mask) = 0
   Bit k of the cube lives in chunk [k / chunk_bits], bit [k mod chunk_bits]. *)

type bit = Zero | One | Any

let chunk_bits = 62

type t = { len : int; mask : int array; value : int array }

let nchunks len = (len + chunk_bits - 1) / chunk_bits

(* ------------------------------------------------------------------ *)
(* Hashing and hash-consing.

   [hash] folds over every chunk of both bit arrays. Delegating to
   [Hashtbl.hash] would silently stop after its default meaningful-word
   budget, collapsing long headers (>~ 10 words) into a handful of
   buckets — fatal for the intern table below. The mixer is a
   multiply/xor-shift round (splitmix-style) per chunk.

   Hash-consing is selective: the cubes that live long and get compared
   often — match fields, set fields, wildcards, anything built through
   [of_bits]/[of_string]/[wildcard] — are interned in a weak table, so
   they are one physical object and [equal]/[subset] short-circuit on
   identity. The header-space algebra ([inter], [diff],
   [apply_set_field], [inverse_set_field], [sample], ...) returns its
   results uninterned: intermediates are short-lived, rarely compared,
   and routing every one through the table made [inter] ~2.4x slower
   (the cube.inter/64 regression in BENCH_3.json) — [equal] keeps its
   structural fallback, so correctness never depends on identity.

   The table itself must be domain-safe (the planning stages run cube
   algebra from a domain pool, see docs/PARALLEL.md): 16 weak tables,
   each behind its own mutex, picked by cube hash — cross-domain
   sharing, one uncontended lock/unlock per intern. *)

let hash c =
  let mix h x =
    let h = (h lxor x) * 0x9e3779b1 in
    h lxor (h lsr 29)
  in
  let h = ref (mix 0x50b07 c.len) in
  for i = 0 to Array.length c.mask - 1 do
    h := mix !h c.mask.(i);
    h := mix !h c.value.(i)
  done;
  !h land max_int

let structural_equal a b = a.len = b.len && a.mask = b.mask && a.value = b.value

module Intern = Weak.Make (struct
  type nonrec t = t

  let equal = structural_equal

  let hash = hash
end)

let n_shards = 16 (* power of two: shard index is a hash mask *)

type shard = { sm : Mutex.t; tbl : Intern.t }

(* sdncheck: allow D005 — each shard's table is only touched while
   holding that shard's [sm] mutex (see [intern]) *)
let shards =
  Array.init n_shards (fun _ -> { sm = Mutex.create (); tbl = Intern.create 1024 })

let intern c =
  let s = shards.(hash c land (n_shards - 1)) in
  Mutex.lock s.sm;
  let c = Intern.merge s.tbl c in
  Mutex.unlock s.sm;
  c

let interned_count () =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.sm;
      let n = Intern.count s.tbl in
      Mutex.unlock s.sm;
      acc + n)
    0 shards

(* Mask selecting the valid bits of the last chunk. *)
let tail_mask len =
  let r = len mod chunk_bits in
  if r = 0 then -1 lsr 1 (* all 62 bits *) else (1 lsl r) - 1

let length c = c.len

let wildcard len =
  if len <= 0 then invalid_arg "Cube.wildcard: non-positive length";
  intern { len; mask = Array.make (nchunks len) 0; value = Array.make (nchunks len) 0 }

let pos k = (k / chunk_bits, 1 lsl (k mod chunk_bits))

let get c k =
  if k < 0 || k >= c.len then invalid_arg "Cube.get: index out of range";
  (* Not [pos k]: its tuple would cost an allocation per call. *)
  let i = k / chunk_bits and b = 1 lsl (k mod chunk_bits) in
  if c.mask.(i) land b = 0 then Any
  else if c.value.(i) land b = 0 then Zero
  else One

let set c k bit =
  if k < 0 || k >= c.len then invalid_arg "Cube.set: index out of range";
  let i, b = pos k in
  let mask = Array.copy c.mask and value = Array.copy c.value in
  (match bit with
  | Any ->
      mask.(i) <- mask.(i) land lnot b;
      value.(i) <- value.(i) land lnot b
  | Zero ->
      mask.(i) <- mask.(i) lor b;
      value.(i) <- value.(i) land lnot b
  | One ->
      mask.(i) <- mask.(i) lor b;
      value.(i) <- value.(i) lor b);
  { c with mask; value }

let of_bits bits =
  let len = Array.length bits in
  if len = 0 then invalid_arg "Cube.of_bits: empty";
  let mask = Array.make (nchunks len) 0 and value = Array.make (nchunks len) 0 in
  Array.iteri
    (fun k b ->
      let i, bm = pos k in
      match b with
      | Any -> ()
      | Zero -> mask.(i) <- mask.(i) lor bm
      | One ->
          mask.(i) <- mask.(i) lor bm;
          value.(i) <- value.(i) lor bm)
    bits;
  intern { len; mask; value }

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Cube.of_string: empty";
  of_bits
    (Array.init len (fun k ->
         match s.[k] with
         | '0' -> Zero
         | '1' -> One
         | 'x' | 'X' | '*' -> Any
         | c -> invalid_arg (Printf.sprintf "Cube.of_string: bad char %c" c)))

let to_string c =
  String.init c.len (fun k ->
      match get c k with Zero -> '0' | One -> '1' | Any -> 'x')

let pp fmt c = Format.pp_print_string fmt (to_string c)

let equal a b = a == b || structural_equal a b

let compare a b =
  if a == b then 0
  else
    let c = Stdlib.compare a.len b.len in
    if c <> 0 then c
    else
      let c = Stdlib.compare a.mask b.mask in
      if c <> 0 then c else Stdlib.compare a.value b.value

let popcount x =
  let rec loop x acc = if x = 0 then acc else loop (x land (x - 1)) (acc + 1) in
  loop x 0

let fixed_count c = Array.fold_left (fun acc m -> acc + popcount m) 0 c.mask

let wildcard_count c = c.len - fixed_count c

let is_concrete c = wildcard_count c = 0

let size c = 2. ** float_of_int (wildcard_count c)

let check_lengths a b name =
  if a.len <> b.len then invalid_arg (name ^ ": length mismatch")

let inter a b =
  if a == b then Some a
  else begin
    check_lengths a b "Cube.inter";
    let n = Array.length a.mask in
    (* Conflict: bit fixed in both with differing values. *)
    let rec conflict i =
      if i >= n then false
      else
        let both = a.mask.(i) land b.mask.(i) in
        if (a.value.(i) lxor b.value.(i)) land both <> 0 then true
        else conflict (i + 1)
    in
    if conflict 0 then None
    else
      let mask = Array.init n (fun i -> a.mask.(i) lor b.mask.(i)) in
      let value = Array.init n (fun i -> a.value.(i) lor b.value.(i)) in
      Some { len = a.len; mask; value }
  end

(* A conflict in chunk [i] or later: a bit fixed in both cubes with
   differing values. Toplevel, so the test allocates no closure — the
   header-assignment component pass runs it on every pair of a
   bucket. *)
let rec conflict_from a b i =
  i < Array.length a.mask
  && ((a.value.(i) lxor b.value.(i)) land a.mask.(i) land b.mask.(i) <> 0
     || conflict_from a b (i + 1))

let disjoint a b =
  a != b
  && begin
       check_lengths a b "Cube.disjoint";
       (* [inter a b = None] without materializing the intersection. *)
       conflict_from a b 0
     end

(* Cubes that disagree on a bit every one of them fixes are disjoint.
   So a set is split by its values on the bits all its members fix
   (beyond those an enclosing split already used), each part is split
   again, and members are compared pairwise only once a part has no new
   common bit. Address-prefix cubes share their leading bits, so parts
   stay small and most of the n^2 pairs are never tested. *)
let iter_overlapping cubes f =
  let n = Array.length cubes in
  if n > 1 then begin
    let len = cubes.(0).len in
    Array.iter
      (fun c -> if c.len <> len then invalid_arg "Cube.iter_overlapping: length mismatch")
      cubes;
    let nch = nchunks len in
    let rec split part used =
      let common =
        Array.init nch (fun k ->
            Array.fold_left (fun m i -> m land cubes.(i).mask.(k)) (lnot used.(k)) part)
      in
      if Array.length part < 3 || Array.for_all (fun m -> m = 0) common then
        Array.iteri
          (fun x i ->
            for y = x + 1 to Array.length part - 1 do
              let j = part.(y) in
              if not (conflict_from cubes.(i) cubes.(j) 0) then f i j
            done)
          part
      else begin
        let key i = Array.init nch (fun k -> cubes.(i).value.(k) land common.(k)) in
        let keyed = Array.map (fun i -> (key i, i)) part in
        Array.stable_sort (fun (a, _) (b, _) -> Stdlib.compare a b) keyed;
        let used = Array.init nch (fun k -> used.(k) lor common.(k)) in
        let start = ref 0 in
        for x = 1 to Array.length keyed do
          if x = Array.length keyed || fst keyed.(x) <> fst keyed.(!start) then begin
            split (Array.init (x - !start) (fun y -> snd keyed.(!start + y))) used;
            start := x
          end
        done
      end
    in
    split (Array.init n Fun.id) (Array.make nch 0)
  end

let hull a b =
  if a == b then a
  else begin
    check_lengths a b "Cube.hull";
    (* Smallest enclosing cube: a position stays fixed iff both cubes
       fix it to the same value. Uninterned like the other algebra
       results — hulls are throwaway prefilter material. *)
    let n = Array.length a.mask in
    let mask = Array.make n 0 and value = Array.make n 0 in
    for i = 0 to n - 1 do
      let m = a.mask.(i) land b.mask.(i) land lnot (a.value.(i) lxor b.value.(i)) in
      mask.(i) <- m;
      value.(i) <- a.value.(i) land m
    done;
    { len = a.len; mask; value }
  end

let subset a b =
  a == b
  || begin
       check_lengths a b "Cube.subset";
       (* a ⊆ b iff every fixed bit of b is fixed in a with the same value. *)
       let n = Array.length a.mask in
       let rec loop i =
         if i >= n then true
         else if b.mask.(i) land lnot a.mask.(i) <> 0 then false
         else if (a.value.(i) lxor b.value.(i)) land b.mask.(i) <> 0 then false
         else loop (i + 1)
       in
       loop 0
     end

(* A family of cubes packed for first-match scans: entry [i]'s chunk [k]
   is the pair (mask, value) at [words.(2 * (i * nch + k))], so a
   one-chunk family (headers up to 62 bits) is two adjacent words per
   entry and the scan follows no pointer. *)
type packed = { p_len : int; nch : int; n : int; words : int array }

let pack cubes =
  let n = Array.length cubes in
  if n = 0 then { p_len = 0; nch = 0; n; words = [||] }
  else begin
    let len = cubes.(0).len in
    let nch = nchunks len in
    let words = Array.make (2 * n * nch) 0 in
    Array.iteri
      (fun i c ->
        if c.len <> len then invalid_arg "Cube.pack: length mismatch";
        for k = 0 to nch - 1 do
          words.(2 * ((i * nch) + k)) <- c.mask.(k);
          words.((2 * ((i * nch) + k)) + 1) <- c.value.(k)
        done)
      cubes;
    { p_len = len; nch; n; words }
  end

(* [subset h c] chunk by chunk, read from the packed words: every bit
   [c] fixes is fixed in [h] with the same value. The scans are
   toplevel so a query allocates no closure. *)
let rec scan1 words n nh hv i =
  if i >= n then -1
  else
    let m = words.(2 * i) in
    if m land (nh lor (hv lxor words.((2 * i) + 1))) = 0 then i
    else scan1 words n nh hv (i + 1)

let rec chunks_superset words base h k =
  k < 0
  || (let m = words.(base + (2 * k)) in
      m land (lnot h.mask.(k) lor (h.value.(k) lxor words.(base + (2 * k) + 1))) = 0
      && chunks_superset words base h (k - 1))

let rec scan_n p h i =
  if i >= p.n then -1
  else if chunks_superset p.words (2 * i * p.nch) h (p.nch - 1) then i
  else scan_n p h (i + 1)

let first_superset p h =
  if p.n = 0 then -1
  else begin
    if h.len <> p.p_len then invalid_arg "Cube.first_superset: length mismatch";
    if p.nch = 1 then scan1 p.words p.n (lnot h.mask.(0)) h.value.(0) 0
    else scan_n p h 0
  end

(* a - b: standard HSA cube difference. For each bit where b is fixed
   and a is a wildcard, emit the running prefix with that bit flipped to
   the complement of b's value; bits processed left to right (ascending
   chunk, ascending bit), constraining earlier bits to b's value to keep
   the result disjoint. Bits fixed in both cubes agree (a ∩ b ≠ ∅ here)
   and emit nothing. Works chunk-parallel on the packed arrays. *)
let diff a b =
  if a == b then []
  else begin
    check_lengths a b "Cube.diff";
    match inter a b with
    | None -> [ a ]
    | Some _ ->
        if subset a b then []
        else begin
          let n = Array.length a.mask in
          let pmask = Array.copy a.mask and pvalue = Array.copy a.value in
          let acc = ref [] in
          for i = 0 to n - 1 do
            let bits = ref (b.mask.(i) land lnot a.mask.(i)) in
            while !bits <> 0 do
              let bit = !bits land - !bits in
              bits := !bits land (!bits - 1);
              (* Piece: prefix with this bit fixed to b's complement. *)
              let m = Array.copy pmask and v = Array.copy pvalue in
              m.(i) <- m.(i) lor bit;
              v.(i) <- v.(i) land lnot bit lor (lnot b.value.(i) land bit);
              acc := { len = a.len; mask = m; value = v } :: !acc;
              (* Constrain the prefix to b's value at this bit. *)
              pmask.(i) <- pmask.(i) lor bit;
              pvalue.(i) <- pvalue.(i) land lnot bit lor (b.value.(i) land bit)
            done
          done;
          List.rev !acc
        end
  end

let is_identity_set set = Array.for_all (fun m -> m = 0) set.mask

let apply_set_field ~set c =
  check_lengths set c "Cube.apply_set_field";
  if is_identity_set set then c (* no rewrite: T(h, x^len) = h *)
  else
  let n = Array.length c.mask in
  let mask = Array.init n (fun i -> c.mask.(i) lor set.mask.(i)) in
  let value =
    Array.init n (fun i ->
        (c.value.(i) land lnot set.mask.(i)) lor set.value.(i))
  in
  { len = c.len; mask; value }

let inverse_set_field ~set c =
  check_lengths set c "Cube.inverse_set_field";
  if is_identity_set set then Some c
  else
  let n = Array.length c.mask in
  (* Conflict: a bit fixed by [set] that the target fixes differently. *)
  let rec conflict i =
    if i >= n then false
    else
      let both = set.mask.(i) land c.mask.(i) in
      if (set.value.(i) lxor c.value.(i)) land both <> 0 then true
      else conflict (i + 1)
  in
  if conflict 0 then None
  else
    let mask = Array.init n (fun i -> c.mask.(i) land lnot set.mask.(i)) in
    let value = Array.init n (fun i -> c.value.(i) land lnot set.mask.(i)) in
    Some { len = c.len; mask; value }

let sample rng c =
  let n = Array.length c.mask in
  let mask = Array.make n 0 and value = Array.make n 0 in
  for i = 0 to n - 1 do
    let valid = if i = n - 1 then tail_mask c.len else -1 lsr 1 in
    let rand = Int64.to_int (Int64.shift_right_logical (Sdn_util.Prng.bits64 rng) 2) in
    mask.(i) <- valid;
    value.(i) <- (c.value.(i) lor (rand land lnot c.mask.(i))) land valid
  done;
  { len = c.len; mask; value }

let first_member c =
  let n = Array.length c.mask in
  let mask = Array.init n (fun i -> if i = n - 1 then tail_mask c.len else -1 lsr 1) in
  { len = c.len; mask; value = Array.copy c.value }

let nth_member c k =
  if k < 0 then invalid_arg "Cube.nth_member: negative index";
  (* Wildcard positions, last first, receive k's bits LSB first. *)
  let result = ref (first_member c) in
  let k = ref k in
  for pos = c.len - 1 downto 0 do
    if get c pos = Any && !k <> 0 then begin
      if !k land 1 = 1 then result := set !result pos One;
      k := !k lsr 1
    end
  done;
  !result

let member ~header c =
  if not (is_concrete header) then invalid_arg "Cube.member: header not concrete";
  subset header c

let random rng ?(wildcard_prob = 0.3) len =
  if len <= 0 then invalid_arg "Cube.random: non-positive length";
  of_bits
    (Array.init len (fun _ ->
         if Sdn_util.Prng.float rng 1.0 < wildcard_prob then Any
         else if Sdn_util.Prng.bool rng then One
         else Zero))
