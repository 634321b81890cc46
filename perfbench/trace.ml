(* Spans recorded from the benchmark's own code, around calls into each
   layer's public functions. Each span carries its wall time (Mono), the
   words allocated inside it (Gc.quick_stat deltas) and the deltas of
   every Metrics.Counter that moved inside it. Spans are kept in memory
   and written as Chrome trace-event JSON when the rep ends.

   Recording is off unless [start] was called, so the untraced reps pay
   one branch per wrapped call. Only the main domain records: pooled
   work happens inside the library calls being wrapped. *)

module J = Sdn_util.Json
module Mono = Sdn_util.Mono

type span = {
  id : int;
  parent : int; (* -1 at the root *)
  name : string;
  start_s : float;
  mutable dur_s : float;
  mutable alloc_w : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable counters : (string * int) list; (* non-zero deltas *)
}

type open_span = { span : span; gc0 : Gc.stat; c0 : (string * int) list }

let enabled = ref false

let origin = ref 0.

let finished : span list ref = ref []

let stack : open_span list ref = ref []

let next_id = ref 0

let start () =
  enabled := true;
  origin := Mono.now_s ();
  finished := [];
  stack := [];
  next_id := 0

let allocated_words (s : Gc.stat) =
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let counter_deltas c0 c1 =
  List.filter_map
    (fun (name, v1) ->
      let v0 = Option.value ~default:0 (List.assoc_opt name c0) in
      if v1 <> v0 then Some (name, v1 - v0) else None)
    c1

type handle = open_span option

let enter name : handle =
  if not !enabled then None
  else begin
    let parent = match !stack with o :: _ -> o.span.id | [] -> -1 in
    let span =
      {
        id = !next_id;
        parent;
        name;
        start_s = Mono.now_s ();
        dur_s = 0.;
        alloc_w = 0.;
        minor_gcs = 0;
        major_gcs = 0;
        counters = [];
      }
    in
    incr next_id;
    let o = { span; gc0 = Gc.quick_stat (); c0 = Metrics.Counter.snapshot () } in
    stack := o :: !stack;
    Some o
  end

(* Spans close in stack order; closing one also closes any child left
   open by an exception. *)
let leave (h : handle) =
  match h with
  | None -> ()
  | Some o ->
      let now = Mono.now_s () in
      let gc = Gc.quick_stat () in
      let rec pop = function
        | [] -> []
        | top :: rest ->
            top.span.dur_s <- now -. top.span.start_s;
            top.span.alloc_w <- allocated_words gc -. allocated_words top.gc0;
            top.span.minor_gcs <- gc.Gc.minor_collections - top.gc0.Gc.minor_collections;
            top.span.major_gcs <- gc.Gc.major_collections - top.gc0.Gc.major_collections;
            top.span.counters <- counter_deltas top.c0 (Metrics.Counter.snapshot ());
            finished := top.span :: !finished;
            if top.span.id = o.span.id then rest else pop rest
      in
      if List.exists (fun x -> x.span.id = o.span.id) !stack then stack := pop !stack

let span name f =
  let h = enter name in
  Fun.protect ~finally:(fun () -> leave h) f

let spans () = List.sort (fun a b -> Int.compare a.id b.id) !finished

let named name = List.filter (fun s -> s.name = name) (spans ())

let total_s name = List.fold_left (fun acc s -> acc +. s.dur_s) 0. (named name)

let median_s name = Stats.median (List.map (fun s -> s.dur_s) (named name))

let median_alloc_mw name = Stats.median (List.map (fun s -> s.alloc_w) (named name)) /. 1e6

let counter_total name counter =
  List.fold_left
    (fun acc s -> acc + Option.value ~default:0 (List.assoc_opt counter s.counters))
    0 (named name)

let to_chrome_json () =
  let us s = J.Float ((s -. !origin) *. 1e6) in
  let event s =
    J.Obj
      [
        ("name", J.Str s.name);
        ( "cat",
          J.Str
            (match String.index_opt s.name '.' with
            | Some i -> String.sub s.name 0 i
            | None -> s.name) );
        ("ph", J.Str "X");
        ("ts", us s.start_s);
        ("dur", J.Float (s.dur_s *. 1e6));
        ("pid", J.Int 1);
        ("tid", J.Int 1);
        ( "args",
          J.Obj
            (("alloc_words", J.Float s.alloc_w)
            :: List.map (fun (k, v) -> (k, J.Int v)) s.counters) );
      ]
  in
  J.Obj
    [
      ("traceEvents", J.List (List.map event (spans ())));
      ("displayTimeUnit", J.Str "ms");
    ]

let write_chrome path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (J.to_string (to_chrome_json ()));
      output_char oc '\n')
