module Prng = Sdn_util.Prng

type flap_spec = { flap_window_us : int; down_ratio : float }

type churn_spec = { churn_window_us : int; out_ratio : float }

type spec = {
  seed : int;
  loss_rate : float;
  jitter_max_us : int;
  flaps : flap_spec option;
  churn : churn_spec option;
}

let none = { seed = 0; loss_rate = 0.; jitter_max_us = 0; flaps = None; churn = None }

let check_ratio what r =
  if r < 0. || r > 1. then invalid_arg (Printf.sprintf "Impairment: %s outside [0,1]" what)

let spec ?(seed = 0) ?(loss_rate = 0.) ?(jitter_max_us = 0) ?flaps ?churn () =
  check_ratio "loss_rate" loss_rate;
  if jitter_max_us < 0 then invalid_arg "Impairment: negative jitter_max_us";
  (match flaps with
  | Some { flap_window_us; down_ratio } ->
      if flap_window_us <= 0 then invalid_arg "Impairment: non-positive flap window";
      check_ratio "down_ratio" down_ratio
  | None -> ());
  (match churn with
  | Some { churn_window_us; out_ratio } ->
      if churn_window_us <= 0 then invalid_arg "Impairment: non-positive churn window";
      check_ratio "out_ratio" out_ratio
  | None -> ());
  { seed; loss_rate; jitter_max_us; flaps; churn }

type stats = {
  link_losses : int;
  flap_drops : int;
  churn_misses : int;
  jitter_total_us : int;
}

type t = {
  s : spec;
  counters : (int, int) Hashtbl.t; (* stream key -> draws so far *)
  link_losses : int Atomic.t;
  flap_drops : int Atomic.t;
  churn_misses : int Atomic.t;
  jitter_total_us : int Atomic.t;
}

let create s =
  {
    s;
    counters = Hashtbl.create 64;
    link_losses = Atomic.make 0;
    flap_drops = Atomic.make 0;
    churn_misses = Atomic.make 0;
    jitter_total_us = Atomic.make 0;
  }

let spec_of t = t.s

(* Stream separation constants: keep loss, flap, churn and jitter draws
   statistically independent even for coinciding entity ids. *)
let loss_stream = 0x1EAF
let flap_stream = 0x2F1A
let churn_stream = 0x3C44
let jitter_stream = 0x4D17

(* One splitmix64 draw keyed on (seed, stream, entity, salt) — the same
   keyed-hash idiom as Fault.Random_bursts, so decisions are stable,
   reproducible, and independent across entities. *)
let draw t ~stream ~entity ~salt =
  let key =
    (((t.s.seed * 1_000_003) + stream) * 8_191) + (entity * 2_654_435_761) + salt
  in
  Prng.float (Prng.create key) 1.0

let link_key ~sw_a ~sw_b = (min sw_a sw_b * 65_599) + max sw_a sw_b

(* Per-entity draw counter: successive draws for the same entity see a
   fresh salt, so retransmissions are independent loss experiments. *)
let next_count t ~stream ~entity =
  let key = (stream * 486_187_739) + entity in
  let c = Option.value ~default:0 (Hashtbl.find_opt t.counters key) in
  Hashtbl.replace t.counters key (c + 1);
  c

let lose_on_link t ~sw_a ~sw_b ~now_us:_ =
  t.s.loss_rate > 0.
  &&
  let entity = link_key ~sw_a ~sw_b in
  let salt = next_count t ~stream:loss_stream ~entity in
  let lost = draw t ~stream:loss_stream ~entity ~salt < t.s.loss_rate in
  if lost then ignore (Atomic.fetch_and_add t.link_losses 1);
  lost

let link_down t ~sw_a ~sw_b ~now_us =
  match t.s.flaps with
  | None -> false
  | Some { flap_window_us; down_ratio } ->
      let window = now_us / flap_window_us in
      let entity = link_key ~sw_a ~sw_b in
      let down = draw t ~stream:flap_stream ~entity ~salt:window < down_ratio in
      if down then ignore (Atomic.fetch_and_add t.flap_drops 1);
      down

let rule_out t ~entry ~now_us =
  match t.s.churn with
  | None -> false
  | Some { churn_window_us; out_ratio } ->
      let window = now_us / churn_window_us in
      let out = draw t ~stream:churn_stream ~entity:entry ~salt:window < out_ratio in
      if out then ignore (Atomic.fetch_and_add t.churn_misses 1);
      out

let jitter_us t ~switch ~now_us:_ =
  if t.s.jitter_max_us = 0 then 0
  else begin
    let salt = next_count t ~stream:jitter_stream ~entity:switch in
    let j =
      int_of_float
        (draw t ~stream:jitter_stream ~entity:switch ~salt
        *. float_of_int (t.s.jitter_max_us + 1))
    in
    let j = min j t.s.jitter_max_us in
    ignore (Atomic.fetch_and_add t.jitter_total_us j);
    j
  end

let stats t =
  {
    link_losses = Atomic.get t.link_losses;
    flap_drops = Atomic.get t.flap_drops;
    churn_misses = Atomic.get t.churn_misses;
    jitter_total_us = Atomic.get t.jitter_total_us;
  }

let reset_stats t =
  Atomic.set t.link_losses 0;
  Atomic.set t.flap_drops 0;
  Atomic.set t.churn_misses 0;
  Atomic.set t.jitter_total_us 0
