module Header = Hspace.Header
module FE = Openflow.Flow_entry
module Network = Openflow.Network
module Topology = Openflow.Topology

type lost_reason =
  | No_match of int
  | Dropped_by_fault of int
  | Dead_port of int
  | Ttl_exceeded
  | Link_loss of int
  | Link_down of int
  | Churn_miss of int

type outcome =
  | Returned of { probe : int; at_switch : int; header : Header.t }
  | Delivered of { at_switch : int; header : Header.t }
  | Lost of lost_reason

type hop = { switch : int; entry : int; header_out : Header.t }

type result = { outcome : outcome; trace : hop list; jitter_us : int }

type trap_key = { t_switch : int; t_rule : int; t_header : Header.t }

(* A switch visit probes the trap table once per matched entry, so a
   key holds the header cube itself and hashes its bits. *)
module Traps = Hashtbl.Make (struct
  type t = trap_key

  let equal a b =
    a.t_rule = b.t_rule && a.t_switch = b.t_switch && Header.equal a.t_header b.t_header

  let hash k =
    (((Hspace.Cube.hash (k.t_header :> Hspace.Cube.t) * 31) + k.t_rule) * 31) + k.t_switch
end)

type t = {
  net : Network.t;
  faults : (int, Fault.t) Hashtbl.t;
  traps : int Traps.t; (* -> probe id *)
  trap_keys : (int, trap_key list) Hashtbl.t;
      (* probe id -> keys it installed since its last removal; a key
         another probe has since overwritten may linger here and is
         skipped on removal *)
  clk : Clock.t;
  counters : (int, int) Hashtbl.t; (* entry -> packets processed *)
  counters_m : Mutex.t; (* the wire daemon steps on its own domain *)
  counters_own : Sdn_parallel.Ownership.region;
      (* SDNPROBE_POOL_CHECK witness that every counters access holds
         [counters_m] (the touch_sync sites below) *)
  mutable impairment : Impairment.t option;
}

let ttl = 64

let create net =
  {
    net;
    faults = Hashtbl.create 64;
    traps = Traps.create 64;
    trap_keys = Hashtbl.create 64;
    clk = Clock.create ();
    counters = Hashtbl.create 256;
    counters_m = Mutex.create ();
    counters_own = Sdn_parallel.Ownership.register ~name:"emulator.counters";
    impairment = None;
  }

let network t = t.net

let clock t = t.clk

let set_impairment t imp = t.impairment <- Some imp

let clear_impairment t = t.impairment <- None

let impairment t = t.impairment

let set_fault t ~entry fault =
  (* Validate the entry exists so misconfigured experiments fail fast. *)
  ignore (Network.entry t.net entry);
  Hashtbl.replace t.faults entry fault

let clear_fault t ~entry = Hashtbl.remove t.faults entry

let clear_all_faults t = Hashtbl.reset t.faults

let fault_of t ~entry = Hashtbl.find_opt t.faults entry

let faulty_entries t =
  Hashtbl.fold (fun e _ acc -> e :: acc) t.faults [] |> List.sort compare

let faulty_switches t =
  faulty_entries t
  |> List.map (fun e -> (Network.entry t.net e).FE.switch)
  |> List.sort_uniq compare

let trap_key ~switch ~rule ~header = { t_switch = switch; t_rule = rule; t_header = header }

let install_trap t ~probe ~switch ~rule ~header =
  let key = trap_key ~switch ~rule ~header in
  if Traps.find_opt t.traps key <> Some probe then begin
    Traps.replace t.traps key probe;
    let keys = Option.value ~default:[] (Hashtbl.find_opt t.trap_keys probe) in
    Hashtbl.replace t.trap_keys probe (key :: keys)
  end

let remove_probe_traps t ~probe =
  match Hashtbl.find_opt t.trap_keys probe with
  | None -> ()
  | Some keys ->
      Hashtbl.remove t.trap_keys probe;
      List.iter
        (fun key ->
          if Traps.find_opt t.traps key = Some probe then Traps.remove t.traps key)
        keys

let clear_traps t =
  Traps.reset t.traps;
  Hashtbl.reset t.trap_keys

let flow_count t ~entry =
  Mutex.lock t.counters_m;
  Sdn_parallel.Ownership.touch_sync t.counters_own;
  let c = Option.value ~default:0 (Hashtbl.find_opt t.counters entry) in
  Mutex.unlock t.counters_m;
  c

let flow_counts t =
  Mutex.lock t.counters_m;
  Sdn_parallel.Ownership.touch_sync t.counters_own;
  let cs =
    List.sort compare (Hashtbl.fold (fun e c acc -> (e, c) :: acc) t.counters [])
  in
  Mutex.unlock t.counters_m;
  cs

let reset_flow_counts t =
  Mutex.lock t.counters_m;
  Sdn_parallel.Ownership.touch_sync t.counters_own;
  Hashtbl.reset t.counters;
  Mutex.unlock t.counters_m

(* The wire daemon bumps counters from its own domain while the caller
   may read them, hence the mutex. *)
let bump_counter t entry =
  Mutex.lock t.counters_m;
  Sdn_parallel.Ownership.touch_sync t.counters_own;
  Hashtbl.replace t.counters entry
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.counters entry));
  Mutex.unlock t.counters_m

(* Process a packet at one switch, chasing goto-table chains, and decide
   where it goes next. *)
type step =
  | Forward of int * Header.t (* next switch, header *)
  | Teleport of int * Header.t (* detour tunnel to a switch *)
  | Final of outcome

(* One switch visit: jitter draw, then the table walk (goto chains stay
   inside the visit, at the visit's budget). [record] observes each
   processed entry; the returned jitter is this visit's draw alone. Both
   [inject] (the whole path in-process) and [step] (the wire backend's
   per-datagram walk, lib/wire) are wrappers, so the two backends cannot
   drift apart. *)
let visit t ~now_us ~record sw0 header0 budget0 =
  let rec at_switch sw table header =
    match Openflow.Flow_table.lookup (Network.table t.net ~switch:sw ~table) header with
    | None -> Final (Lost (No_match sw))
    | Some e -> process sw e header
  and process sw (e : FE.t) header =
    (* A churned-out entry is mid insert/delete: the packet hits the
       table while the rule is absent and is blackholed by the
       reconfiguration window (transient, impairment-side — distinct
       from the Fault ground truth). *)
    match t.impairment with
    | Some imp when Impairment.rule_out imp ~entry:e.id ~now_us ->
        Final (Lost (Churn_miss sw))
    | _ -> process_entry sw e header
  and process_entry sw (e : FE.t) header =
    bump_counter t e.id;
    let fault =
      match Hashtbl.find_opt t.faults e.id with
      | Some f when Fault.is_active f ~now_us ~header -> Some f
      | _ -> None
    in
    (* A fault that replaces the forwarding action (drop / misdirect /
       detour) also bypasses the §VI goto-table redirect, so its probe
       never reaches the test entry — observable as a loss. A rewrite
       fault leaves the action (and hence the redirect) intact but the
       exact-match test entry misses the mangled header. *)
    let header', action =
      match fault with
      | None -> (FE.apply e header, `Action (e.action, true))
      | Some { Fault.effect = Fault.Drop_packet; _ } -> (header, `Fault_drop)
      | Some { Fault.effect = Fault.Misdirect port; _ } ->
          (FE.apply e header, `Action (FE.Output port, false))
      | Some { Fault.effect = Fault.Rewrite set; _ } ->
          (Header.apply_set_field ~set header, `Action (e.action, true))
      | Some { Fault.effect = Fault.Detour peer; _ } -> (FE.apply e header, `Detour peer)
    in
    (match action with `Fault_drop -> () | _ -> record sw e.id header');
    match action with
    | `Fault_drop -> Final (Lost (Dropped_by_fault sw))
    | `Detour peer -> Teleport (peer, header')
    | `Action (act, redirect_intact) -> (
        let trap =
          if redirect_intact then
            Traps.find_opt t.traps (trap_key ~switch:sw ~rule:e.id ~header:header')
          else None
        in
        match trap with
        | Some probe -> Final (Returned { probe; at_switch = sw; header = header' })
        | None -> (
            match act with
            | FE.Drop -> Final (Delivered { at_switch = sw; header = header' })
            | FE.Goto_table tb -> at_switch sw tb header'
            | FE.Output port -> (
                match Topology.peer (Network.topology t.net) ~sw ~port with
                | None -> Final (Lost (Dead_port sw))
                | Some (next_sw, _) -> (
                    match t.impairment with
                    | Some imp when Impairment.link_down imp ~sw_a:sw ~sw_b:next_sw ~now_us
                      ->
                        Final (Lost (Link_down sw))
                    | Some imp when Impairment.lose_on_link imp ~sw_a:sw ~sw_b:next_sw ~now_us
                      ->
                        Final (Lost (Link_loss sw))
                    | _ -> Forward (next_sw, header')))))
  in
  if budget0 <= 0 then (Final (Lost Ttl_exceeded), 0)
  else
    let jitter =
      match t.impairment with
      | Some imp -> Impairment.jitter_us imp ~switch:sw0 ~now_us
      | None -> 0
    in
    (at_switch sw0 0 header0, jitter)

let inject ?now_us t ~at header =
  let now_us = match now_us with Some n -> n | None -> Clock.now_us t.clk in
  let trace = ref [] in
  let jitter = ref 0 in
  let record switch entry header_out = trace := { switch; entry; header_out } :: !trace in
  let rec drive sw header budget =
    let step, j = visit t ~now_us ~record sw header budget in
    jitter := !jitter + j;
    match step with
    | Forward (next, h) -> drive next h (budget - 1)
    | Teleport (peer, h) -> drive peer h (budget - 1)
    | Final o -> o
  in
  let outcome = drive at header ttl in
  { outcome; trace = List.rev !trace; jitter_us = !jitter }

type step_result =
  | Step_forward of { next : int; header : Header.t; jitter_us : int }
  | Step_final of { outcome : outcome; jitter_us : int }

let step ?now_us t ~at ~ttl header =
  let now_us = match now_us with Some n -> n | None -> Clock.now_us t.clk in
  let step, jitter_us = visit t ~now_us ~record:(fun _ _ _ -> ()) at header ttl in
  match step with
  | Forward (next, header) | Teleport (next, header) ->
      Step_forward { next; header; jitter_us }
  | Final outcome -> Step_final { outcome; jitter_us }
