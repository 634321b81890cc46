(* Tests for the data-plane emulator: honest forwarding, traps, and the
   full fault taxonomy of §III-B. *)

module Emu = Dataplane.Emulator
module Fault = Dataplane.Fault
module Clock = Dataplane.Clock
module Cube = Hspace.Cube
module Header = Hspace.Header
module FE = Openflow.Flow_entry

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let h = Header.of_string

(* ------------------------------------------------------------------ *)
(* Clock *)

let test_clock () =
  let c = Clock.create () in
  check_int "starts at 0" 0 (Clock.now_us c);
  Clock.advance_us c 1500;
  check_int "advance" 1500 (Clock.now_us c);
  Alcotest.(check (float 1e-9)) "seconds" 0.0015 (Clock.now_seconds c);
  Clock.reset c;
  check_int "reset" 0 (Clock.now_us c);
  Alcotest.check_raises "negative" (Invalid_argument "Clock.advance_us: negative")
    (fun () -> Clock.advance_us c (-1))

(* ------------------------------------------------------------------ *)
(* Fault activation *)

let test_fault_always () =
  let f = Fault.make Fault.Drop_packet in
  check_bool "active" true (Fault.is_active f ~now_us:0 ~header:(h "00000000"));
  check_bool "active later" true (Fault.is_active f ~now_us:999999 ~header:(h "11111111"))

let test_fault_intermittent () =
  let f =
    Fault.make
      ~activation:(Fault.Intermittent { period_us = 100; duty_us = 30; phase_us = 0 })
      Fault.Drop_packet
  in
  let hdr = h "00000000" in
  check_bool "t=0 active" true (Fault.is_active f ~now_us:0 ~header:hdr);
  check_bool "t=29 active" true (Fault.is_active f ~now_us:29 ~header:hdr);
  check_bool "t=30 inactive" false (Fault.is_active f ~now_us:30 ~header:hdr);
  check_bool "t=99 inactive" false (Fault.is_active f ~now_us:99 ~header:hdr);
  check_bool "t=100 active" true (Fault.is_active f ~now_us:100 ~header:hdr);
  check_bool "t=129 active" true (Fault.is_active f ~now_us:129 ~header:hdr)

let test_fault_random_bursts () =
  let f =
    Fault.make
      ~activation:(Fault.Random_bursts { window_us = 1000; active_ratio = 0.5; seed = 7 })
      Fault.Drop_packet
  in
  let hdr = h "00000000" in
  (* Deterministic given the seed; constant within a window. *)
  let a0 = Fault.is_active f ~now_us:100 ~header:hdr in
  check_bool "stable in window" true (a0 = Fault.is_active f ~now_us:900 ~header:hdr);
  check_bool "reproducible" true (a0 = Fault.is_active f ~now_us:100 ~header:hdr);
  (* Roughly half the windows are active. *)
  let active =
    List.length
      (List.filter
         (fun w -> Fault.is_active f ~now_us:(w * 1000) ~header:hdr)
         (List.init 1000 Fun.id))
  in
  check_bool "ratio respected" true (active > 400 && active < 600);
  (* A different seed gives a different pattern. *)
  let g =
    Fault.make
      ~activation:(Fault.Random_bursts { window_us = 1000; active_ratio = 0.5; seed = 8 })
      Fault.Drop_packet
  in
  let differs =
    List.exists
      (fun w ->
        Fault.is_active f ~now_us:(w * 1000) ~header:hdr
        <> Fault.is_active g ~now_us:(w * 1000) ~header:hdr)
      (List.init 100 Fun.id)
  in
  check_bool "seed matters" true differs

let test_fault_targeting () =
  let f =
    Fault.make ~activation:(Fault.Targeting (Cube.of_string "1010xxxx")) Fault.Drop_packet
  in
  check_bool "in target" true (Fault.is_active f ~now_us:0 ~header:(h "10101111"));
  check_bool "out of target" false (Fault.is_active f ~now_us:0 ~header:(h "10111111"))

(* ------------------------------------------------------------------ *)
(* Honest forwarding *)

let test_forwarding_chain () =
  let { Fixtures.cnet; r_a; r_b; r_c } = Fixtures.chain3 () in
  let emu = Emu.create cnet in
  let r = Emu.inject emu ~at:0 (h "10000001") in
  (match r.Emu.outcome with
  | Emu.Delivered { at_switch; header } ->
      check_int "delivered at 2" 2 at_switch;
      check_bool "header unchanged" true (Header.equal header (h "10000001"))
  | _ -> Alcotest.fail "expected delivery");
  check_int "three hops" 3 (List.length r.Emu.trace);
  check_bool "trace rules" true
    (List.map (fun hop -> hop.Emu.entry) r.Emu.trace = [ r_a.FE.id; r_b.FE.id; r_c.FE.id ])

let test_forwarding_no_match () =
  let { Fixtures.cnet; _ } = Fixtures.chain3 () in
  let emu = Emu.create cnet in
  match (Emu.inject emu ~at:0 (h "00000001")).Emu.outcome with
  | Emu.Lost (Emu.No_match 0) -> ()
  | _ -> Alcotest.fail "expected no-match loss at switch 0"

let test_forwarding_figure3 () =
  let fx = Fixtures.figure3 () in
  let emu = Emu.create fx.Fixtures.net in
  (* 00101111 takes a1 -> b1 -> c2 -> e1. *)
  let r = Emu.inject emu ~at:0 (h "00101111") in
  check_bool "rules traversed" true
    (List.map (fun hop -> hop.Emu.entry) r.Emu.trace
    = [ fx.Fixtures.a1.FE.id; fx.Fixtures.b1.FE.id; fx.Fixtures.c2.FE.id; fx.Fixtures.e1.FE.id ]);
  (* 000***** via b3 picks up d1's set field. *)
  let r2 = Emu.inject emu ~at:1 (h "00010101") in
  match r2.Emu.outcome with
  | Emu.Delivered { header; _ } ->
      Alcotest.(check string) "set field applied" "01110101" (Header.to_string header)
  | _ -> Alcotest.fail "expected delivery"

let test_ttl_loop () =
  (* Build a looping policy directly (Network does not forbid it; the
     rule-graph stage does, but the emulator must still terminate). *)
  let topo = Openflow.Topology.create ~n_switches:2 in
  Openflow.Topology.add_link topo ~sw_a:0 ~port_a:1 ~sw_b:1 ~port_b:1;
  let net = Openflow.Network.create ~header_len:4 topo in
  let m = Cube.of_string "xxxx" in
  let _ = Openflow.Network.add_entry net ~switch:0 ~priority:1 ~match_:m (FE.Output 1) in
  let _ = Openflow.Network.add_entry net ~switch:1 ~priority:1 ~match_:m (FE.Output 1) in
  let emu = Emu.create net in
  match (Emu.inject emu ~at:0 (h "0000")).Emu.outcome with
  | Emu.Lost Emu.Ttl_exceeded -> ()
  | _ -> Alcotest.fail "expected TTL loss"

(* A goto chain inside one visit: sw0's table-0 entry sets the first
   bit and goes to table 1, whose entry forwards to sw1. *)
let goto_net () =
  let topo = Openflow.Topology.create ~n_switches:2 in
  Openflow.Topology.add_link topo ~sw_a:0 ~port_a:1 ~sw_b:1 ~port_b:1;
  let net = Openflow.Network.create ~header_len:4 ~tables_per_switch:2 topo in
  let add ~switch ?table ?set_field match_ action =
    Openflow.Network.add_entry net ~switch ?table ~priority:1
      ~match_:(Cube.of_string match_)
      ?set_field:(Option.map Cube.of_string set_field)
      action
  in
  let e0 = add ~switch:0 ~set_field:"1xxx" "0xxx" (FE.Goto_table 1) in
  let e1 = add ~switch:0 ~table:1 "11xx" (FE.Output 1) in
  let e2 = add ~switch:1 "1xxx" FE.Drop in
  (net, e0, e1, e2)

(* [inject]'s outcome rebuilt from per-visit [step]s, as the wire
   daemon drives them. *)
let rec step_outcome emu ~at ~ttl header =
  match Emu.step emu ~at ~ttl header with
  | Emu.Step_forward { next; header; _ } -> step_outcome emu ~at:next ~ttl:(ttl - 1) header
  | Emu.Step_final { outcome; _ } -> outcome

let outcome_to_string = function
  | Emu.Returned { probe; at_switch; header } ->
      Printf.sprintf "returned %d at %d %s" probe at_switch (Header.to_string header)
  | Emu.Delivered { at_switch; header } ->
      Printf.sprintf "delivered at %d %s" at_switch (Header.to_string header)
  | Emu.Lost (Emu.No_match sw) -> Printf.sprintf "no match at %d" sw
  | Emu.Lost _ -> "lost"

let test_goto_chain () =
  let net, e0, e1, e2 = goto_net () in
  let emu = Emu.create net in
  let same_as_step header =
    Alcotest.(check string)
      ("step = inject on " ^ header)
      (outcome_to_string (Emu.inject emu ~at:0 (h header)).Emu.outcome)
      (outcome_to_string (step_outcome emu ~at:0 ~ttl:Emu.ttl (h header)))
  in
  (* 0110 becomes 1110 in table 0, so table 1's 11xx matches it. *)
  let r = Emu.inject emu ~at:0 (h "0110") in
  (match r.Emu.outcome with
  | Emu.Delivered { at_switch; header } ->
      check_int "delivered at 1" 1 at_switch;
      check_bool "rewritten header" true (Header.equal header (h "1110"))
  | _ -> Alcotest.fail "expected delivery through the goto chain");
  check_bool "trace rules" true
    (List.map (fun hop -> hop.Emu.entry) r.Emu.trace = [ e0.FE.id; e1.FE.id; e2.FE.id ]);
  check_bool "table-1 hop sees the rewrite" true
    (Header.equal (List.nth r.Emu.trace 1).Emu.header_out (h "1110"));
  same_as_step "0110";
  (* 0010 becomes 1010, which table 1 does not match. *)
  (match (Emu.inject emu ~at:0 (h "0010")).Emu.outcome with
  | Emu.Lost (Emu.No_match 0) -> ()
  | _ -> Alcotest.fail "expected a table-1 miss at switch 0");
  same_as_step "0010";
  (* A trap on the table-1 entry returns the probe from inside the chain. *)
  Emu.install_trap emu ~probe:7 ~switch:0 ~rule:e1.FE.id ~header:(h "1110");
  (match (Emu.inject emu ~at:0 (h "0110")).Emu.outcome with
  | Emu.Returned { probe; at_switch; header } ->
      check_int "probe id" 7 probe;
      check_int "at switch 0" 0 at_switch;
      check_bool "trapped header" true (Header.equal header (h "1110"))
  | _ -> Alcotest.fail "expected the table-1 trap to return the probe");
  same_as_step "0110"

(* ------------------------------------------------------------------ *)
(* Traps *)

let test_trap_returns () =
  let { Fixtures.cnet; r_c; _ } = Fixtures.chain3 () in
  let emu = Emu.create cnet in
  Emu.install_trap emu ~probe:7 ~switch:2 ~rule:r_c.FE.id ~header:(h "10000001");
  (match (Emu.inject emu ~at:0 (h "10000001")).Emu.outcome with
  | Emu.Returned { probe; at_switch; _ } ->
      check_int "probe id" 7 probe;
      check_int "at terminal" 2 at_switch
  | _ -> Alcotest.fail "expected return");
  (* A different header does not trigger the trap. *)
  (match (Emu.inject emu ~at:0 (h "10000010")).Emu.outcome with
  | Emu.Delivered _ -> ()
  | _ -> Alcotest.fail "expected normal delivery");
  Emu.remove_probe_traps emu ~probe:7;
  match (Emu.inject emu ~at:0 (h "10000001")).Emu.outcome with
  | Emu.Delivered _ -> ()
  | _ -> Alcotest.fail "expected delivery after trap removal"

(* The trap a header meets at r_c of chain3: [Some probe] or delivery. *)
let trapped_by emu header =
  match (Emu.inject emu ~at:0 header).Emu.outcome with
  | Emu.Returned { probe; _ } -> Some probe
  | Emu.Delivered _ -> None
  | _ -> Alcotest.fail "expected a return or a delivery"

let test_trap_overwrite () =
  let { Fixtures.cnet; r_c; _ } = Fixtures.chain3 () in
  let emu = Emu.create cnet in
  let hdr = h "10000001" in
  let install probe = Emu.install_trap emu ~probe ~switch:2 ~rule:r_c.FE.id ~header:hdr in
  let check msg expected = Alcotest.(check (option int)) msg expected (trapped_by emu hdr) in
  install 1;
  install 2;
  check "last install wins" (Some 2);
  Emu.remove_probe_traps emu ~probe:1;
  check "removing the overwritten probe keeps the overwriter" (Some 2);
  Emu.remove_probe_traps emu ~probe:2;
  check "removing the owner frees the key" None;
  install 3;
  Emu.remove_probe_traps emu ~probe:99;
  check "removing an unknown probe is a no-op" (Some 3);
  Emu.clear_traps emu;
  Emu.remove_probe_traps emu ~probe:3;
  check "remove after clear is a no-op" None;
  install 3;
  check "re-installing after removal traps again" (Some 3);
  Emu.remove_probe_traps emu ~probe:3;
  check "and removes again" None

(* Model-based: random install/remove/clear sequences over 5 probe ids
   and 3 headers that all reach r_c, so keys collide often, checked
   after every step against an association list with the table-scan
   semantics (last install wins; removal drops exactly the keys still
   mapped to the probe). *)
type trap_op = Install of int * int | Remove of int | Clear

let trap_pool = [| h "10000001"; h "10000010"; h "11000000" |]

let arb_trap_ops =
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map2 (fun p i -> Install (p, i)) (int_bound 4) (int_bound 2));
          (3, map (fun p -> Remove p) (int_bound 4));
          (1, return Clear);
        ])
  in
  let print = function
    | Install (p, i) -> Printf.sprintf "install %d %s" p (Header.to_string trap_pool.(i))
    | Remove p -> Printf.sprintf "remove %d" p
    | Clear -> "clear"
  in
  QCheck.make ~print:QCheck.Print.(list print) QCheck.Gen.(list_size (int_range 1 40) op)

let test_trap_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"trap index = table-scan model" ~count:300 arb_trap_ops
       (fun ops ->
         let { Fixtures.cnet; r_c; _ } = Fixtures.chain3 () in
         let emu = Emu.create cnet in
         let model = ref [] in
         List.for_all
           (fun op ->
             (match op with
             | Install (probe, i) ->
                 Emu.install_trap emu ~probe ~switch:2 ~rule:r_c.FE.id ~header:trap_pool.(i);
                 model := (i, probe) :: List.remove_assoc i !model
             | Remove probe ->
                 Emu.remove_probe_traps emu ~probe;
                 model := List.filter (fun (_, p) -> p <> probe) !model
             | Clear ->
                 Emu.clear_traps emu;
                 model := []);
             List.for_all
               (fun i -> trapped_by emu trap_pool.(i) = List.assoc_opt i !model)
               [ 0; 1; 2 ])
           ops))

let test_trap_wrong_rule () =
  (* A trap keyed on rule r does not fire when a different rule matches
     (models §VI: only the duplicated rule's action becomes goto). *)
  let { Fixtures.cnet; r_b; _ } = Fixtures.chain3 () in
  let emu = Emu.create cnet in
  Emu.install_trap emu ~probe:1 ~switch:2 ~rule:r_b.FE.id ~header:(h "10000001");
  match (Emu.inject emu ~at:0 (h "10000001")).Emu.outcome with
  | Emu.Delivered _ -> ()
  | _ -> Alcotest.fail "trap must not fire for another rule"

let test_trap_mid_path () =
  let { Fixtures.cnet; r_b; _ } = Fixtures.chain3 () in
  let emu = Emu.create cnet in
  Emu.install_trap emu ~probe:3 ~switch:1 ~rule:r_b.FE.id ~header:(h "10000001");
  match (Emu.inject emu ~at:0 (h "10000001")).Emu.outcome with
  | Emu.Returned { probe = 3; at_switch = 1; _ } -> ()
  | _ -> Alcotest.fail "expected mid-path return"

(* ------------------------------------------------------------------ *)
(* Faults through the emulator *)

let test_fault_drop () =
  let { Fixtures.cnet; r_b; _ } = Fixtures.chain3 () in
  let emu = Emu.create cnet in
  Emu.set_fault emu ~entry:r_b.FE.id (Fault.make Fault.Drop_packet);
  (match (Emu.inject emu ~at:0 (h "10000001")).Emu.outcome with
  | Emu.Lost (Emu.Dropped_by_fault 1) -> ()
  | _ -> Alcotest.fail "expected fault drop at switch 1");
  check_bool "faulty switches" true (Emu.faulty_switches emu = [ 1 ]);
  Emu.clear_fault emu ~entry:r_b.FE.id;
  match (Emu.inject emu ~at:0 (h "10000001")).Emu.outcome with
  | Emu.Delivered _ -> ()
  | _ -> Alcotest.fail "expected recovery after clearing fault"

let test_fault_misdirect () =
  (* Misdirect back out port 1 of switch 1: the packet returns to switch
     0, matches again, ping-pongs, and dies by TTL. *)
  let { Fixtures.cnet; r_b; _ } = Fixtures.chain3 () in
  let emu = Emu.create cnet in
  Emu.set_fault emu ~entry:r_b.FE.id (Fault.make (Fault.Misdirect 1));
  (match (Emu.inject emu ~at:0 (h "10000001")).Emu.outcome with
  | Emu.Lost Emu.Ttl_exceeded -> ()
  | _ -> Alcotest.fail "expected ping-pong TTL loss");
  (* Misdirect to a dead port. *)
  Emu.set_fault emu ~entry:r_b.FE.id (Fault.make (Fault.Misdirect 9));
  match (Emu.inject emu ~at:0 (h "10000001")).Emu.outcome with
  | Emu.Lost (Emu.Dead_port 1) -> ()
  | _ -> Alcotest.fail "expected dead-port loss"

let test_fault_rewrite () =
  let { Fixtures.cnet; r_b; _ } = Fixtures.chain3 () in
  let emu = Emu.create cnet in
  Emu.set_fault emu ~entry:r_b.FE.id
    (Fault.make (Fault.Rewrite (Cube.of_string "1111xxxx")));
  match (Emu.inject emu ~at:0 (h "10000001")).Emu.outcome with
  | Emu.Delivered { header; _ } ->
      Alcotest.(check string) "modified" "11110001" (Header.to_string header)
  | _ -> Alcotest.fail "expected delivery of modified packet"

let test_fault_rewrite_breaks_trap () =
  let { Fixtures.cnet; r_b; r_c; _ } = Fixtures.chain3 () in
  let emu = Emu.create cnet in
  Emu.install_trap emu ~probe:1 ~switch:2 ~rule:r_c.FE.id ~header:(h "10000001");
  Emu.set_fault emu ~entry:r_b.FE.id
    (Fault.make (Fault.Rewrite (Cube.of_string "x1xxxxxx")));
  (* Rewritten header still matches r_c but misses the exact trap. *)
  match (Emu.inject emu ~at:0 (h "10000001")).Emu.outcome with
  | Emu.Delivered { header; _ } ->
      Alcotest.(check string) "modified" "11000001" (Header.to_string header)
  | _ -> Alcotest.fail "expected trap miss"

let test_fault_intermittent_emulated () =
  let { Fixtures.cnet; r_b; _ } = Fixtures.chain3 () in
  let emu = Emu.create cnet in
  Emu.set_fault emu ~entry:r_b.FE.id
    (Fault.make
       ~activation:(Fault.Intermittent { period_us = 1000; duty_us = 500; phase_us = 0 })
       Fault.Drop_packet);
  (* Clock at 0: fault active. *)
  (match (Emu.inject emu ~at:0 (h "10000001")).Emu.outcome with
  | Emu.Lost (Emu.Dropped_by_fault 1) -> ()
  | _ -> Alcotest.fail "expected drop while active");
  Clock.advance_us (Emu.clock emu) 600;
  match (Emu.inject emu ~at:0 (h "10000001")).Emu.outcome with
  | Emu.Delivered _ -> ()
  | _ -> Alcotest.fail "expected delivery while inactive"

let test_fault_targeting_emulated () =
  let { Fixtures.cnet; r_b; _ } = Fixtures.chain3 () in
  let emu = Emu.create cnet in
  Emu.set_fault emu ~entry:r_b.FE.id
    (Fault.make ~activation:(Fault.Targeting (Cube.of_string "1000000x")) Fault.Drop_packet);
  (match (Emu.inject emu ~at:0 (h "10000001")).Emu.outcome with
  | Emu.Lost (Emu.Dropped_by_fault 1) -> ()
  | _ -> Alcotest.fail "targeted header must be dropped");
  match (Emu.inject emu ~at:0 (h "10000010")).Emu.outcome with
  | Emu.Delivered _ -> ()
  | _ -> Alcotest.fail "non-targeted header must pass"

let test_fault_detour_invisible () =
  (* Figure 3: a1 detours to switch C. The packet skips B but still
     reaches its destination and the terminal trap: invisible end to
     end — the colluding-detour blind spot. *)
  let fx = Fixtures.figure3 () in
  let emu = Emu.create fx.Fixtures.net in
  Emu.set_fault emu ~entry:fx.Fixtures.a1.FE.id (Fault.make (Fault.Detour Fixtures.sw_c));
  Emu.install_trap emu ~probe:1 ~switch:Fixtures.sw_e ~rule:fx.Fixtures.e1.FE.id
    ~header:(h "00101111");
  let r = Emu.inject emu ~at:Fixtures.sw_a (h "00101111") in
  (match r.Emu.outcome with
  | Emu.Returned { probe = 1; _ } -> ()
  | _ -> Alcotest.fail "detour within path must stay invisible");
  (* ... but switch B is genuinely skipped. *)
  check_bool "b1 skipped" true
    (not (List.exists (fun hop -> hop.Emu.entry = fx.Fixtures.b1.FE.id) r.Emu.trace))

let test_fault_detour_visible_when_terminal_skipped () =
  (* Same detour, but the trap sits at c2 (mid-path terminal): the
     packet reaches C via the tunnel and still matches c2 — place the
     trap at B instead, which the tunnel skips: the probe is lost. *)
  let fx = Fixtures.figure3 () in
  let emu = Emu.create fx.Fixtures.net in
  Emu.set_fault emu ~entry:fx.Fixtures.a1.FE.id (Fault.make (Fault.Detour Fixtures.sw_c));
  Emu.install_trap emu ~probe:1 ~switch:Fixtures.sw_b ~rule:fx.Fixtures.b1.FE.id
    ~header:(h "00101111");
  match (Emu.inject emu ~at:Fixtures.sw_a (h "00101111")).Emu.outcome with
  | Emu.Returned _ -> Alcotest.fail "trap at skipped switch must not fire"
  | _ -> ()

let test_fault_on_trap_rule_detected () =
  (* A drop fault on the tested terminal rule itself: §VI's table
     duplication means the real rule processes the probe first, so the
     fault fires and the probe is lost — the last rule is testable. *)
  let { Fixtures.cnet; r_c; _ } = Fixtures.chain3 () in
  let emu = Emu.create cnet in
  Emu.install_trap emu ~probe:1 ~switch:2 ~rule:r_c.FE.id ~header:(h "10000001");
  Emu.set_fault emu ~entry:r_c.FE.id (Fault.make Fault.Drop_packet);
  match (Emu.inject emu ~at:0 (h "10000001")).Emu.outcome with
  | Emu.Lost (Emu.Dropped_by_fault 2) -> ()
  | _ -> Alcotest.fail "fault on terminal rule must be observable"

(* ------------------------------------------------------------------ *)
(* Flow counters *)

let test_flow_counters () =
  let { Fixtures.cnet; r_a; r_b; r_c } = Fixtures.chain3 () in
  let emu = Emu.create cnet in
  check_int "fresh" 0 (Emu.flow_count emu ~entry:r_a.FE.id);
  for _ = 1 to 3 do
    ignore (Emu.inject emu ~at:0 (h "10000001"))
  done;
  check_int "a counted" 3 (Emu.flow_count emu ~entry:r_a.FE.id);
  check_int "b counted" 3 (Emu.flow_count emu ~entry:r_b.FE.id);
  check_int "c counted" 3 (Emu.flow_count emu ~entry:r_c.FE.id);
  (* Mid-chain injection only counts downstream rules. *)
  ignore (Emu.inject emu ~at:1 (h "10000001"));
  check_int "a unchanged" 3 (Emu.flow_count emu ~entry:r_a.FE.id);
  check_int "b bumped" 4 (Emu.flow_count emu ~entry:r_b.FE.id);
  (* Faulty executions count too: the rule processed the packet. *)
  Emu.set_fault emu ~entry:r_b.FE.id (Fault.make Fault.Drop_packet);
  ignore (Emu.inject emu ~at:0 (h "10000001"));
  check_int "faulty still counts" 5 (Emu.flow_count emu ~entry:r_b.FE.id);
  check_int "downstream starved" 4 (Emu.flow_count emu ~entry:r_c.FE.id);
  check_bool "non-zero listing" true (List.length (Emu.flow_counts emu) = 3);
  Emu.reset_flow_counts emu;
  check_int "reset" 0 (Emu.flow_count emu ~entry:r_a.FE.id)

let () =
  Alcotest.run "dataplane"
    [
      ("clock", [ Alcotest.test_case "basics" `Quick test_clock ]);
      ( "fault activation",
        [
          Alcotest.test_case "always" `Quick test_fault_always;
          Alcotest.test_case "intermittent" `Quick test_fault_intermittent;
          Alcotest.test_case "random bursts" `Quick test_fault_random_bursts;
          Alcotest.test_case "targeting" `Quick test_fault_targeting;
        ] );
      ( "forwarding",
        [
          Alcotest.test_case "chain" `Quick test_forwarding_chain;
          Alcotest.test_case "no match" `Quick test_forwarding_no_match;
          Alcotest.test_case "figure3" `Quick test_forwarding_figure3;
          Alcotest.test_case "ttl loop" `Quick test_ttl_loop;
          Alcotest.test_case "goto chain" `Quick test_goto_chain;
        ] );
      ( "traps",
        [
          Alcotest.test_case "returns" `Quick test_trap_returns;
          Alcotest.test_case "overwrite" `Quick test_trap_overwrite;
          test_trap_model;
          Alcotest.test_case "wrong rule" `Quick test_trap_wrong_rule;
          Alcotest.test_case "mid path" `Quick test_trap_mid_path;
        ] );
      ( "faults",
        [
          Alcotest.test_case "drop" `Quick test_fault_drop;
          Alcotest.test_case "misdirect" `Quick test_fault_misdirect;
          Alcotest.test_case "rewrite" `Quick test_fault_rewrite;
          Alcotest.test_case "rewrite breaks trap" `Quick test_fault_rewrite_breaks_trap;
          Alcotest.test_case "intermittent" `Quick test_fault_intermittent_emulated;
          Alcotest.test_case "targeting" `Quick test_fault_targeting_emulated;
          Alcotest.test_case "detour invisible" `Quick test_fault_detour_invisible;
          Alcotest.test_case "detour visible" `Quick test_fault_detour_visible_when_terminal_skipped;
          Alcotest.test_case "fault on terminal rule" `Quick test_fault_on_trap_rule_detected;
        ] );
      ("counters", [ Alcotest.test_case "flow counters" `Quick test_flow_counters ]);
    ]
