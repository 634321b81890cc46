(* Deterministic multicore: the domain pool's combinator contracts, the
   domain-safe cube intern table, and byte-identity of the whole
   pipeline (plan, execution report, certificate) across domain
   counts. *)

module Pool = Sdn_parallel.Pool
module Prng = Sdn_util.Prng
module Cube = Hspace.Cube
module Emu = Dataplane.Emulator
module Impairment = Dataplane.Impairment
module Plan = Sdnprobe.Plan
module Runner = Sdnprobe.Runner
module Report = Sdnprobe.Report
module Config = Sdnprobe.Config
module W = Experiments.Workloads

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* Pools for the whole file: obtained from the process-wide cache so
   they are shut down automatically at exit. *)
let pool n = Sdn_parallel.pool ~domains:n

let sizes = [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Pool combinators *)

let test_map_matches_sequential () =
  let input = Array.init 157 Fun.id in
  let f x = (x * x) + 1 in
  let expect = Array.map f input in
  List.iter
    (fun n -> check_bool (Printf.sprintf "map @%d" n) true (Pool.map (pool n) f input = expect))
    sizes

let test_map_list_and_mapi () =
  let input = List.init 63 Fun.id in
  List.iter
    (fun n ->
      check_bool "map_list" true
        (Pool.map_list (pool n) succ input = List.map succ input);
      check_bool "mapi_list" true
        (Pool.mapi_list (pool n) (fun i x -> i - x) input = List.mapi (fun i x -> i - x) input))
    sizes;
  check_bool "empty list" true (Pool.map_list (pool 4) succ [] = [])

let test_map_reduce_in_order () =
  (* String concatenation is not commutative: the reduce must fold the
     mapped results left to right in input order. *)
  let input = Array.init 40 Fun.id in
  let expect =
    Array.fold_left (fun acc x -> acc ^ string_of_int x) "" (Array.map Fun.id input)
  in
  List.iter
    (fun n ->
      let got =
        Pool.map_reduce (pool n) ~map:string_of_int
          ~combine:(fun acc s -> acc ^ s)
          ~init:"" input
      in
      check_str (Printf.sprintf "map_reduce @%d" n) expect got)
    sizes

let test_iter_chunked_covers_all () =
  let input = Array.init 101 (fun i -> i * 3) in
  List.iter
    (fun n ->
      List.iter
        (fun chunk ->
          let out = Array.make 101 min_int in
          Pool.iter_chunked ~chunk (pool n) (fun i x -> out.(i) <- x + 1) input;
          Array.iteri
            (fun i x ->
              if out.(i) <> x + 1 then
                Alcotest.failf "slot %d: %d <> %d (chunk %d, domains %d)" i out.(i)
                  (x + 1) chunk n)
            input)
        [ 1; 3; 16; 1000 ])
    sizes

let test_exception_lowest_index () =
  List.iter
    (fun n ->
      match
        Pool.map (pool n)
          (fun i -> if i mod 2 = 1 then failwith (string_of_int i) else i)
          (Array.init 32 Fun.id)
      with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure s -> check_str (Printf.sprintf "lowest @%d" n) "1" s)
    sizes

let test_reentrant_falls_back_inline () =
  let p = pool 3 in
  let got =
    Pool.map_list p
      (fun x -> List.fold_left ( + ) 0 (Pool.map_list p Fun.id (List.init x succ)))
    (List.init 20 Fun.id)
  in
  let expect = List.init 20 (fun x -> x * (x + 1) / 2) in
  check_bool "nested combinator" true (got = expect)

let test_shutdown_idempotent () =
  let p = Pool.create ~domains:2 in
  check_int "domains" 2 (Pool.domains p);
  check_bool "pre-shutdown" true (Pool.map p succ [| 1; 2; 3 |] = [| 2; 3; 4 |]);
  Pool.shutdown p;
  Pool.shutdown p;
  (* combinators still work, inline *)
  check_bool "post-shutdown inline" true (Pool.map p succ [| 1; 2; 3 |] = [| 2; 3; 4 |])

let test_create_validates () =
  List.iter
    (fun bad ->
      check_bool (Printf.sprintf "domains %d rejected" bad) true
        (try
           ignore (Pool.create ~domains:bad);
           false
         with Invalid_argument _ -> true))
    [ 0; -1; 129 ]

let test_env_parsing () =
  let set v = Unix.putenv "SDNPROBE_DOMAINS" v in
  let saved = Sys.getenv_opt "SDNPROBE_DOMAINS" in
  Fun.protect
    ~finally:(fun () -> set (Option.value ~default:"" saved))
    (fun () ->
      set "4";
      check_int "well-formed" 4 (Sdn_parallel.env_domains ());
      set "0";
      check_int "out of range low" 1 (Sdn_parallel.env_domains ());
      set "129";
      check_int "out of range high" 1 (Sdn_parallel.env_domains ());
      set "banana";
      check_int "malformed" 1 (Sdn_parallel.env_domains ());
      set "";
      check_int "empty" 1 (Sdn_parallel.env_domains ()))

(* ------------------------------------------------------------------ *)
(* Domain-safe cube interning: hammer constructors and algebra from
   four domains; results must be structurally identical to the
   sequential ones, and constructor results must still be interned. *)

let test_intern_under_domains () =
  let rng = Prng.create 11 in
  let specs = Array.init 256 (fun _ -> Cube.to_string (Cube.random rng 64)) in
  let work s =
    let c = Cube.of_string s in
    let d = Cube.of_string s in
    if not (c == d) then Alcotest.fail "of_string not interned";
    match Cube.inter c (Cube.wildcard 64) with
    | Some i -> Cube.to_string i
    | None -> assert false
  in
  let seq = Array.map work specs in
  let par = Pool.map (pool 4) work specs in
  check_bool "parallel algebra matches" true (seq = par);
  check_bool "table non-empty" true (Cube.interned_count () > 0)

(* ------------------------------------------------------------------ *)
(* Pipeline byte-identity across domain counts.

   [canonical]/[digest] replicate test_runner_loss's golden encoding so
   the digests pinned there can be re-pinned here under domains = 4. *)

let canonical (r : Report.t) =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "%s|%d|%d|%d|%d|%.6f" r.Report.scheme r.plan_size
       r.packets_sent r.bytes_sent r.rounds r.duration_s);
  List.iter
    (fun (d : Report.detection) ->
      Buffer.add_string b (Printf.sprintf "|d%d,%.6f,%d" d.switch d.time_s d.round))
    r.detections;
  List.iter
    (fun (rule, lvl) -> Buffer.add_string b (Printf.sprintf "|s%d,%d" rule lvl))
    r.suspicion_ranking;
  Buffer.contents b

let digest r = Digest.to_hex (Digest.string (canonical r))

let make_net ~switches ~seed =
  let rng = Prng.create seed in
  let topo = Topogen.Topo_gen.rocketfuel_like rng ~n_switches:switches () in
  Topogen.Rule_gen.install rng topo

(* A probe plan's observable content, for byte comparison. *)
let plan_fingerprint (p : Plan.t) =
  String.concat ";"
    (List.map
       (fun (pr : Sdnprobe.Probe.t) ->
         Printf.sprintf "%d:%s:%s" pr.Sdnprobe.Probe.id
           (String.concat "," (List.map string_of_int pr.Sdnprobe.Probe.rules))
           (Hspace.Header.to_string pr.Sdnprobe.Probe.header))
       p.Plan.probes)

let scenario ~domains ~switches ~seed ~kind ~fraction ~randomized ~max_rounds ~impair
    () =
  let net = make_net ~switches ~seed in
  let emu = Emu.create net in
  (* Flaps + churn are clock-window salted: the property covers a
     noisy data plane under pooled planning. Probe rounds send in plan
     order on the calling domain at every domain count; the draws that
     depend on that order (loss, jitter) are covered by
     [test_cross_domain_identity_lossy] below. *)
  if impair then
    Emu.set_impairment emu
      (Impairment.create
         (Impairment.spec ~seed:99
            ~flaps:{ Impairment.flap_window_us = 200_000; down_ratio = 0.01 }
            ~churn:{ Impairment.churn_window_us = 250_000; out_ratio = 0.005 }
            ()));
  let truth = W.inject (Prng.create (seed + 1)) ~kind ~fraction emu in
  let config =
    Config.with_domains domains (Config.with_max_rounds max_rounds Config.default)
  in
  let pool = Config.pool config in
  let plan =
    if randomized then Plan.randomized ?pool (Prng.create seed) net
    else Pipeline.plan (Pipeline.create ?pool net)
  in
  let report =
    Runner.execute ~stop:(Runner.stop_when_flagged truth) ~config ~emulator:emu plan
  in
  (plan, report)

let test_cross_domain_identity =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"plan/report identical for domains 1, 2, 4" ~count:6
       QCheck.(triple (int_bound 1000) bool bool)
       (fun (seed, randomized, impair) ->
         let at domains =
           let plan, report =
             scenario ~domains ~switches:10 ~seed ~kind:W.Drop_only ~fraction:0.02
               ~randomized ~max_rounds:25 ~impair ()
           in
           (plan_fingerprint plan, canonical report)
         in
         let p1, r1 = at 1 and p2, r2 = at 2 and p4, r4 = at 4 in
         p1 = p2 && p2 = p4 && r1 = r2 && r2 = r4))

(* Order-dependent impairment (per-link loss) with retransmissions:
   the report is the 1-domain one exactly, while planning runs on the
   pool. *)
let test_cross_domain_identity_lossy () =
  let at domains =
    let net = make_net ~switches:16 ~seed:1 in
    let emu = Emu.create net in
    Emu.set_impairment emu
      (Impairment.create (Impairment.spec ~seed:77 ~loss_rate:0.02 ()));
    let truth = W.inject (Prng.create 2) ~kind:W.Drop_only ~fraction:0.02 emu in
    let config =
      Config.with_domains domains (Config.with_max_rounds 60 Config.resilient)
    in
    let plan = Pipeline.plan (Pipeline.create ?pool:(Config.pool config) net) in
    let report =
      Runner.execute ~stop:(Runner.stop_when_flagged truth) ~config ~emulator:emu
        plan
    in
    (plan_fingerprint plan, canonical report)
  in
  let p1, r1 = at 1 and p4, r4 = at 4 in
  check_str "lossy plan identical" p1 p4;
  check_str "lossy report identical" r1 r4

(* The PR2/PR3 golden digests, re-pinned with the whole pipeline at 4
   domains: pooled plan generation, probe rounds in plan order. *)
let golden ~switches ~seed ~kind ~fraction ~randomized ~max_rounds expect () =
  let _, r =
    scenario ~domains:4 ~switches ~seed ~kind ~fraction ~randomized ~max_rounds
      ~impair:false ()
  in
  check_str "digest @4 domains" expect (digest r)

let test_golden_static_drop_par =
  golden ~switches:16 ~seed:1 ~kind:W.Drop_only ~fraction:0.02 ~randomized:false
    ~max_rounds:60 "bf4e86a37c5cc5a2cc0fc972572a1448"

let test_golden_randomized_drop_par =
  golden ~switches:16 ~seed:1 ~kind:W.Drop_only ~fraction:0.02 ~randomized:true
    ~max_rounds:60 "9c8f3f167e8ae6d9d081616844bed1a8"

let test_golden_static_basic_24_par =
  golden ~switches:24 ~seed:5 ~kind:W.Basic ~fraction:0.03 ~randomized:false
    ~max_rounds:60 "784726fc5c1c45fd4fec049c64b4dd30"

(* ------------------------------------------------------------------ *)
(* Certification of parallel plans: a plan generated on 4 domains is
   the plan the verifier expects, and its certificate JSON matches the
   sequential one byte for byte. *)

(* ------------------------------------------------------------------ *)
(* Ownership checker (SDNPROBE_POOL_CHECK): the dynamic complement to
   the static D005 rule. Each test flips the checker on, registers its
   regions, and restores the env-derived state afterwards. *)

module Own = Sdn_parallel.Ownership

let with_checker f =
  Own.set_enabled true;
  Fun.protect ~finally:(fun () -> Own.set_enabled Own.env_enabled) f

let test_ownership_violation () =
  with_checker (fun () ->
      let r = Own.register ~name:"test.region" in
      (* Same-domain touches are quiet. *)
      Own.touch r;
      (* A pooled worker touching the coordinator's region must raise.
         domains:2 so the closure really runs on another domain. *)
      let p = Pool.create ~domains:2 in
      let raised =
        try
          (* Tasks sleep briefly so the coordinator cannot drain the
             whole batch before a worker domain claims its first task. *)
          ignore
            (Pool.map p
               (fun _ ->
                 Unix.sleepf 0.002;
                 Own.touch r)
               (Array.make 64 ()));
          false
        with Own.Violation _ -> true
      in
      Pool.shutdown p;
      check_bool "cross-domain touch raises" true raised)

let test_ownership_guarded_and_sync () =
  with_checker (fun () ->
      let r = Own.register ~name:"test.guarded" in
      let worker () =
        (* guarded: the caller vouches for synchronization; touch_sync:
           mutex-holding sites are counted, not fatal. *)
        let ok =
          try
            Own.guarded r (fun () -> Own.touch r);
            true
          with Own.Violation _ -> false
        in
        Own.touch_sync r;
        ok
      in
      let ok = Domain.join (Domain.spawn worker) in
      check_bool "guarded and sync touches pass" true ok;
      check_int "both cross-domain touches counted" 2 (Own.cross_touches r))

let test_ownership_adopt () =
  with_checker (fun () ->
      let r = Own.register ~name:"test.adopt" in
      let d = Domain.spawn (fun () -> Own.adopt r; Own.touch r) in
      Domain.join d;
      (* After the worker adopted it, the old owner is the stranger. *)
      let raised = try Own.touch r; false with Own.Violation _ -> true in
      check_bool "previous owner now raises" true raised)

let test_ownership_disabled_is_quiet () =
  Own.set_enabled false;
  Fun.protect ~finally:(fun () -> Own.set_enabled Own.env_enabled) (fun () ->
      let r = Own.register ~name:"test.off" in
      let d = Domain.spawn (fun () -> Own.touch r) in
      Domain.join d;
      check_int "no cross count when off" 0 (Own.cross_touches r);
      check_bool "anonymous when off" true (Own.name r = None))

let test_certify_parallel_plan () =
  let net = make_net ~switches:12 ~seed:8 in
  let cert domains =
    let config = Config.with_domains domains Config.default in
    let plan = Pipeline.plan (Pipeline.create ?pool:(Config.pool config) net) in
    let report = Sdnprobe.Certify.run ~seed:5 plan in
    if not (Sdnprobe.Certify.ok_report report) then
      Alcotest.failf "certification failed at %d domains:@.%a" domains
        Sdnprobe.Certify.pp report;
    Sdn_util.Json.to_string (Sdnprobe.Certify.to_json report)
  in
  check_str "certificates identical" (cert 1) (cert 4)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map = Array.map" `Quick test_map_matches_sequential;
          Alcotest.test_case "map_list / mapi_list" `Quick test_map_list_and_mapi;
          Alcotest.test_case "map_reduce order" `Quick test_map_reduce_in_order;
          Alcotest.test_case "iter_chunked coverage" `Quick test_iter_chunked_covers_all;
          Alcotest.test_case "lowest-index exception" `Quick test_exception_lowest_index;
          Alcotest.test_case "reentrant fallback" `Quick test_reentrant_falls_back_inline;
          Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
          Alcotest.test_case "create validates" `Quick test_create_validates;
          Alcotest.test_case "env parsing" `Quick test_env_parsing;
        ] );
      ( "intern",
        [ Alcotest.test_case "cube algebra under domains" `Quick test_intern_under_domains ] );
      ( "pipeline",
        [
          test_cross_domain_identity;
          Alcotest.test_case "lossy cross-domain identity" `Quick
            test_cross_domain_identity_lossy;
          Alcotest.test_case "golden static s16 @4" `Quick test_golden_static_drop_par;
          Alcotest.test_case "golden randomized s16 @4" `Quick
            test_golden_randomized_drop_par;
          Alcotest.test_case "golden static s24 @4" `Quick test_golden_static_basic_24_par;
        ] );
      ( "ownership",
        [
          Alcotest.test_case "cross-domain violation" `Quick test_ownership_violation;
          Alcotest.test_case "guarded and touch_sync" `Quick
            test_ownership_guarded_and_sync;
          Alcotest.test_case "adopt transfers" `Quick test_ownership_adopt;
          Alcotest.test_case "disabled is quiet" `Quick
            test_ownership_disabled_is_quiet;
        ] );
      ( "certify",
        [ Alcotest.test_case "parallel plan certifies" `Quick test_certify_parallel_plan ] );
    ]
