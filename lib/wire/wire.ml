module Proto = Wire_proto
module Emulator = Dataplane.Emulator
module Clock = Dataplane.Clock
module Network = Openflow.Network
module Probe = Sdnprobe.Probe
module Config = Sdnprobe.Config
module Backend = Sdnprobe.Backend
module Message = Ofwire.Message
module Driver = Ofwire.Driver
module W = Ofwire.Byte_io.Writer
module Mono = Sdn_util.Mono

let src = Logs.Src.create "sdnprobe.wire" ~doc:"UDP wire probe backend"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  emu : Emulator.t;
      (* forwarding semantics, faults, impairment and traps all live
         here; the daemon walks it one Emulator.step per datagram *)
  clock : Clock.t; (* report clock, mirrors real elapsed time *)
  t0 : float; (* Mono.now_s at creation *)
  header_len : int;
  sw_socks : Unix.file_descr array;
  sw_addrs : Unix.sockaddr array;
  ctrl_sock : Unix.file_descr;
  ctrl_addr : Unix.sockaddr;
  traps_m : Mutex.t;
      (* the controller thread installs/removes traps between rounds
         while the daemon reads them per step: one lock covers both *)
  stop : bool Atomic.t;
  mutable daemon : unit Domain.t option;
  send_w : W.t; (* controller-side encode buffer, reused across sends *)
  recv_buf : bytes; (* controller-side receive buffer *)
  mutable xid : int32;
}

let max_datagram = 9000

let elapsed_us t = int_of_float ((Mono.now_s () -. t.t0) *. 1e6)

(* The runner reads detection timestamps and durations off [clock];
   mirror real elapsed time into it (monotone: never step backwards). *)
let sync_clock t =
  let now = elapsed_us t in
  let c = Clock.now_us t.clock in
  if now > c then Clock.advance_us t.clock (now - c)

let loopback port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let udp_socket () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.set_nonblock fd;
  Unix.bind fd (loopback 0);
  (fd, Unix.getsockname fd)

(* A failed send is a wire loss: the controller's timeout machinery is
   exactly the recovery path, so no error escapes here. *)
let send_view fd w dest =
  W.view w (fun buf off len ->
      try ignore (Unix.sendto fd buf off len [] dest)
      with Unix.Unix_error _ -> ())

let send_bytes fd data dest =
  try ignore (Unix.sendto fd data 0 (Bytes.length data) [] dest)
  with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Switch daemon: one domain select-looping over every switch socket.
   Jitter drawn by a switch visit is shaped at the socket level: the
   outgoing datagram is held in a due-time queue instead of leaving at
   once, so a jittered probe's echo really does come back later. *)

type delayed = { due_s : float; from_sw : int; dest : Unix.sockaddr; data : bytes }

(* One probe visit at switch [sw]: walk the shared emulator one step
   and turn the verdict into a datagram (or silence). *)
let visit t ~out_w ~queue ~sw ~probe ~ttl header =
  let now_us = elapsed_us t in
  Mutex.lock t.traps_m;
  let step =
    match Emulator.step ~now_us t.emu ~at:sw ~ttl header with
    | s -> Mutex.unlock t.traps_m; s
    | exception e -> Mutex.unlock t.traps_m; raise e
  in
  let dispatch ~jitter_us dest =
    if jitter_us <= 0 then send_view t.sw_socks.(sw) out_w dest
    else
      queue :=
        {
          due_s = Mono.now_s () +. (float_of_int jitter_us /. 1e6);
          from_sw = sw;
          dest;
          data = W.view out_w (fun b off len -> Bytes.sub b off len);
        }
        :: !queue
  in
  match step with
  | Emulator.Step_forward { next; header; jitter_us } ->
      W.reset out_w;
      Wire_proto.encode_to out_w { Wire_proto.probe; ttl = ttl - 1; header };
      dispatch ~jitter_us t.sw_addrs.(next)
  | Emulator.Step_final { outcome = Emulator.Returned { probe; header; _ }; jitter_us }
    ->
      W.reset out_w;
      t.xid <- Int32.add t.xid 1l;
      Message.encode_to out_w ~xid:t.xid
        (Driver.packet_in_of_return ~probe ~header ~table_id:0 ~cookie:0L);
      dispatch ~jitter_us t.ctrl_addr
  | Emulator.Step_final _ ->
      (* lost or locally delivered: the controller sees a timeout *)
      ()

let handle_datagram t ~out_w ~queue ~sw data len =
  if len >= 1 then
    let b0 = Bytes.get_uint8 data 0 in
    if b0 = Wire_proto.magic then
      match Wire_proto.decode (Bytes.sub data 0 len) with
      | Some { Wire_proto.probe; ttl; header } ->
          visit t ~out_w ~queue ~sw ~probe ~ttl header
      | None -> Log.debug (fun m -> m "switch %d: malformed frame dropped" sw)
    else if b0 = Message.version then
      match Message.decode ~header_len:t.header_len (Bytes.sub data 0 len) with
      | Ok ((_, Message.Packet_out { payload; _ }), _) -> (
          match Driver.parse_probe_payload ~header_len:t.header_len payload with
          | Some (probe, header) ->
              visit t ~out_w ~queue ~sw ~probe ~ttl:Emulator.ttl header
          | None ->
              Log.debug (fun m -> m "switch %d: bad packet-out payload" sw))
      | Ok _ | Error _ ->
          Log.debug (fun m -> m "switch %d: unexpected OpenFlow message" sw)
    else Log.debug (fun m -> m "switch %d: unknown datagram kind 0x%02x" sw b0)

let daemon_loop t =
  let buf = Bytes.create max_datagram in
  let out_w = W.create () in
  let queue = ref [] in
  let sw_of_fd = Hashtbl.create (Array.length t.sw_socks) in
  Array.iteri (fun sw fd -> Hashtbl.replace sw_of_fd fd sw) t.sw_socks;
  let fds = Array.to_list t.sw_socks in
  let drain fd sw =
    let continue = ref true in
    while !continue do
      match Unix.recvfrom fd buf 0 (Bytes.length buf) [] with
      | len, _ -> handle_datagram t ~out_w ~queue ~sw buf len
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          continue := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  in
  while not (Atomic.get t.stop) do
    let now = Mono.now_s () in
    let due, later = List.partition (fun d -> d.due_s <= now) !queue in
    queue := later;
    List.iter (fun d -> send_bytes t.sw_socks.(d.from_sw) d.data d.dest) due;
    let timeout =
      List.fold_left (fun acc d -> min acc (d.due_s -. now)) 0.05 !queue
      |> Float.max 0.001
    in
    match Unix.select fds [] [] timeout with
    | readable, _, _ ->
        List.iter (fun fd -> drain fd (Hashtbl.find sw_of_fd fd)) readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* ------------------------------------------------------------------ *)
(* Controller side *)

let drain_ctrl t =
  let continue = ref true in
  while !continue do
    match Unix.recvfrom t.ctrl_sock t.recv_buf 0 (Bytes.length t.recv_buf) [] with
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* Parse one received datagram down to the echoed probe id. *)
let echoed_probe t len =
  if len < 1 || Bytes.get_uint8 t.recv_buf 0 <> Message.version then None
  else
    match Message.decode ~header_len:t.header_len (Bytes.sub t.recv_buf 0 len) with
    | Ok ((_, Message.Packet_in { payload; _ }), _) ->
        Option.map fst (Driver.parse_probe_payload ~header_len:t.header_len payload)
    | Ok _ | Error _ -> None

(* Batched round send: fire every probe, then collect echoes until each
   probe's own deadline. The sends and the timeout waits overlap — the
   round costs one slowest-probe timeout, not the sum. *)
let send_batch t ~config probes =
  drain_ctrl t;
  let arr = Array.of_list probes in
  let n = Array.length arr in
  let verdicts = Array.make n false in
  let deadlines = Array.make n 0. in
  let pending = Hashtbl.create (max 16 n) in
  Array.iteri (fun i (p : Probe.t) -> Hashtbl.replace pending p.Probe.id i) arr;
  Array.iteri
    (fun i (p : Probe.t) ->
      W.reset t.send_w;
      t.xid <- Int32.add t.xid 1l;
      Message.encode_to t.send_w ~xid:t.xid (Driver.packet_out_of_probe p);
      send_view t.ctrl_sock t.send_w t.sw_addrs.(p.Probe.inject_switch);
      deadlines.(i) <-
        Mono.now_s ()
        +. (float_of_int (Config.probe_timeout_us config ~hops:(Probe.hop_count p))
           /. 1e6))
    arr;
  let max_deadline = Array.fold_left Float.max 0. deadlines in
  let prune now =
    let expired =
      (* sdncheck: allow D001 — every expired id is removed; the
         removal set is order-free *)
      Hashtbl.fold
        (fun id i acc -> if deadlines.(i) < now then id :: acc else acc)
        pending []
    in
    List.iter (Hashtbl.remove pending) expired
  in
  let recv_echoes now =
    let continue = ref true in
    while !continue do
      match Unix.recvfrom t.ctrl_sock t.recv_buf 0 (Bytes.length t.recv_buf) [] with
      | len, _ -> (
          match echoed_probe t len with
          | Some id -> (
              match Hashtbl.find_opt pending id with
              | Some i ->
                  Hashtbl.remove pending id;
                  if now <= deadlines.(i) then verdicts.(i) <- true
              | None -> ())
          | None -> ())
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          continue := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  in
  let finished = ref (n = 0) in
  while not !finished do
    let now = Mono.now_s () in
    prune now;
    if Hashtbl.length pending = 0 || now >= max_deadline then finished := true
    else begin
      let timeout = Float.max 0.001 (Float.min 0.05 (max_deadline -. now)) in
      (match Unix.select [ t.ctrl_sock ] [] [] timeout with
      | [], _, _ -> ()
      | _ :: _, _, _ -> recv_echoes (Mono.now_s ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    end
  done;
  sync_clock t;
  verdicts

let attempt t ~config ?now_us (p : Probe.t) =
  ignore now_us;
  (send_batch t ~config [ p ]).(0)

let install_traps t probes =
  Mutex.lock t.traps_m;
  List.iter
    (fun (p : Probe.t) ->
      Emulator.install_trap t.emu ~probe:p.Probe.id ~switch:p.Probe.terminal_switch
        ~rule:p.Probe.terminal_rule ~header:p.Probe.expected_header)
    probes;
  Mutex.unlock t.traps_m

let remove_traps t probes =
  Mutex.lock t.traps_m;
  List.iter
    (fun (p : Probe.t) -> Emulator.remove_probe_traps t.emu ~probe:p.Probe.id)
    probes;
  Mutex.unlock t.traps_m;
  sync_clock t

let close t =
  match t.daemon with
  | None -> ()
  | Some d ->
      Atomic.set t.stop true;
      Domain.join d;
      t.daemon <- None;
      Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.sw_socks;
      (try Unix.close t.ctrl_sock with Unix.Unix_error _ -> ())

let create emu =
  let net = Emulator.network emu in
  let n = Network.n_switches net in
  let pairs = Array.init n (fun _ -> udp_socket ()) in
  let ctrl_sock, ctrl_addr = udp_socket () in
  let t =
    {
      emu;
      clock = Clock.create ();
      t0 = Mono.now_s ();
      header_len = Network.header_len net;
      sw_socks = Array.map fst pairs;
      sw_addrs = Array.map snd pairs;
      ctrl_sock;
      ctrl_addr;
      traps_m = Mutex.create ();
      stop = Atomic.make false;
      daemon = None;
      send_w = W.create ();
      recv_buf = Bytes.create max_datagram;
      xid = 0l;
    }
  in
  t.daemon <- Some (Domain.spawn (fun () -> daemon_loop t));
  Log.info (fun m -> m "wire backend up: %d switch endpoints on loopback UDP" n);
  t

let backend t =
  {
    Backend.label = "wire";
    network = Emulator.network t.emu;
    clock = t.clock;
    real_time = true;
    install_traps = install_traps t;
    remove_traps = remove_traps t;
    attempt = (fun ~config ?now_us p -> attempt t ~config ?now_us p);
    send_batch = Some (fun ~config probes -> send_batch t ~config probes);
    close = (fun () -> close t);
  }

let switch_port t sw =
  match t.sw_addrs.(sw) with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> assert false
