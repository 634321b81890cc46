module Pool = Pool
module Ownership = Ownership

(* Process-wide degree of parallelism: the SDNPROBE_DOMAINS environment
   variable, else 1 — so every entry point (CLI, tests, benches) is
   sequential unless asked otherwise, and a single env var switches the
   whole pipeline over (e.g. [SDNPROBE_DOMAINS=4 dune runtest]). *)

let env_domains () =
  match Sys.getenv_opt "SDNPROBE_DOMAINS" with
  | None | Some "" -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 && n <= 128 -> n
      | _ ->
          Printf.eprintf "SDNPROBE_DOMAINS=%s ignored (want an int in [1, 128])\n%!" s;
          1)

(* One cached pool per size, shut down at exit (worker domains block on
   a condition variable; the runtime joins every domain before the
   process can exit, so leaving them running would hang termination).
   Size-1 pools spawn no domains and run inline. *)
(* sdncheck: allow D005 — every access is under [pools_m] just below *)
let pools : (int, Pool.t) Hashtbl.t = Hashtbl.create 4

let pools_m = Mutex.create ()

let () =
  at_exit (fun () ->
      Mutex.lock pools_m;
      (* sdncheck: allow D001 — at_exit shutdown: every pool is shut
         down exactly once and the order is immaterial *)
      let ps = Hashtbl.fold (fun _ p acc -> p :: acc) pools [] in
      Hashtbl.reset pools;
      Mutex.unlock pools_m;
      List.iter Pool.shutdown ps)

let pool ~domains =
  Mutex.lock pools_m;
  let p =
    match Hashtbl.find_opt pools domains with
    | Some p -> p
    | None ->
        let p = Pool.create ~domains in
        Hashtbl.add pools domains p;
        p
  in
  Mutex.unlock pools_m;
  p

let default_pool () = pool ~domains:(env_domains ())
