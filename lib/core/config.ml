type backend_kind = Emulator | Wire

type t = {
  threshold : int;
  send_rate_bytes_per_s : int;
  probe_size_bytes : int;
  per_hop_latency_us : int;
  per_round_overhead_us : int;
  max_rounds : int;
  max_retries : int;
  retry_backoff_us : int;
  backoff_factor : int;
  timeout_base_us : int;
  timeout_per_hop_us : int;
  suspicion_decay : int;
  domains : int;
  backend : backend_kind;
}

let positive what v =
  if v <= 0 then invalid_arg (Printf.sprintf "Config: non-positive %s" what)

let non_negative what v =
  if v < 0 then invalid_arg (Printf.sprintf "Config: negative %s" what)

let make ?(threshold = 3) ?(send_rate_bytes_per_s = 250_000) ?(probe_size_bytes = 100)
    ?(per_hop_latency_us = 500) ?(per_round_overhead_us = 50_000) ?(max_rounds = 200)
    ?(max_retries = 0) ?(retry_backoff_us = 10_000) ?(backoff_factor = 2)
    ?(timeout_base_us = 20_000) ?(timeout_per_hop_us = 2_000) ?(suspicion_decay = 0)
    ?(domains = Sdn_parallel.env_domains ()) ?(backend = Emulator) () =
  positive "threshold" threshold;
  positive "send_rate_bytes_per_s" send_rate_bytes_per_s;
  positive "probe_size_bytes" probe_size_bytes;
  positive "per_hop_latency_us" per_hop_latency_us;
  non_negative "per_round_overhead_us" per_round_overhead_us;
  positive "max_rounds" max_rounds;
  non_negative "max_retries" max_retries;
  positive "retry_backoff_us" retry_backoff_us;
  if backoff_factor < 1 then invalid_arg "Config: backoff_factor < 1";
  non_negative "timeout_base_us" timeout_base_us;
  non_negative "timeout_per_hop_us" timeout_per_hop_us;
  non_negative "suspicion_decay" suspicion_decay;
  if domains < 1 || domains > 128 then invalid_arg "Config: domains outside [1, 128]";
  {
    threshold;
    send_rate_bytes_per_s;
    probe_size_bytes;
    per_hop_latency_us;
    per_round_overhead_us;
    max_rounds;
    max_retries;
    retry_backoff_us;
    backoff_factor;
    timeout_base_us;
    timeout_per_hop_us;
    suspicion_decay;
    domains;
    backend;
  }

let default = make ()

let resilient = make ~max_retries:2 ~suspicion_decay:1 ()

let with_threshold threshold t = positive "threshold" threshold; { t with threshold }

let with_send_rate_bytes_per_s send_rate_bytes_per_s t =
  positive "send_rate_bytes_per_s" send_rate_bytes_per_s;
  { t with send_rate_bytes_per_s }

let with_probe_size_bytes probe_size_bytes t =
  positive "probe_size_bytes" probe_size_bytes;
  { t with probe_size_bytes }

let with_per_hop_latency_us per_hop_latency_us t =
  positive "per_hop_latency_us" per_hop_latency_us;
  { t with per_hop_latency_us }

let with_per_round_overhead_us per_round_overhead_us t =
  non_negative "per_round_overhead_us" per_round_overhead_us;
  { t with per_round_overhead_us }

let with_max_rounds max_rounds t = positive "max_rounds" max_rounds; { t with max_rounds }

let with_max_retries max_retries t =
  non_negative "max_retries" max_retries;
  { t with max_retries }

let with_retry_backoff_us retry_backoff_us t =
  positive "retry_backoff_us" retry_backoff_us;
  { t with retry_backoff_us }

let with_backoff_factor backoff_factor t =
  if backoff_factor < 1 then invalid_arg "Config: backoff_factor < 1";
  { t with backoff_factor }

let with_timeout_base_us timeout_base_us t =
  non_negative "timeout_base_us" timeout_base_us;
  { t with timeout_base_us }

let with_timeout_per_hop_us timeout_per_hop_us t =
  non_negative "timeout_per_hop_us" timeout_per_hop_us;
  { t with timeout_per_hop_us }

let with_suspicion_decay suspicion_decay t =
  non_negative "suspicion_decay" suspicion_decay;
  { t with suspicion_decay }

let with_domains domains t =
  if domains < 1 || domains > 128 then invalid_arg "Config: domains outside [1, 128]";
  { t with domains }

let with_backend backend t = { t with backend }

let pool t = if t.domains = 1 then None else Some (Sdn_parallel.pool ~domains:t.domains)

let serialization_us t ~packets =
  let bytes = packets * t.probe_size_bytes in
  int_of_float (1e6 *. float_of_int bytes /. float_of_int t.send_rate_bytes_per_s)

let probe_timeout_us t ~hops = t.timeout_base_us + (hops * t.timeout_per_hop_us)

let backoff_cap_us = 10_000_000

let backoff_us t ~attempt =
  if attempt < 1 then invalid_arg "Config.backoff_us: attempt < 1";
  let rec scale acc n =
    if n = 0 || acc >= backoff_cap_us then acc else scale (acc * t.backoff_factor) (n - 1)
  in
  min backoff_cap_us (scale t.retry_backoff_us (attempt - 1))
