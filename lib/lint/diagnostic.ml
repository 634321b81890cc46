module Hs = Hspace.Hs

type severity = Error | Warning | Info

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

type t = {
  check : string;
  severity : severity;
  switch : int option;
  table : int option;
  entries : int list;
  witness : Hs.t;
  message : string;
}

let make ~check ~severity ?switch ?table ?(entries = []) ~witness message =
  { check; severity; switch; table; entries; witness; message }

let compare a b =
  match Stdlib.compare (severity_rank a.severity) (severity_rank b.severity) with
  | 0 -> (
      match String.compare a.check b.check with
      | 0 -> Stdlib.compare (a.switch, a.table, a.entries) (b.switch, b.table, b.entries)
      | c -> c)
  | c -> c

let pp fmt d =
  Format.fprintf fmt "%s[%s]" (severity_to_string d.severity) d.check;
  (match d.switch with
  | Some sw -> (
      Format.fprintf fmt " sw%d" sw;
      match d.table with Some tb -> Format.fprintf fmt "/t%d" tb | None -> ())
  | None -> ());
  Format.fprintf fmt ": %s" d.message;
  if not (Hs.is_empty d.witness) then Format.fprintf fmt " [witness %a]" Hs.pp d.witness

let to_json d =
  let module J = Sdn_util.Json in
  let opt_int key = function Some n -> [ (key, J.Int n) ] | None -> [] in
  J.Obj
    ([ ("check", J.Str d.check); ("severity", J.Str (severity_to_string d.severity)) ]
    @ opt_int "switch" d.switch
    @ opt_int "table" d.table
    @ [
        ("entries", J.List (List.map (fun id -> J.Int id) d.entries));
        ( "witness",
          J.List
            (List.map (fun cube -> J.Str (Hspace.Cube.to_string cube)) (Hs.cubes d.witness))
        );
        ("message", J.Str d.message);
      ])
