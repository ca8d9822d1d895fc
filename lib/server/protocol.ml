(** Wire protocol for `alice serve` (see the interface for the request
    and response shapes). Parsing is strict about structure — unknown
    operations and version mismatches are rejected up front with
    structured errors — but lenient about extra fields, so clients may
    decorate requests freely. *)

module J = Alice_config.Json_lite
module Y = Alice_config.Yaml_lite
module D = Alice_diag.Diag

let version = 1

type source = Inline of string | Path of string

type op =
  | Ping
  | Stats
  | Shutdown
  | Redact of { source : source; config : Y.t; view : Alice.Redact.view }
  | Characterize of { source : source; config : Y.t }
  | Sweep of
      { source : source; base : Y.t; entries : Y.t list; stream : bool }
  | Advise of
      { source : source; base : Y.t; constraints : Y.t; stream : bool }
  | CacheGc of { max_bytes : int option }

type request = { id : J.t; minor : int; op : op }

exception Bad_request of { kind : string; diag : D.t }

let bad_request ~kind ~code fmt =
  Format.kasprintf
    (fun m ->
      raise (Bad_request { kind; diag = D.error ~code "%s" m }))
    fmt

type lane = Cheap | Heavy

(* ---------- request fields ---------- *)

let parse_source (j : J.t) : source =
  match (J.find j "source", J.find j "file") with
  | Some (J.String text), None -> Inline text
  | None, Some (J.String path) -> Path path
  | Some _, Some _ ->
    bad_request ~kind:"unknown_op" ~code:"E1002"
      "request carries both `source` and `file`; give exactly one"
  | _ ->
    bad_request ~kind:"unknown_op" ~code:"E1002"
      "request needs a `source` (inline Verilog text) or `file` (server-side \
       path) field"

(* an optional object field, as YAML; [what] ends "`key` must be ..." *)
let parse_object ?(what = "an object of flow-configuration keys") (j : J.t)
    (key : string) : Y.t =
  match J.find j key with
  | None | Some J.Null -> Y.Null
  | Some (J.Obj _ as o) -> J.to_yaml o
  | Some _ ->
    bad_request ~kind:"unknown_op" ~code:"E1002" "`%s` must be %s" key what

let parse_stream (j : J.t) : bool =
  match J.find j "stream" with
  | None | Some J.Null | Some (J.Bool false) -> false
  | Some (J.Bool true) -> true
  | Some _ ->
    bad_request ~kind:"unknown_op" ~code:"E1002" "`stream` must be a boolean"

let parse_view (j : J.t) : Alice.Redact.view =
  match J.find j "view" with
  | None | Some J.Null -> Alice.Redact.Programmed
  | Some (J.String "programmed") -> Alice.Redact.Programmed
  | Some (J.String "opaque") -> Alice.Redact.Opaque
  | Some (J.String "structural") -> Alice.Redact.Structural
  | Some _ ->
    bad_request ~kind:"unknown_op" ~code:"E1002"
      "`view` must be \"programmed\", \"opaque\" or \"structural\""

let parse_redact (j : J.t) : op =
  Redact
    { source = parse_source j; config = parse_object j "config";
      view = parse_view j }

let parse_characterize (j : J.t) : op =
  Characterize { source = parse_source j; config = parse_object j "config" }

let parse_sweep (j : J.t) : op =
  let base = parse_object j "base" in
  let entries =
    match J.find j "sweep" with
    | Some (J.List (_ :: _ as items)) ->
      List.map
        (function
          | J.Obj _ as e -> J.to_yaml e
          | _ ->
            bad_request ~kind:"unknown_op" ~code:"E1002"
              "`sweep` entries must be objects")
        items
    | _ ->
      bad_request ~kind:"unknown_op" ~code:"E1002"
        "sweep request needs a non-empty `sweep` list of configuration \
         overlays"
  in
  Sweep { source = parse_source j; base; entries; stream = parse_stream j }

let parse_advise (j : J.t) : op =
  let constraints =
    parse_object j "constraints"
      ~what:"an object (optionally carrying an `axes` map of grid axes)"
  in
  Advise
    { source = parse_source j; base = parse_object j "base"; constraints;
      stream = parse_stream j }

let parse_cache_gc (j : J.t) : op =
  CacheGc
    { max_bytes =
        (match J.find j "max_bytes" with
        | None | Some J.Null -> None
        | Some (J.Int n) when n >= 0 -> Some n
        | Some _ ->
          bad_request ~kind:"unknown_op" ~code:"E1002"
            "`max_bytes` must be a non-negative integer") }

(* ---------- the op table ---------- *)

(* Every per-op wire decision: the name, the admission lane, the minor
   its streaming form arrived in (none: it never streams), and how its
   request fields parse. *)
type spec = {
  name : string;
  lane : lane;
  stream_minor : int option;
  parse : J.t -> op;
}

let spec ?stream_minor name lane parse = { name; lane; stream_minor; parse }

let ping = spec "ping" Cheap (fun _ -> Ping)
let stats = spec "stats" Cheap (fun _ -> Stats)
let shutdown = spec "shutdown" Cheap (fun _ -> Shutdown)
let redact = spec "redact" Heavy parse_redact
let characterize = spec "characterize" Heavy parse_characterize
let sweep = spec "sweep" Heavy ~stream_minor:1 parse_sweep
let advise = spec "advise" Heavy ~stream_minor:4 parse_advise
let cache_gc = spec "cache-gc" Cheap parse_cache_gc

let specs =
  [ ping; stats; shutdown; redact; characterize; sweep; advise; cache_gc ]

let spec_of_op = function
  | Ping -> ping
  | Stats -> stats
  | Shutdown -> shutdown
  | Redact _ -> redact
  | Characterize _ -> characterize
  | Sweep _ -> sweep
  | Advise _ -> advise
  | CacheGc _ -> cache_gc

let spec_of_name name = List.find_opt (fun s -> String.equal s.name name) specs

let op_name op = (spec_of_op op).name

(* the response fields added after minor 0, each by the minor it
   arrived in *)
type gate = Attack_counts | Attack_reuse | Row_metrics

let gate_minor = function
  | Attack_counts -> 2
  | Attack_reuse -> 3
  | Row_metrics -> 4

(* the server's minor: the newest entry of the two tables *)
let minor =
  List.fold_left max 0
    (List.map gate_minor [ Attack_counts; Attack_reuse; Row_metrics ]
    @ List.filter_map (fun s -> s.stream_minor) specs)

let carries (req : request) (g : gate) = req.minor >= gate_minor g

let streams (req : request) =
  match (req.op, (spec_of_op req.op).stream_minor) with
  | (Sweep { stream; _ } | Advise { stream; _ }), Some m ->
    stream && req.minor >= m
  | _ -> false

(* Deliberately lenient — this runs on the acceptor against bytes it
   has only peeked at: anything that is not recognizably a heavy
   operation (including garbage, which a worker answers with a fast
   structured error) goes to the cheap lane. *)
let lane_of_line (line : string) : lane =
  match J.parse line with
  | exception _ -> Cheap
  | j -> (
    match J.find j "op" with
    | Some (J.String name) -> (
      match spec_of_name name with Some s -> s.lane | None -> Cheap)
    | _ -> Cheap)

(* ---------- request parsing ---------- *)

let parse_request (line : string) : request =
  let j =
    try J.parse line
    with J.Parse_error (_, msg) ->
      bad_request ~kind:"bad_request" ~code:"E1000" "malformed request: %s" msg
  in
  (match j with
  | J.Obj _ -> ()
  | _ ->
    bad_request ~kind:"bad_request" ~code:"E1000"
      "request must be a JSON object");
  (match J.find j "v" with
  | Some (J.Int v) when v = version -> ()
  | Some (J.Int v) ->
    bad_request ~kind:"unsupported_version" ~code:"E1001"
      "unsupported protocol version %d (this server speaks %d)" v version
  | _ ->
    bad_request ~kind:"unsupported_version" ~code:"E1001"
      "request carries no integer `v` protocol-version field");
  let req_minor =
    (* the minor version is additive: absent means the oldest client
       of this major, and anything newer than us only unlocks features
       we don't have, so it is capped rather than rejected *)
    match J.find j "mv" with
    | None | Some J.Null -> 0
    | Some (J.Int m) when m >= 0 -> min m minor
    | Some _ ->
      bad_request ~kind:"unsupported_version" ~code:"E1001"
        "`mv` must be a non-negative integer minor version"
  in
  let id = Option.value (J.find j "id") ~default:J.Null in
  let op =
    match J.find j "op" with
    | Some (J.String name) -> (
      match spec_of_name name with
      | Some s -> s.parse j
      | None ->
        bad_request ~kind:"unknown_op" ~code:"E1002"
          "unknown operation %S (have: %s)" name
          (String.concat ", " (List.map (fun s -> s.name) specs)))
    | _ ->
      bad_request ~kind:"unknown_op" ~code:"E1002"
        "request carries no string `op` field"
  in
  { id; minor = req_minor; op }

(* ---------- response building ---------- *)

let json_of_diag (d : D.t) : J.t =
  let base =
    [ ("severity", J.String (D.severity_to_string d.D.severity));
      ("code", J.String d.D.code);
      ("message", J.String d.D.message) ]
  in
  let loc =
    match d.D.loc with
    | None -> []
    | Some l ->
      [ ("loc",
         J.Obj
           [ ("file", J.String l.Alice_verilog.Loc.file);
             ("line", J.Int l.Alice_verilog.Loc.line);
             ("col", J.Int l.Alice_verilog.Loc.col) ]) ]
  in
  let context =
    match d.D.context with
    | [] -> []
    | kvs ->
      [ ("context", J.Obj (List.map (fun (k, v) -> (k, J.String v)) kvs)) ]
  in
  J.Obj (base @ loc @ context)

let base_fields ~(id : J.t) =
  let id = match id with J.Null -> [] | id -> [ ("id", id) ] in
  ("v", J.Int version) :: ("mv", J.Int minor) :: id

let ok_response ~(id : J.t) ~(op : string) (fields : (string * J.t) list) :
    string =
  J.to_string
    (J.Obj
       (base_fields ~id
       @ [ ("ok", J.Bool true); ("op", J.String op) ]
       @ fields))

let event_response ~(id : J.t) ~(op : string) ~(event : string)
    (fields : (string * J.t) list) : string =
  ok_response ~id ~op (("event", J.String event) :: fields)

let error_response ~(id : J.t) ~(kind : string) ?(op : string option)
    ?(diags : D.t list option) (diag : D.t) : string =
  let op = match op with None -> [] | Some o -> [ ("op", J.String o) ] in
  let diags =
    match diags with
    | None | Some [] -> []
    | Some ds -> [ ("diags", J.List (List.map json_of_diag ds)) ]
  in
  J.to_string
    (J.Obj
       (base_fields ~id
       @ [ ("ok", J.Bool false) ]
       @ op
       @ [ ("error",
            J.Obj
              [ ("kind", J.String kind);
                ("code", J.String diag.D.code);
                ("message", J.String diag.D.message) ]) ]
       @ diags))

(* ---------- request building (client side) ---------- *)

let request ?(id = J.Null) (s : spec) (fields : (string * J.t) list) : string =
  J.to_string (J.Obj (base_fields ~id @ (("op", J.String s.name) :: fields)))

(* optional request fields: left out when null or false *)
let opt key = function J.Null -> [] | v -> [ (key, v) ]

let flag key b = if b then [ (key, J.Bool true) ] else []

let ping_request ?id () = request ?id ping []

let stats_request ?id () = request ?id stats []

let shutdown_request ?id () = request ?id shutdown []

let cache_gc_request ?id ?max_bytes () =
  request ?id cache_gc
    (match max_bytes with None -> [] | Some n -> [ ("max_bytes", J.Int n) ])

let source_field (source : source) =
  match source with
  | Inline text -> ("source", J.String text)
  | Path p -> ("file", J.String p)

let redact_request ?id ?(config = J.Null) ?(view : string option)
    (source : source) : string =
  request ?id redact
    ((source_field source :: opt "config" config)
    @ match view with None -> [] | Some v -> [ ("view", J.String v) ])

let sweep_request ?id ?(base = J.Null) ?(stream = false)
    ~(entries : J.t list) (source : source) : string =
  request ?id sweep
    ((source_field source :: opt "base" base)
    @ (("sweep", J.List entries) :: flag "stream" stream))

let advise_request ?id ?(base = J.Null) ?(constraints = J.Null)
    ?(stream = false) (source : source) : string =
  request ?id advise
    ((source_field source :: opt "base" base)
    @ opt "constraints" constraints @ flag "stream" stream)
