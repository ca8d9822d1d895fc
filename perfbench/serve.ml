(* The [serve] workload: an [alice serve] process with a disk-backed
   cache, filled cold during set-up, then driven warm by closed-loop
   connections from this process. *)

module A = Alice
module B = Alice_benchmarks.Suite
module C = Alice_config
module J = C.Json_lite
module P = Alice_server.Protocol
module Client = Alice_server.Client

type kind = Redact of Flows.job | Advise | Ping

type req = { name : string; kind : kind; line : string }

(* The fields [Suite.config1]/[config2] set, as a wire config object;
   every other knob keeps its default on the server. *)
let config_json (c : C.Flow_config.t) =
  J.Obj
    [ ("max_io_pins", J.Int c.C.Flow_config.max_io_pins);
      ("max_efpgas", J.Int c.C.Flow_config.max_efpgas);
      ( "top",
        match c.C.Flow_config.top with Some t -> J.String t | None -> J.Null );
      ( "selected_outputs",
        J.List (List.map (fun s -> J.String s) c.C.Flow_config.selected_outputs)
      );
      ( "fabric",
        J.Obj
          [ ("min_size", J.Int c.C.Flow_config.min_fabric_size);
            ("max_size", J.Int c.C.Flow_config.max_fabric_size);
            ("target_utilization", J.Float c.C.Flow_config.target_utilization);
            ("min_clb_utilization", J.Float c.C.Flow_config.min_clb_utilization)
          ] ) ]

let gcd = Option.get (B.find "GCD")

(* the 4-candidate grid of the advisor's GCD example *)
let advise_constraints =
  J.Obj
    [ ( "axes",
        J.Obj
          [ ("lut_inputs", J.List [ J.Int 4; J.Int 6 ]);
            ("max_fabric_size", J.List [ J.Int 8; J.Int 12 ]) ] ) ]

let advise_base = config_json (B.config1 gcd)

(* The Table 2 pairs of the [table2] workload, plus the SoC, the advisor
   on GCD, and ping. IIR/cfg1 is left out: it has no feasible redaction,
   which the server answers with an E0801 error response. *)
let request_types ~jobs =
  let redacts =
    List.filter
      (fun (j : Flows.job) -> j.Flows.key <> "table2/IIR/cfg1")
      (Flows.table2_jobs ~jobs)
    @ [ Flows.make ~workload:"serve" ~jobs B.soc "cfg1" (B.config1 B.soc) ]
  in
  List.map
    (fun (j : Flows.job) ->
      { name = Printf.sprintf "redact/%s/%s" j.Flows.bench.B.name j.Flows.cfg_name;
        kind = Redact j;
        line =
          P.redact_request ~config:(config_json j.Flows.config)
            (P.Inline j.Flows.bench.B.source) })
    redacts
  @ [ { name = "advise/GCD"; kind = Advise;
        line =
          P.advise_request ~base:advise_base ~constraints:advise_constraints
            ~stream:true (P.Inline gcd.B.source) };
      { name = "ping"; kind = Ping; line = P.ping_request () } ]

(* One pass of the closed loop: a fixed multiset of requests, so every
   pass does the same work; only its order comes from the seed. The
   proportions are a guess (no traffic log exists). *)
let pass_mix types =
  List.concat_map
    (fun r ->
      let n = match r.kind with Redact _ -> 4 | Advise -> 4 | Ping -> 10 in
      List.init n (fun _ -> r))
    types

(* Responses minus the fields that carry wall-clock readings: the
   redact [times] object and ping's [uptime_s]. *)
let strip_timing (resp : string) =
  let cut s ~key ~value_end =
    match Util.find_sub s key with
    | None -> s
    | Some i ->
      let j = value_end s (i + String.length key) in
      (* drop one neighbouring comma with the field *)
      let i, j =
        if i > 0 && s.[i - 1] = ',' then (i - 1, j)
        else if j < String.length s && s.[j] = ',' then (i, j + 1)
        else (i, j)
      in
      String.sub s 0 i ^ String.sub s j (String.length s - j)
  in
  let after_object s k = String.index_from s k '}' + 1 in
  let after_number s k =
    let rec go k = if s.[k] = ',' || s.[k] = '}' then k else go (k + 1) in
    go k
  in
  let s = cut resp ~key:"\"times\":{" ~value_end:after_object in
  cut s ~key:"\"uptime_s\":" ~value_end:after_number

let digest r resp = Util.md5 (r.name ^ "\n" ^ strip_timing resp)

let send conn r =
  match r.kind with
  | Advise ->
    let rows = Buffer.create 1024 in
    let fin =
      Client.rpc_stream conn
        ~on_event:(fun l -> Buffer.add_string rows l; Buffer.add_char rows '\n')
        r.line
    in
    Buffer.contents rows ^ fin
  | Redact _ | Ping -> Client.rpc conn r.line

(* ---- the server process ---- *)

type server = { pid : int; socket : string; cache_dir : string }

let live : server list ref = ref []

let stop_server s =
  if List.memq s !live then begin
    live := List.filter (fun x -> x != s) !live;
    (try ignore (Client.one_shot ~socket:s.socket (P.shutdown_request ()))
     with _ -> ( try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ()));
    match Unix.waitpid [] s.pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith "alice serve did not exit cleanly"
  end

(* Kill every server still running; the exit path of a failed run. *)
let kill_all () =
  List.iter
    (fun s ->
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] s.pid))
    !live;
  live := []

let spawn ~alice ~jobs ~dir =
  Util.mkdir_p dir;
  let socket = Filename.concat dir "s.sock" in
  let cache_dir = Filename.concat dir "cache" in
  let log =
    Unix.openfile (Filename.concat dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process alice
      [| alice; "serve"; "--socket"; socket; "--cache-dir"; cache_dir;
         "--jobs"; string_of_int jobs; "--max-in-flight"; "3";
         "--max-queue"; "4" |]
      Unix.stdin log log
  in
  Unix.close log;
  let s = { pid; socket; cache_dir } in
  live := s :: !live;
  let deadline = Util.now () +. 60.0 in
  let rec wait_up () =
    match Client.one_shot ~socket (P.ping_request ()) with
    | _ -> ()
    | exception Client.Connection_error _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (fun x -> x != s) !live;
        failwith "alice serve exited during start-up");
      if Util.now () > deadline then failwith "alice serve did not come up";
      Unix.sleepf 0.01;
      wait_up ()
  in
  wait_up ();
  s

(* Set-up: spawn a server on an empty cache and fill it cold with one
   request of every type. *)
let setup ~alice ~jobs ~dir types =
  let s = spawn ~alice ~jobs ~dir in
  let conn = Client.connect ~socket:s.socket () in
  Fun.protect
    ~finally:(fun () -> Client.close conn)
    (fun () ->
      List.iter
        (fun r ->
          let resp = send conn r in
          if not (Util.contains resp "\"ok\":true") then
            failwith (r.name ^ ": cold fill failed: " ^ resp))
        types);
  s

(* ---- the closed-loop load ---- *)

type load = {
  latencies : (string * float) list;  (* request type, seconds *)
  passes : float list;  (* wall seconds per pass *)
  completed : int;
  failures : string list;
}

let run_load ~socket ~conns ~rng ~seconds ~expected types : load =
  let mix = pass_mix types in
  let mu = Mutex.create () in
  let latencies = ref [] and failures = ref [] and completed = ref 0 in
  let record r dt resp =
    let problem =
      match resp with
      | Error e -> Some (r.name ^ ": " ^ e)
      | Ok resp ->
        Expected.check expected ~key:("serve/" ^ r.name) ~got:(digest r resp)
    in
    Mutex.protect mu (fun () ->
        incr completed;
        latencies := (r.name, dt) :: !latencies;
        Option.iter (fun p -> failures := p :: !failures) problem)
  in
  let connections = Array.init conns (fun _ -> ref (Client.connect ~socket ())) in
  let passes = ref [] in
  let t_start = Util.now () in
  while !passes = [] || Util.now () -. t_start < seconds do
    let order = Array.of_list (Util.shuffle rng mix) in
    let next = Atomic.make 0 in
    let worker conn =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < Array.length order then begin
          let r = order.(i) in
          let t0 = Util.now () in
          let resp =
            match send !conn r with
            | resp -> Ok resp
            | exception Client.Connection_error e ->
              (try conn := Client.connect ~socket () with _ -> ());
              Error e
          in
          record r (Util.now () -. t0) resp;
          loop ()
        end
      in
      loop ()
    in
    let p0 = Util.now () in
    let threads = Array.map (fun c -> Thread.create worker c) connections in
    Array.iter Thread.join threads;
    passes := (Util.now () -. p0) :: !passes
  done;
  Array.iter (fun c -> Client.close !c) connections;
  { latencies = !latencies; passes = List.rev !passes; completed = !completed;
    failures = !failures }

(* The server's own view, from its [stats] op. *)
type server_stats = { service_p50_ms : float; refused : int; crashed : int }

let server_stats socket =
  let resp = J.parse (Client.one_shot ~socket (P.stats_request ())) in
  let obj key j = Option.value (J.find j key) ~default:J.Null in
  let latency = obj "latency" resp in
  { service_p50_ms = J.get_float ~default:0.0 latency "p50_ms";
    refused =
      J.get_int ~default:0 (obj "rejected" resp) "busy"
      + J.get_int ~default:0 (obj "rejected" resp) "draining";
    crashed = J.get_int ~default:0 (obj "workers" resp) "crashed" }

(* ---- in-process replay: the layers behind each request type ---- *)

let flow_source text = A.Flow.Text { text; file = None }

let advise_plan ~jobs =
  let base =
    { (C.Flow_config.of_yaml (J.to_yaml advise_base)) with
      C.Flow_config.jobs }
  in
  A.Advisor.plan_of_source ~base ~constraints:(J.to_yaml advise_constraints)
    (flow_source gcd.B.source)

(* One replay pass over every request type, on an engine over the store
   the server filled. [responses] holds one captured wire response per
   type, for the decode side of the wire. Returns output problems. *)
let replay_pass ~cache_dir ~jobs ~expected ~responses types : string list =
  let engine = A.Engine.create ~cache_dir () in
  let plan = advise_plan ~jobs in
  let points =
    List.map
      (fun (name, cfg) ->
        (name, A.Flow.request ~config:cfg (flow_source gcd.B.source)))
      plan.A.Advisor.pl_grid
  in
  let request (j : Flows.job) =
    A.Flow.request ~config:j.Flows.config (flow_source j.Flows.bench.B.source)
  in
  (* warm the engine's memo from disk, outside any span *)
  List.iter
    (fun r ->
      match r.kind with
      | Redact j -> ignore (A.Engine.run engine (request j))
      | Advise | Ping -> ())
    types;
  let errs = ref [] in
  List.iter
    (fun r ->
      Trace.set_job r.name;
      ignore
        (Trace.span "wire.encode" (fun () ->
             match r.kind with
             | Redact j ->
               P.redact_request ~config:(config_json j.Flows.config)
                 (P.Inline j.Flows.bench.B.source)
             | Advise ->
               P.advise_request ~base:advise_base
                 ~constraints:advise_constraints ~stream:true
                 (P.Inline gcd.B.source)
             | Ping -> P.ping_request ()));
      (match r.kind with
      | Redact j ->
        let flow, red =
          Flows.traced_flow ~cache:(A.Engine.cache engine) ~key:r.name
            j.Flows.config j.Flows.bench.B.source
        in
        Flows.count_implemented j.Flows.config flow;
        errs := Flows.check expected j flow red @ !errs;
        ignore
          (Trace.span "engine.warm_run" (fun () -> A.Engine.run engine (request j)))
      | Advise ->
        let resumed =
          Trace.span "disk_cache.resume" (fun () ->
              A.Engine.run_sweep engine points)
        in
        let n = List.length (List.filter (fun sp -> sp.A.Engine.sp_resumed) resumed) in
        Trace.count "disk_cache.resumed" (float n);
        if n <> List.length points then
          errs := "advise: not every candidate resumed from its checkpoint" :: !errs;
        ignore (Trace.span "advisor.rank" (fun () -> A.Advisor.rank plan resumed))
      | Ping -> ());
      match List.assoc_opt r.name responses with
      | None -> ()
      | Some resp ->
        Trace.count "wire.response_bytes" (float (String.length resp));
        Trace.span "wire.decode" (fun () ->
            String.split_on_char '\n' resp
            |> List.iter (fun line -> if line <> "" then ignore (J.parse line))))
    types;
  Option.iter
    (fun (d : A.Disk_cache.stats) ->
      Trace.count "disk_cache.disk_hits" (float d.A.Disk_cache.disk_hits))
    (A.Engine.disk_stats engine);
  !errs
