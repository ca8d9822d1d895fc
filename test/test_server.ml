(* The redaction service: the Json_lite codec, the endpoint grammar,
   the NDJSON protocol (priority lanes, minor-version negotiation), the
   metrics registry, and in-process end-to-end passes over live servers
   on both transports — ping, byte-identical redaction, warm-cache
   stats, admission control, cheap-lane starvation resistance,
   streaming sweeps, and a clean drain. *)

module A = Alice
module C = Alice_config
module D = Alice_diag.Diag
module J = Alice_config.Json_lite
module Y = Alice_config.Yaml_lite
module S = Alice_server

(* ---------- Json_lite ---------- *)

let test_json_parse () =
  let t =
    J.parse
      {| {"a": 1, "b": [true, null, -2.5], "s": "x\nyé😀", "o": {"k": "v"}} |}
  in
  Alcotest.(check int) "int" 1 (J.get_int t "a");
  (match J.find t "b" with
  | Some (J.List [ J.Bool true; J.Null; J.Float f ]) ->
    Alcotest.(check (float 1e-9)) "float elem" (-2.5) f
  | _ -> Alcotest.fail "array shape");
  (* é is two UTF-8 bytes, the surrogate pair four *)
  Alcotest.(check string) "escapes" "x\ny\xc3\xa9\xf0\x9f\x98\x80"
    (J.get_string t "s");
  (match J.find t "o" with
  | Some o -> Alcotest.(check string) "nested" "v" (J.get_string o "k")
  | None -> Alcotest.fail "nested object");
  Alcotest.(check bool) "default" true (J.get_bool ~default:true t "missing")

let test_json_round_trip () =
  let doc =
    J.Obj
      [ ("v", J.Int 1); ("t", J.Bool true); ("n", J.Null);
        ("f", J.Float 0.25); ("s", J.String "a\"b\\c\n\t");
        ("l", J.List [ J.Int 0; J.String "x" ]) ]
  in
  let s = J.to_string doc in
  Alcotest.(check bool) "single line" false (String.contains s '\n');
  Alcotest.(check bool) "round trip" true (J.parse s = doc)

let test_json_errors () =
  let bad s =
    match J.parse s with
    | exception J.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted %S" s
  in
  bad "";
  bad "{";
  bad "{\"a\":}";
  bad "[1,]";
  bad "tru";
  bad "\"unterminated";
  bad "{} trailing";
  bad "{\"a\":1} {\"b\":2}"

let test_json_yaml_bridge () =
  let j = J.parse {| {"max_efpgas": 2, "selected_outputs": ["a", "b"]} |} in
  let y = J.to_yaml j in
  Alcotest.(check int) "int through" 2 (Y.get_int y "max_efpgas");
  Alcotest.(check (list string)) "list through" [ "a"; "b" ]
    (Y.get_string_list y "selected_outputs");
  Alcotest.(check bool) "inverse" true (J.of_yaml y = j)

(* ---------- Endpoint grammar ---------- *)

let test_endpoint_parse () =
  (match S.Endpoint.parse "unix:/run/alice.sock" with
  | S.Endpoint.Unix_path p -> Alcotest.(check string) "unix" "/run/alice.sock" p
  | _ -> Alcotest.fail "unix form");
  (* bare paths keep meaning unix sockets *)
  (match S.Endpoint.parse "/tmp/a.sock" with
  | S.Endpoint.Unix_path p -> Alcotest.(check string) "bare" "/tmp/a.sock" p
  | _ -> Alcotest.fail "bare form");
  (match S.Endpoint.parse "tcp:127.0.0.1:9000" with
  | S.Endpoint.Tcp { host; port } ->
    Alcotest.(check string) "host" "127.0.0.1" host;
    Alcotest.(check int) "port" 9000 port
  | _ -> Alcotest.fail "tcp form");
  (* to_string is canonical: always prefixed, parse round-trips *)
  Alcotest.(check string) "canonical unix" "unix:/tmp/a.sock"
    (S.Endpoint.to_string (S.Endpoint.parse "/tmp/a.sock"));
  Alcotest.(check string) "canonical tcp" "tcp:localhost:0"
    (S.Endpoint.to_string (S.Endpoint.parse "tcp:localhost:0"));
  let bad s =
    match S.Endpoint.parse s with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "accepted %S" s
  in
  bad "tcp:localhost";
  bad "tcp::9000";
  bad "tcp:host:notaport";
  bad "tcp:host:70000";
  bad "tcp:host:-1"

(* ---------- Protocol ---------- *)

let test_protocol_parse () =
  let r = S.Protocol.parse_request {|{"v":1,"id":"r1","op":"ping"}|} in
  Alcotest.(check string) "id" "r1"
    (match r.S.Protocol.id with J.String s -> s | _ -> "?");
  Alcotest.(check string) "op" "ping" (S.Protocol.op_name r.S.Protocol.op);
  (* no mv field means the oldest client of this major *)
  Alcotest.(check int) "implicit minor" 0 r.S.Protocol.minor;
  let r =
    S.Protocol.parse_request
      {|{"v":1,"op":"redact","source":"module m; endmodule","view":"opaque","config":{"max_efpgas":1}}|}
  in
  (match r.S.Protocol.op with
  | S.Protocol.Redact { source = S.Protocol.Inline src; config; view } ->
    Alcotest.(check string) "inline source" "module m; endmodule" src;
    Alcotest.(check int) "config key" 1 (Y.get_int config "max_efpgas");
    Alcotest.(check bool) "view" true (view = A.Redact.Opaque)
  | _ -> Alcotest.fail "redact shape");
  match
    S.Protocol.parse_request
      {|{"v":1,"mv":7,"op":"sweep","file":"d.v","sweep":[{"name":"a"},{"name":"b"}],"stream":true}|}
  with
  | { S.Protocol.minor;
      op = S.Protocol.Sweep { source = S.Protocol.Path p; entries; stream; _ };
      _ } ->
    Alcotest.(check string) "path" "d.v" p;
    Alcotest.(check int) "entries" 2 (List.length entries);
    Alcotest.(check bool) "stream flag" true stream;
    (* a client from the future is capped to what we speak, not refused *)
    Alcotest.(check int) "minor capped" S.Protocol.minor minor
  | _ -> Alcotest.fail "sweep shape"

let test_protocol_advise_parse () =
  (match
     S.Protocol.parse_request
       {|{"v":1,"mv":4,"op":"advise","file":"d.v","base":{"top":"gcd"},"constraints":{"axes":{"lut_inputs":[4,6]}},"stream":true}|}
   with
  | { S.Protocol.minor;
      op =
        S.Protocol.Advise
          { source = S.Protocol.Path p; base; constraints; stream };
      _ } ->
    Alcotest.(check string) "path" "d.v" p;
    Alcotest.(check string) "base through" "gcd" (Y.get_string base "top");
    Alcotest.(check bool) "constraints carry axes" true
      (Y.find constraints "axes" <> None);
    Alcotest.(check bool) "stream flag" true stream;
    Alcotest.(check int) "minor 4" 4 minor
  | _ -> Alcotest.fail "advise shape");
  (* constraints default to empty, base to empty *)
  (match
     S.Protocol.parse_request {|{"v":1,"op":"advise","source":"module m; endmodule"}|}
   with
  | { S.Protocol.op = S.Protocol.Advise { base; constraints; stream; _ }; _ } ->
    Alcotest.(check bool) "null base" true (base = Y.Null);
    Alcotest.(check bool) "null constraints" true (constraints = Y.Null);
    Alcotest.(check bool) "buffered by default" false stream
  | _ -> Alcotest.fail "minimal advise shape");
  (* the client-side builder round-trips *)
  match
    S.Protocol.parse_request
      (S.Protocol.advise_request ~stream:true
         ~constraints:(J.Obj [ ("axes", J.Obj [ ("lut_inputs", J.Int 4) ]) ])
         (S.Protocol.Inline "module m; endmodule"))
  with
  | { S.Protocol.op = S.Protocol.Advise { stream = true; constraints; _ }; _ }
    ->
    Alcotest.(check bool) "builder constraints through" true
      (Y.find constraints "axes" <> None)
  | _ -> Alcotest.fail "builder round trip"

let check_bad line kind code =
  match S.Protocol.parse_request line with
  | exception S.Protocol.Bad_request { kind = k; diag } ->
    Alcotest.(check string) "kind" kind k;
    Alcotest.(check string) "code" code diag.D.code
  | _ -> Alcotest.failf "accepted %S" line

let test_protocol_rejects () =
  check_bad "not json" "bad_request" "E1000";
  check_bad {|{"op":"ping"}|} "unsupported_version" "E1001";
  check_bad {|{"v":99,"op":"ping"}|} "unsupported_version" "E1001";
  check_bad {|{"v":1,"mv":"new","op":"ping"}|} "unsupported_version" "E1001";
  check_bad {|{"v":1,"mv":-1,"op":"ping"}|} "unsupported_version" "E1001";
  check_bad {|{"v":1,"op":"teleport"}|} "unknown_op" "E1002";
  (* structurally invalid operations share the unknown-op category *)
  check_bad {|{"v":1,"op":"redact"}|} "unknown_op" "E1002";
  (* both source and file is ambiguous *)
  check_bad {|{"v":1,"op":"redact","source":"m","file":"f.v"}|} "unknown_op"
    "E1002";
  check_bad {|{"v":1,"op":"sweep","source":"m","sweep":[{}],"stream":1}|}
    "unknown_op" "E1002";
  check_bad {|{"v":1,"op":"advise","source":"m","constraints":[1]}|}
    "unknown_op" "E1002"

let test_protocol_lanes () =
  let lane = Alcotest.testable
      (fun fmt -> function
        | S.Protocol.Cheap -> Format.pp_print_string fmt "cheap"
        | S.Protocol.Heavy -> Format.pp_print_string fmt "heavy")
      ( = )
  in
  let check name want line =
    Alcotest.check lane name want (S.Protocol.lane_of_line line)
  in
  check "ping" S.Protocol.Cheap {|{"v":1,"op":"ping"}|};
  check "stats" S.Protocol.Cheap {|{"v":1,"op":"stats"}|};
  check "shutdown" S.Protocol.Cheap {|{"v":1,"op":"shutdown"}|};
  check "cache-gc" S.Protocol.Cheap {|{"v":1,"op":"cache-gc"}|};
  check "redact" S.Protocol.Heavy {|{"v":1,"op":"redact","source":"m"}|};
  check "characterize" S.Protocol.Heavy {|{"v":1,"op":"characterize"}|};
  check "sweep" S.Protocol.Heavy {|{"v":1,"op":"sweep"}|};
  check "advise" S.Protocol.Heavy {|{"v":1,"op":"advise"}|};
  (* garbage costs one error line: it must never wait behind a sweep *)
  check "garbage" S.Protocol.Cheap "not json at all";
  check "no op" S.Protocol.Cheap {|{"v":1}|};
  let r =
    S.Protocol.parse_request {|{"v":1,"op":"characterize","source":"m"}|}
  in
  Alcotest.check lane "lane_of_op" S.Protocol.Heavy
    (S.Protocol.lane_of_op r.S.Protocol.op)

let test_protocol_responses () =
  let ok =
    J.parse (S.Protocol.ok_response ~id:(J.String "x") ~op:"ping"
               [ ("uptime_s", J.Float 1.0) ])
  in
  Alcotest.(check bool) "ok" true (J.get_bool ok "ok");
  Alcotest.(check string) "id echoed" "x" (J.get_string ok "id");
  Alcotest.(check string) "op" "ping" (J.get_string ok "op");
  (* responses announce the server's feature level *)
  Alcotest.(check int) "mv announced" S.Protocol.minor (J.get_int ok "mv");
  let row =
    J.parse
      (S.Protocol.event_response ~id:J.Null ~op:"sweep" ~event:"row"
         [ ("name", J.String "a") ])
  in
  Alcotest.(check string) "event" "row" (J.get_string row "event");
  Alcotest.(check bool) "row is ok" true (J.get_bool row "ok");
  let diag = D.error ~code:"E1003" "server is at capacity" in
  let err =
    J.parse
      (S.Protocol.error_response ~id:J.Null ~kind:"busy" ~diags:[ diag ] diag)
  in
  Alcotest.(check bool) "not ok" false (J.get_bool err "ok");
  (match J.find err "error" with
  | Some e ->
    Alcotest.(check string) "kind" "busy" (J.get_string e "kind");
    Alcotest.(check string) "code" "E1003" (J.get_string e "code")
  | None -> Alcotest.fail "error object");
  match J.find err "diags" with
  | Some (J.List [ d ]) ->
    Alcotest.(check string) "diag code" "E1003" (J.get_string d "code")
  | _ -> Alcotest.fail "diags list"

(* ---------- Metrics ---------- *)

let test_metrics () =
  let m = S.Metrics.create () in
  S.Metrics.record_received m ~op:"redact";
  S.Metrics.record_completed m ~op:"redact" ~ok:true ~seconds:0.004;
  S.Metrics.record_received m ~op:"redact";
  S.Metrics.record_completed m ~op:"redact" ~ok:false ~seconds:0.1;
  S.Metrics.record_received m ~op:"ping";
  S.Metrics.record_completed m ~op:"ping" ~ok:true ~seconds:0.0005;
  S.Metrics.record_rejected_busy m;
  S.Metrics.record_cache_run m ~hits:3 ~computed:2 ~skipped:1;
  let s = S.Metrics.snapshot m in
  let redact = List.assoc "redact" s.S.Metrics.per_op in
  Alcotest.(check int) "received" 2 redact.S.Metrics.received;
  Alcotest.(check int) "succeeded" 1 redact.S.Metrics.succeeded;
  Alcotest.(check int) "failed" 1 redact.S.Metrics.failed;
  Alcotest.(check int) "completed" 3 s.S.Metrics.completed;
  Alcotest.(check int) "busy" 1 s.S.Metrics.rejected_busy;
  Alcotest.(check int) "cache hits" 3 s.S.Metrics.cache_hits;
  Alcotest.(check int) "cache computed" 2 s.S.Metrics.cache_computed;
  Alcotest.(check (float 1e-9)) "max" 0.1 s.S.Metrics.latency_max_s;
  (* histogram totals match, quantiles are monotone upper bounds *)
  Alcotest.(check int) "bucket mass" 3
    (Array.fold_left (fun acc (_, c) -> acc + c) 0 s.S.Metrics.latency_buckets);
  let p50 = S.Metrics.quantile s 0.5 and p95 = S.Metrics.quantile s 0.95 in
  Alcotest.(check bool) "p50 covers median" true (p50 >= 0.004);
  Alcotest.(check bool) "monotone" true (p95 >= p50);
  Alcotest.(check bool) "p95 covers max observation" true (p95 >= 0.1)

let test_metrics_quantile_clamp () =
  (* regression: a single 1.1 s request lands in the <=2.048 s log-2
     bucket, and the quantile used to report that bucket's upper bound —
     a p50 above the true maximum ever observed *)
  let m = S.Metrics.create () in
  S.Metrics.record_received m ~op:"redact";
  S.Metrics.record_completed m ~op:"redact" ~ok:true ~seconds:1.1;
  let s = S.Metrics.snapshot m in
  List.iter
    (fun q ->
      let v = S.Metrics.quantile s q in
      Alcotest.(check bool)
        (Printf.sprintf "q%.2f <= max" q)
        true
        (v <= s.S.Metrics.latency_max_s +. 1e-12))
    [ 0.5; 0.9; 0.95; 0.99; 1.0 ];
  Alcotest.(check (float 1e-9)) "single sample: p50 is the sample" 1.1
    (S.Metrics.quantile s 0.5)

(* ---------- Client retry schedule ---------- *)

let test_retry_delay_floor () =
  (* regression: base_delay_s = 0 collapsed the whole decorrelated-
     jitter schedule to zero — a hot retry loop against a server that
     refused us precisely because it is overloaded *)
  let policy =
    { S.Client.default_retry with
      S.Client.attempts = 6; base_delay_s = 0.0 }
  in
  let ds = S.Client.delays policy in
  Alcotest.(check int) "attempts - 1 delays" 5 (List.length ds);
  List.iter
    (fun d ->
      Alcotest.(check bool) "floored" true (d >= S.Client.min_base_delay_s))
    ds;
  (* deterministic in the seed *)
  Alcotest.(check (list (float 1e-12))) "same seed, same schedule" ds
    (S.Client.delays policy);
  Alcotest.(check bool) "different seed, different schedule" true
    (S.Client.delays { policy with S.Client.seed = 1 } <> ds)

(* ---------- end to end, in process ---------- *)

let demo_src =
  {|module f1 (input [7:0] a, output [7:0] y); assign y = a + 8'h1; endmodule
    module f2 (input [7:0] a, output [7:0] y); assign y = a ^ 8'h55; endmodule
    module f3 (input [7:0] a, output [7:0] y); assign y = {a[0], a[7:1]}; endmodule
    module top (input [7:0] x, output [7:0] out1, output [7:0] out2);
      wire [7:0] t;
      f1 u1 (.a(x), .y(t));
      f2 u2 (.a(t), .y(out1));
      f3 u3 (.a(x), .y(out2));
    endmodule|}

let base_yaml =
  Y.parse
    {|max_io_pins: 40
max_efpgas: 2
selected_outputs:
  - out1
  - out2
fabric:
  min_size: 2
  max_size: 12
jobs: 1|}

let tmp_socket () =
  let f = Filename.temp_file "alice_srv" ".sock" in
  Sys.remove f;
  f

(* start a server on [listen] (default: one fresh Unix socket) and hand
   the test the canonical string of its first effective endpoint — for
   tcp:HOST:0 this carries the kernel-chosen port *)
let with_server ?(max_in_flight = 2) ?(max_queue = 4) ?listen f =
  let listen =
    match listen with
    | Some l -> l
    | None -> [ S.Endpoint.Unix_path (tmp_socket ()) ]
  in
  let cfg =
    { (S.Server.default_config ~socket_path:"/unused") with
      S.Server.listen; max_in_flight; max_queue; base = base_yaml;
      idle_timeout_s = 20.0 }
  in
  let t = S.Server.start ~engine:(A.Engine.create ~cache:false ()) cfg in
  Fun.protect
    ~finally:(fun () ->
      S.Server.stop t;
      S.Server.wait t)
    (fun () ->
      f (S.Endpoint.to_string (List.hd (S.Server.endpoints t))) t)

let rpc socket line = S.Client.one_shot ~socket line

let reference_verilog () =
  let config = C.Flow_config.of_yaml base_yaml in
  let flow =
    A.Flow.run_request
      (A.Flow.request ~config (A.Flow.Text { text = demo_src; file = None }))
  in
  match A.Flow.redact flow with
  | Some r -> r.A.Redact.verilog
  | None -> Alcotest.fail "reference flow infeasible"

let test_server_ping_and_redact () =
  with_server (fun socket t ->
      let pong = J.parse (rpc socket (S.Protocol.ping_request ())) in
      Alcotest.(check bool) "pong ok" true (J.get_bool pong "ok");
      Alcotest.(check string) "pong op" "ping" (J.get_string pong "op");
      Alcotest.(check int) "pong minor" S.Protocol.minor
        (J.get_int pong "minor");
      (* the service must answer byte-for-byte what the library computes *)
      let reference = reference_verilog () in
      let ask () =
        let resp =
          J.parse
            (rpc socket
               (S.Protocol.redact_request ~id:(J.String "rq")
                  (S.Protocol.Inline demo_src)))
        in
        Alcotest.(check bool) "redact ok" true (J.get_bool resp "ok");
        Alcotest.(check string) "id echoed" "rq" (J.get_string resp "id");
        Alcotest.(check string) "byte-identical verilog" reference
          (J.get_string resp "verilog")
      in
      ask ();
      ask ();
      (* the second pass hit the shared engine: stats must say so *)
      let stats = J.parse (rpc socket (S.Protocol.stats_request ())) in
      Alcotest.(check bool) "stats ok" true (J.get_bool stats "ok");
      (match J.find stats "cache" with
      | Some cache ->
        Alcotest.(check bool) "warm hits" true (J.get_int cache "hits" > 0)
      | None -> Alcotest.fail "no cache block");
      (match J.find stats "requests" with
      | Some reqs -> (
        match J.find reqs "redact" with
        | Some r -> Alcotest.(check int) "redacts counted" 2
                      (J.get_int r "succeeded")
        | None -> Alcotest.fail "no redact counters")
      | None -> Alcotest.fail "no requests block");
      (* queue depths are reported per lane *)
      (match J.find stats "queued" with
      | Some q ->
        Alcotest.(check int) "cheap idle" 0 (J.get_int q "cheap");
        Alcotest.(check int) "heavy idle" 0 (J.get_int q "heavy")
      | None -> Alcotest.fail "no queued block");
      ignore (S.Server.metrics t))

let test_server_tcp_loopback () =
  (* the protocol is byte-identical over TCP: same redaction output as
     the library (and hence as the Unix-socket transport) *)
  with_server
    ~listen:[ S.Endpoint.Tcp { host = "127.0.0.1"; port = 0 } ]
    (fun socket t ->
      (match S.Server.endpoints t with
      | [ S.Endpoint.Tcp { port; _ } ] ->
        Alcotest.(check bool) "ephemeral port resolved" true (port > 0)
      | _ -> Alcotest.fail "expected one effective tcp endpoint");
      Alcotest.(check bool) "canonical form" true
        (String.length socket > 4 && String.sub socket 0 4 = "tcp:");
      let pong = J.parse (rpc socket (S.Protocol.ping_request ())) in
      Alcotest.(check bool) "pong over tcp" true (J.get_bool pong "ok");
      let resp =
        J.parse
          (rpc socket (S.Protocol.redact_request (S.Protocol.Inline demo_src)))
      in
      Alcotest.(check bool) "redact over tcp ok" true (J.get_bool resp "ok");
      Alcotest.(check string) "byte-identical verilog over tcp"
        (reference_verilog ()) (J.get_string resp "verilog"))

let test_server_error_paths () =
  with_server (fun socket _t ->
      let err = J.parse (rpc socket "this is not json") in
      Alcotest.(check bool) "malformed rejected" false (J.get_bool err "ok");
      (match J.find err "error" with
      | Some e -> Alcotest.(check string) "E1000" "E1000" (J.get_string e "code")
      | None -> Alcotest.fail "no error object");
      (* a parse-clean request over a missing file fails structurally,
         and the connection survives to serve the next request *)
      let conn = S.Client.connect ~socket () in
      Fun.protect ~finally:(fun () -> S.Client.close conn) (fun () ->
          let e =
            J.parse
              (S.Client.rpc conn
                 {|{"v":1,"op":"redact","file":"/nonexistent/x.v"}|})
          in
          Alcotest.(check bool) "missing file fails" false (J.get_bool e "ok");
          let pong = J.parse (S.Client.rpc conn (S.Protocol.ping_request ())) in
          Alcotest.(check bool) "connection survives" true
            (J.get_bool pong "ok"));
      (* a configuration key the flow does not know is a config error,
         not a silently ignored knob *)
      List.iter
        (fun config ->
          let e =
            J.parse
              (rpc socket
                 (S.Protocol.redact_request ~config:(J.parse config)
                    (S.Protocol.Inline demo_src)))
          in
          Alcotest.(check bool) (config ^ " rejected") false (J.get_bool e "ok");
          match J.find e "error" with
          | Some err ->
            Alcotest.(check string) (config ^ " E0602") "E0602"
              (J.get_string err "code")
          | None -> Alcotest.fail "no error object")
        [ {|{"solver_budget":1}|}; {|{"fabric":{"min_sz":3}}|} ])

let test_server_invalid_op_metrics () =
  (* regression: requests that fail to parse used to be invisible to
     the metrics — a misbehaving client spamming garbage left no trace
     in stats, which is exactly when the operator goes looking *)
  with_server (fun socket _t ->
      let err = J.parse (rpc socket "garbage that is not json") in
      Alcotest.(check bool) "rejected" false (J.get_bool err "ok");
      let err2 = J.parse (rpc socket {|{"v":1,"op":"teleport"}|}) in
      Alcotest.(check bool) "unknown op rejected" false (J.get_bool err2 "ok");
      let stats = J.parse (rpc socket (S.Protocol.stats_request ())) in
      match J.find stats "requests" with
      | Some reqs -> (
        match J.find reqs "invalid" with
        | Some inv ->
          Alcotest.(check int) "invalid received" 2 (J.get_int inv "received");
          Alcotest.(check int) "invalid failed" 2 (J.get_int inv "failed");
          Alcotest.(check int) "invalid succeeded" 0
            (J.get_int inv "succeeded")
        | None -> Alcotest.fail "malformed requests invisible to stats")
      | None -> Alcotest.fail "no requests block")

let test_server_busy_rejection () =
  with_server ~max_in_flight:1 ~max_queue:0 (fun socket _t ->
      (* pin the single worker: an open connection counts as active from
         admission until its line is served, so a half-sent request
         holds the slot deterministically *)
      let pin = S.Client.connect ~socket () in
      Fun.protect ~finally:(fun () -> S.Client.close pin) (fun () ->
          (* wait for the worker to pick the pinned connection up *)
          Unix.sleepf 0.2;
          let resp = J.parse (rpc socket (S.Protocol.ping_request ())) in
          Alcotest.(check bool) "refused" false (J.get_bool resp "ok");
          match J.find resp "error" with
          | Some e ->
            Alcotest.(check string) "busy kind" "busy" (J.get_string e "kind");
            Alcotest.(check string) "busy code" "E1003" (J.get_string e "code")
          | None -> Alcotest.fail "no error object");
      (* slot released: the server recovers *)
      let rec retry n =
        match J.parse (rpc socket (S.Protocol.ping_request ())) with
        | pong when J.get_bool pong "ok" -> ()
        | _ when n > 0 -> Unix.sleepf 0.1; retry (n - 1)
        | _ -> Alcotest.fail "server did not recover after busy"
        | exception S.Client.Connection_error _ when n > 0 ->
          Unix.sleepf 0.1; retry (n - 1)
      in
      retry 20)

let test_server_cheap_lane_no_starvation () =
  (* Saturate every heavy slot with redact requests whose server-side
     file source is a FIFO nobody is writing yet: each pins its worker
     deterministically (the open blocks until a writer appears), with
     max_in_flight = 2 that is the one general worker, and the rest of
     the heavy traffic queues. A ping must still answer immediately on
     the reserved cheap worker. Then feed the FIFO to let every heavy
     request finish (with an error — the FIFO is not valid Verilog —
     which is fine: only scheduling is under test). *)
  let fifo = Filename.temp_file "alice_fifo" ".pipe" in
  Sys.remove fifo;
  Unix.mkfifo fifo 0o600;
  Fun.protect ~finally:(fun () -> try Sys.remove fifo with Sys_error _ -> ())
  @@ fun () ->
  with_server ~max_in_flight:2 ~max_queue:8 (fun socket _t ->
      let heavies = 3 in
      let done_count = ref 0 in
      let done_mu = Mutex.create () in
      let req =
        J.to_string
          (J.Obj
             [ ("v", J.Int 1); ("op", J.String "redact");
               ("file", J.String fifo) ])
      in
      let threads =
        List.init heavies (fun _ ->
            Thread.create
              (fun () ->
                ignore (rpc socket req);
                Mutex.lock done_mu;
                incr done_count;
                Mutex.unlock done_mu)
              ())
      in
      (* let the heavy lane fill: 1 pinned in flight, 2 queued *)
      Unix.sleepf 0.5;
      let t0 = Unix.gettimeofday () in
      let pong = J.parse (rpc socket (S.Protocol.ping_request ())) in
      let ping_s = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "ping answered under heavy saturation" true
        (J.get_bool pong "ok");
      Alcotest.(check bool) "ping was immediate, not queued behind heavies"
        true (ping_s < 5.0);
      Mutex.lock done_mu;
      let finished = !done_count in
      Mutex.unlock done_mu;
      Alcotest.(check int) "heavies still pinned when ping answered" 0
        finished;
      (* the cheap lane also answers stats, which shows the heavy queue *)
      let stats = J.parse (rpc socket (S.Protocol.stats_request ())) in
      (match J.find stats "queued" with
      | Some q ->
        Alcotest.(check bool) "heavy lane backed up" true
          (J.get_int q "heavy" >= 1)
      | None -> Alcotest.fail "no queued block");
      (* now feed the FIFO until every heavy request has finished: a
         nonblocking write-end open succeeds exactly when a worker is
         blocked on the read end (ENXIO otherwise), and each success
         unblocks that worker, which errors out and frees the slot for
         the next queued heavy. A counted feed loop would race: one
         reader's open/close window can absorb two feeds and leave the
         last worker blocked forever. *)
      let stop_feeding = Atomic.make false in
      let feeder =
        Thread.create
          (fun () ->
            while not (Atomic.get stop_feeding) do
              (match Unix.openfile fifo [ Unix.O_WRONLY; Unix.O_NONBLOCK ] 0 with
              | fd -> Unix.close fd
              | exception Unix.Unix_error (Unix.ENXIO, _, _) -> ());
              Unix.sleepf 0.02
            done)
          ()
      in
      List.iter Thread.join threads;
      Atomic.set stop_feeding true;
      Thread.join feeder;
      Mutex.lock done_mu;
      let finished = !done_count in
      Mutex.unlock done_mu;
      Alcotest.(check int) "all heavies completed after unpinning" heavies
        finished)

let sweep_entries =
  [ J.Obj [ ("name", J.String "one"); ("max_efpgas", J.Int 1) ];
    J.Obj [ ("name", J.String "two"); ("max_efpgas", J.Int 2) ];
    J.Obj
      [ ("name", J.String "small");
        ("fabric", J.Obj [ ("min_size", J.Int 2); ("max_size", J.Int 8) ]) ]
  ]

let test_server_streaming_sweep () =
  with_server (fun socket _t ->
      let conn = S.Client.connect ~socket () in
      Fun.protect ~finally:(fun () -> S.Client.close conn) @@ fun () ->
      let rows = ref [] in
      let final =
        S.Client.rpc_stream conn
          ~on_event:(fun line -> rows := line :: !rows)
          (S.Protocol.sweep_request ~stream:true ~entries:sweep_entries
             (S.Protocol.Inline demo_src))
      in
      let rows = List.rev !rows in
      (* every point arrived as its own frame, in sweep order, before
         the terminal summary concluded the exchange *)
      Alcotest.(check int) "one row per point" 3 (List.length rows);
      let names =
        List.map
          (fun line ->
            let j = J.parse line in
            Alcotest.(check bool) "row ok" true (J.get_bool j "ok");
            Alcotest.(check string) "row event" "row" (J.get_string j "event");
            J.get_string j "name")
          rows
      in
      Alcotest.(check (list string)) "rows in sweep order"
        [ "one"; "two"; "small" ] names;
      let done_frame = J.parse final in
      Alcotest.(check string) "terminal frame" "done"
        (J.get_string done_frame "event");
      Alcotest.(check int) "summary points" 3 (J.get_int done_frame "points");
      Alcotest.(check bool) "summary feasible count" true
        (J.get_int done_frame "feasible" >= 1))

let test_server_streaming_negotiation () =
  (* a pre-minor-1 client (no mv field) asking for stream:true must get
     the buffered single-line form — never frames it cannot parse *)
  with_server (fun socket _t ->
      let raw =
        J.to_string
          (J.Obj
             [ ("v", J.Int 1); ("op", J.String "sweep");
               ("source", J.String demo_src); ("stream", J.Bool true);
               ("sweep", J.List sweep_entries) ])
      in
      let resp = J.parse (rpc socket raw) in
      Alcotest.(check bool) "buffered ok" true (J.get_bool resp "ok");
      Alcotest.(check bool) "no event frame leaked" true
        (J.find resp "event" = None);
      match J.find resp "rows" with
      | Some (J.List rows) ->
        Alcotest.(check int) "all rows in one response" 3 (List.length rows)
      | _ -> Alcotest.fail "no rows list in buffered response")

let advise_constraints =
  J.Obj
    [ ( "axes",
        J.Obj
          [ ("lut_inputs", J.List [ J.Int 4 ]);
            ("max_fabric_size", J.List [ J.Int 8; J.Int 12 ]) ] ) ]

let test_server_streaming_advise () =
  with_server (fun socket _t ->
      let conn = S.Client.connect ~socket () in
      Fun.protect ~finally:(fun () -> S.Client.close conn) @@ fun () ->
      let rows = ref [] in
      let final =
        S.Client.rpc_stream conn
          ~on_event:(fun line -> rows := line :: !rows)
          (S.Protocol.advise_request ~stream:true
             ~constraints:advise_constraints (S.Protocol.Inline demo_src))
      in
      let rows = List.rev !rows in
      (* one frame per candidate, in grid order, each carrying the
         minor-4 metrics object *)
      Alcotest.(check int) "one row per candidate" 2 (List.length rows);
      let names =
        List.map
          (fun line ->
            let j = J.parse line in
            Alcotest.(check bool) "row ok" true (J.get_bool j "ok");
            Alcotest.(check string) "row event" "row" (J.get_string j "event");
            (match J.find j "metrics" with
            | Some (J.Obj _ as m) ->
              Alcotest.(check bool) "area reported" true
                (J.find m "area_um2" <> None);
              Alcotest.(check bool) "security scale labeled" true
                (J.find m "security_mode" <> None)
            | Some J.Null -> ()  (* infeasible candidate *)
            | _ -> Alcotest.fail "no metrics object on an mv-4 row");
            J.get_string j "name")
          rows
      in
      Alcotest.(check (list string)) "rows in grid order"
        [ "k4-w8"; "k4-w12" ] names;
      let done_frame = J.parse final in
      Alcotest.(check string) "terminal frame" "done"
        (J.get_string done_frame "event");
      Alcotest.(check int) "candidate count" 2
        (J.get_int done_frame "candidates");
      match J.find done_frame "front" with
      | Some (J.List (first :: _)) ->
        (* the front is ranked best-first *)
        Alcotest.(check int) "rank 1 leads" 1 (J.get_int first "rank");
        Alcotest.(check bool) "front entry named" true
          (J.find first "name" <> None)
      | _ -> Alcotest.fail "done frame carries no non-empty front")

let test_server_advise_negotiation () =
  (* a pre-minor-4 client asking to stream gets the buffered single
     line — and its rows must not carry the minor-4 metrics object *)
  with_server (fun socket _t ->
      let raw =
        J.to_string
          (J.Obj
             [ ("v", J.Int 1); ("mv", J.Int 1); ("op", J.String "advise");
               ("source", J.String demo_src); ("stream", J.Bool true);
               ("constraints", advise_constraints) ])
      in
      let resp = J.parse (rpc socket raw) in
      Alcotest.(check bool) "buffered ok" true (J.get_bool resp "ok");
      Alcotest.(check bool) "no event frame leaked" true
        (J.find resp "event" = None);
      (match J.find resp "rows" with
      | Some (J.List rows) ->
        Alcotest.(check int) "all rows in one response" 2 (List.length rows);
        List.iter
          (fun row ->
            Alcotest.(check bool) "metrics gated on minor 4" true
              (J.find row "metrics" = None))
          rows
      | _ -> Alcotest.fail "no rows list in buffered response");
      (* the ranked front is part of the buffered response too *)
      match J.find resp "front" with
      | Some (J.List (_ :: _)) -> ()
      | _ -> Alcotest.fail "buffered response carries no front")

let test_server_attack_verdicts_minor3 () =
  (* minor 3 adds the solver-reuse counter and per-candidate verdicts to
     the redact attack object; minor-2 clients keep the old shape and
     pre-minor-2 clients see no attack object at all *)
  with_server (fun socket _t ->
      let request mv =
        let fields =
          [ ("v", J.Int 1); ("op", J.String "redact");
            ("source", J.String demo_src);
            ( "config",
              J.Obj
                [ ("score", J.String "measured");
                  ("attack_budget", J.Int 2_000);
                  ("attack_iterations", J.Int 16) ] ) ]
        in
        let fields =
          match mv with None -> fields | Some m -> ("mv", J.Int m) :: fields
        in
        J.parse (rpc socket (J.to_string (J.Obj fields)))
      in
      let v3 = request (Some 3) in
      Alcotest.(check bool) "mv3 ok" true (J.get_bool v3 "ok");
      (match J.find v3 "attack" with
      | Some attack ->
        Alcotest.(check bool) "attacks ran" true (J.get_int attack "run" > 0);
        Alcotest.(check bool) "reused reported" true
          (J.get_int attack "reused" >= 0);
        (match J.find attack "verdicts" with
        | Some (J.List (first :: _ as verdicts)) ->
          (* one row per valid candidate; candidates may alias cache
             keys, so the row count is at least the unique-attack count *)
          Alcotest.(check bool) "a verdict per unique attack" true
            (List.length verdicts
            >= J.get_int attack "run" + J.get_int attack "cached");
          List.iter
            (fun key ->
              Alcotest.(check bool)
                (Printf.sprintf "verdict has %s" key)
                true
                (J.find first key <> None))
            [ "cluster"; "fabric"; "status"; "dips"; "conflicts"; "reused" ]
        | Some (J.List []) -> Alcotest.fail "empty verdicts array"
        | _ -> Alcotest.fail "no verdicts array at mv 3")
      | None -> Alcotest.fail "no attack object at mv 3");
      let v2 = request (Some 2) in
      Alcotest.(check bool) "mv2 ok" true (J.get_bool v2 "ok");
      (match J.find v2 "attack" with
      | Some attack ->
        Alcotest.(check bool) "mv2 keeps run" true
          (J.find attack "run" <> None);
        Alcotest.(check bool) "mv2 has no reused" true
          (J.find attack "reused" = None);
        Alcotest.(check bool) "mv2 has no verdicts" true
          (J.find attack "verdicts" = None)
      | None -> Alcotest.fail "no attack object at mv 2");
      let v0 = request None in
      Alcotest.(check bool) "mv0 ok" true (J.get_bool v0 "ok");
      Alcotest.(check bool) "no attack object pre-minor-2" true
        (J.find v0 "attack" = None))

let test_server_shutdown_drain () =
  let socket_path = tmp_socket () in
  let cfg =
    { (S.Server.default_config ~socket_path) with
      S.Server.base = base_yaml; idle_timeout_s = 20.0 }
  in
  let t = S.Server.start ~engine:(A.Engine.create ~cache:false ()) cfg in
  let resp = J.parse (rpc socket_path (S.Protocol.shutdown_request ())) in
  Alcotest.(check bool) "shutdown acknowledged" true (J.get_bool resp "ok");
  Alcotest.(check bool) "draining" true (J.get_bool resp "draining");
  S.Server.wait t;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists socket_path);
  (* double stop/wait stay no-ops *)
  S.Server.stop t;
  S.Server.wait t

let tests =
  [ Alcotest.test_case "json parse" `Quick test_json_parse;
    Alcotest.test_case "json round trip" `Quick test_json_round_trip;
    Alcotest.test_case "json errors" `Quick test_json_errors;
    Alcotest.test_case "json-yaml bridge" `Quick test_json_yaml_bridge;
    Alcotest.test_case "endpoint grammar" `Quick test_endpoint_parse;
    Alcotest.test_case "protocol parse" `Quick test_protocol_parse;
    Alcotest.test_case "protocol advise parse" `Quick
      test_protocol_advise_parse;
    Alcotest.test_case "protocol rejects" `Quick test_protocol_rejects;
    Alcotest.test_case "protocol lanes" `Quick test_protocol_lanes;
    Alcotest.test_case "protocol responses" `Quick test_protocol_responses;
    Alcotest.test_case "metrics registry" `Quick test_metrics;
    Alcotest.test_case "metrics quantile clamp" `Quick
      test_metrics_quantile_clamp;
    Alcotest.test_case "retry delay floor" `Quick test_retry_delay_floor;
    Alcotest.test_case "ping, redact, warm stats" `Quick
      test_server_ping_and_redact;
    Alcotest.test_case "tcp loopback" `Quick test_server_tcp_loopback;
    Alcotest.test_case "error paths" `Quick test_server_error_paths;
    Alcotest.test_case "invalid requests visible in stats" `Quick
      test_server_invalid_op_metrics;
    Alcotest.test_case "busy rejection" `Quick test_server_busy_rejection;
    Alcotest.test_case "cheap lane immune to heavy saturation" `Quick
      test_server_cheap_lane_no_starvation;
    Alcotest.test_case "streaming sweep" `Quick test_server_streaming_sweep;
    Alcotest.test_case "streaming negotiation" `Quick
      test_server_streaming_negotiation;
    Alcotest.test_case "streaming advise" `Quick test_server_streaming_advise;
    Alcotest.test_case "advise negotiation" `Quick
      test_server_advise_negotiation;
    Alcotest.test_case "attack verdicts gated on minor 3" `Quick
      test_server_attack_verdicts_minor3;
    Alcotest.test_case "shutdown drain" `Quick test_server_shutdown_drain ]
