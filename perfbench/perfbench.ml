(* The repository benchmark. See perfbench/README.md for the workloads,
   the metrics and why they were chosen.

     perfbench.exe --workload table2|measured|serve --seed N --seconds S
                   --trace 0|1 [--alice PATH]
     perfbench.exe --record [--alice PATH]    # rewrite expected.txt

   The last line of standard output is one JSON object: with --trace 0
   every end-to-end metric, with --trace 1 every per-layer metric. *)

module B = Alice_benchmarks.Suite

let end_to_end =
  [ ("setup_s", "s"); ("pass_s", "s"); ("req_per_s", "1/s");
    ("req_p50_ms", "ms"); ("req_tail_ms", "ms"); ("peak_rss_mb", "MiB") ]

let job_rows =
  List.map
    (fun (j : Flows.job) -> (Flows.job_metric j, "s"))
    (Flows.table2_jobs ~jobs:1)

let per_layer =
  [ ("verilog.parse_ms", "ms"); ("verilog.elaborate_ms", "ms");
    ("analysis.dataflow_ms", "ms"); ("filtering.ms", "ms");
    ("clustering.ms", "ms"); ("clustering.clusters", "count");
    ("characterize.s", "s"); ("characterize.unique", "count");
    ("characterize.computed", "count"); ("characterize.hit_ratio", "ratio");
    ("characterize.implemented_ratio", "ratio"); ("parallel.speedup", "x");
    ("netlist.synth_map_s", "s"); ("netlist.luts", "count");
    ("fabric.size_search_s", "s"); ("fabric.pack_s", "s");
    ("fabric.place_ms", "ms"); ("fabric.route_ms", "ms");
    ("fabric.width_sum", "count"); ("fabric.clbs", "count");
    ("selection.ms", "ms"); ("selection.solutions", "count");
    ("scorer.measure_s", "s"); ("security.lock_ms", "ms");
    ("security.attack_s", "s"); ("security.oracle_ms", "ms");
    ("security.oracle_calls", "count"); ("security.ms_per_dip", "ms");
    ("security.dips", "count"); ("security.conflicts", "count");
    ("security.reused", "count"); ("sat.solver_calls", "count");
    ("security.converged_ratio", "ratio"); ("redact.ms", "ms");
    ("redact.bytes", "bytes"); ("engine.warm_run_ms", "ms");
    ("disk_cache.resume_ms", "ms"); ("disk_cache.disk_hits", "count");
    ("advisor.rank_ms", "ms"); ("wire.encode_us", "us");
    ("wire.decode_us", "us"); ("wire.response_bytes", "bytes");
    ("server.service_p50_ms", "ms"); ("server.overhead_p50_ms", "ms");
    ("server.refused", "count"); ("server.crashed", "count");
    ("gc.major_collections", "count"); ("gc.minor_mwords", "Mword");
    ("trace.overhead_s", "s") ]
  @ job_rows

(* Counts that must repeat exactly between passes and between runs of
   the same code. *)
let exact_counts =
  [ "characterize.unique"; "netlist.luts"; "fabric.width_sum"; "fabric.clbs";
    "selection.solutions"; "security.dips"; "security.conflicts";
    "sat.solver_calls" ]

(* ---- run state ---- *)

let attempted = ref 0
let failures : string list ref = ref []
let metrics : (string, float) Hashtbl.t = Hashtbl.create 64
let set name v = Hashtbl.replace metrics name v

let fail msg =
  prerr_endline ("perfbench: FAILED " ^ msg);
  failures := msg :: !failures

let fail_all = List.iter fail
let div a b = if b = 0.0 then 0.0 else a /. b
let nproc = Domain.recommended_domain_count ()

(* Both workers of a 2-core host, and no more: every pool, attack pool,
   server and load generator is sized by this. *)
let parallelism = max 1 (min 2 nproc)

(* ---- per-layer numbers of the traced passes ---- *)

(* Median over traced passes of a per-pass value. *)
let per_pass passes f = Util.median (List.map f passes)

let set_layer_metrics passes =
  let tot name p = Trace.total ~pass:p name in
  let cnt name p = Trace.counter ~pass:p name in
  let ms name p = 1e3 *. tot name p in
  let put name f = set name (per_pass passes f) in
  List.iter
    (fun (metric, span) -> put metric (ms span))
    [ ("verilog.parse_ms", "verilog.parse");
      ("verilog.elaborate_ms", "verilog.elaborate");
      ("analysis.dataflow_ms", "analysis.dataflow");
      ("filtering.ms", "filtering"); ("clustering.ms", "clustering");
      ("fabric.place_ms", "fabric.place"); ("fabric.route_ms", "fabric.route");
      ("selection.ms", "selection"); ("security.lock_ms", "security.lock");
      ("redact.ms", "redact"); ("engine.warm_run_ms", "engine.warm_run");
      ("advisor.rank_ms", "advisor.rank") ];
  List.iter
    (fun (metric, span) -> put metric (tot span))
    [ ("characterize.s", "characterize");
      ("netlist.synth_map_s", "netlist.synth_map");
      ("fabric.size_search_s", "fabric.size_search");
      ("fabric.pack_s", "fabric.pack"); ("scorer.measure_s", "scorer.measure");
      ("security.attack_s", "security.attack") ];
  List.iter
    (fun name -> put name (cnt name))
    [ "clustering.clusters"; "characterize.unique"; "characterize.computed";
      "netlist.luts"; "fabric.width_sum"; "fabric.clbs"; "selection.solutions";
      "security.oracle_calls"; "security.dips"; "security.conflicts";
      "security.reused"; "sat.solver_calls"; "redact.bytes";
      "disk_cache.disk_hits"; "wire.response_bytes" ];
  put "characterize.hit_ratio" (fun p ->
      div (cnt "characterize.hits" p) (cnt "characterize.unique" p));
  put "characterize.implemented_ratio" (fun p ->
      div (cnt "characterize.implemented" p) (cnt "characterize.unique" p));
  put "parallel.speedup" (fun p ->
      div
        (tot "netlist.synth_map" p +. tot "fabric.size_search" p)
        (tot "characterize" p));
  put "security.oracle_ms" (fun p -> 1e3 *. cnt "security.oracle_s" p);
  put "security.ms_per_dip" (fun p ->
      div (ms "security.attack" p) (cnt "security.dips" p));
  put "security.converged_ratio" (fun p ->
      div (cnt "security.converged" p) (cnt "security.attacks" p));
  put "disk_cache.resume_ms" (fun p ->
      div (ms "disk_cache.resume" p) (cnt "disk_cache.resumed" p));
  put "wire.encode_us" (fun p -> 1e6 *. tot "wire.encode" p);
  put "wire.decode_us" (fun p -> 1e6 *. tot "wire.decode" p);
  List.iter
    (fun name ->
      match List.sort_uniq compare (List.map (cnt name) passes) with
      | [] | [ _ ] -> ()
      | vs ->
        fail
          (Printf.sprintf "count %s differs between passes: %s" name
             (String.concat " " (List.map (Printf.sprintf "%.0f") vs))))
    exact_counts

let report_trace ~workload ~seed =
  Util.mkdir_p Util.out_dir;
  let path =
    Filename.concat Util.out_dir
      (Printf.sprintf "trace-%s-%d.json" workload seed)
  in
  Trace.write_chrome path;
  Printf.eprintf "traced run: self time per layer, all traced passes\n";
  List.iter
    (fun (name, s) -> Printf.eprintf "  %-22s %10.3f ms\n" name (1e3 *. s))
    (Trace.self_times ());
  Printf.eprintf "  tracing overhead %.4f s per pass; trace written to %s\n%!"
    (Option.value (Hashtbl.find_opt metrics "trace.overhead_s") ~default:0.0)
    path

(* ---- end-to-end numbers of a list of request latencies ---- *)

(* [serve] pools thousands of request latencies. A flow workload's job
   list is short and fixed, so a pooled quantile would sit on the edge
   between two jobs and jump between them; its quantiles are taken over
   each job's median latency instead, p75 standing in for the tail. *)
let set_latency_metrics ~pooled (latencies : (string * float) list) =
  let samples =
    if pooled then List.map snd latencies
    else
      List.sort_uniq compare (List.map fst latencies)
      |> List.map (fun name ->
             Util.median
               (List.filter_map
                  (fun (n, dt) -> if n = name then Some dt else None)
                  latencies))
  in
  set "req_p50_ms" (1e3 *. Util.median samples);
  let q, v =
    if pooled then Util.tail_quantile samples else (0.75, Util.quantile 0.75 samples)
  in
  Printf.eprintf "req_tail_ms is p%.0f of %d %s\n%!" (100.0 *. q)
    (List.length samples) (if pooled then "requests" else "job medians");
  set "req_tail_ms" (1e3 *. v)

(* ---- table2 and measured ---- *)

let flow_workload ~jobs ~seconds ~trace ~rng =
  (* set-up: load the expected outputs and every job's source, parsed
     and elaborated once to validate it; repeated for a median *)
  let setup () =
    let expected = Expected.load () in
    List.iter
      (fun (j : Flows.job) ->
        let text, file = Flows.source j in
        ignore
          (Alice_verilog.Elaborate.elaborate ?top:j.Flows.config.Alice_config.Flow_config.top
             (Alice_verilog.Parser.parse ~file text)))
      jobs;
    expected
  in
  let setups = List.init 11 (fun _ -> Util.time setup) in
  set "setup_s" (Util.median (List.map snd setups));
  let expected = fst (List.hd setups) in
  let jobs = Util.shuffle rng jobs in
  let job_times = Hashtbl.create 16 in
  let gc = ref [] and rss = ref [] in
  let untraced_pass () =
    Util.reset_peak_rss 0;
    let g0 = Gc.quick_stat () in
    let pass =
      List.fold_left
        (fun acc (j : Flows.job) ->
          incr attempted;
          (* every job starts from a compacted heap, as in a fresh
             process, whatever ran before it in this seed's order *)
          Gc.compact ();
          match Util.time (fun () -> Flows.run_job j) with
          | (flow, red), dt ->
            fail_all (Flows.check expected j flow red);
            Hashtbl.replace job_times (Flows.job_metric j)
              (dt :: Option.value (Hashtbl.find_opt job_times (Flows.job_metric j)) ~default:[]);
            acc +. dt
          | exception e ->
            fail (j.Flows.key ^ ": " ^ Printexc.to_string e);
            acc)
        0.0 jobs
    in
    let g1 = Gc.quick_stat () in
    rss := Util.peak_rss_mb 0 :: !rss;
    gc :=
      ( float (g1.Gc.major_collections - g0.Gc.major_collections),
        (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6 )
      :: !gc;
    pass
  in
  let traced_pass p =
    Trace.set_pass p;
    List.iter
      (fun (j : Flows.job) ->
        incr attempted;
        Gc.compact ();
        match Flows.traced_job j with
        | flow, red ->
          fail_all (Flows.check expected j flow red);
          fail_all (Flows.probe j flow)
        | exception e -> fail (j.Flows.key ^ " (traced): " ^ Printexc.to_string e))
      jobs;
    (* the job spans hold exactly the flow's calls, not the probes *)
    Trace.total ~pass:p "job"
  in
  let t_start = Util.now () in
  let untraced = ref [] and traced = ref [] in
  while !untraced = [] || Util.now () -. t_start < seconds do
    untraced := untraced_pass () :: !untraced;
    if trace then traced := traced_pass (List.length !traced) :: !traced
  done;
  let passes = List.rev !untraced in
  Printf.eprintf "passes (s): %s\n%!"
    (String.concat " " (List.map (Printf.sprintf "%.3f") passes));
  set "pass_s" (Util.median passes);
  let all_times =
    Hashtbl.fold (fun name ts acc -> List.map (fun t -> (name, t)) ts @ acc) job_times []
  in
  set "req_per_s"
    (div (float (List.length all_times)) (List.fold_left ( +. ) 0.0 passes));
  set_latency_metrics ~pooled:false all_times;
  set "peak_rss_mb" (Util.median !rss);
  if trace then begin
    set_layer_metrics (List.init (List.length !traced) Fun.id);
    Hashtbl.iter (fun name ts -> set name (Util.median ts)) job_times;
    set "gc.major_collections" (Util.median (List.map fst !gc));
    set "gc.minor_mwords" (Util.median (List.map snd !gc));
    set "trace.overhead_s" (Util.median !traced -. Util.median passes)
  end

(* ---- serve ---- *)

(* A server that does not drain and exit 0 is a failure of the run, not
   of the benchmark. *)
let stop_server server =
  try Serve.stop_server server with Failure msg -> fail msg

let serve_workload ~alice ~seconds ~trace ~rng =
  let expected = Expected.load () in
  let types = Serve.request_types ~jobs:parallelism in
  let run_dir =
    Filename.concat Util.out_dir (Printf.sprintf "serve-%d" (Unix.getpid ()))
  in
  at_exit (fun () ->
      Serve.kill_all ();
      try Util.rm_rf run_dir with _ -> ());
  (* set-up three times on empty caches; the last server takes the load *)
  let setups =
    List.init 3 (fun i ->
        let dir = Filename.concat run_dir (Printf.sprintf "s%d" i) in
        let server, dt =
          Util.time (fun () -> Serve.setup ~alice ~jobs:parallelism ~dir types)
        in
        let rss = Util.peak_rss_mb server.Serve.pid in
        if i < 2 then begin
          stop_server server;
          Util.rm_rf dir
        end;
        (server, dt, rss))
  in
  set "setup_s" (Util.median (List.map (fun (_, dt, _) -> dt) setups));
  let server, _, _ = List.nth setups 2 in
  let socket = server.Serve.socket in
  let load_seconds = if trace then seconds /. 2.0 else seconds in
  let load =
    Serve.run_load ~socket ~conns:parallelism ~rng ~seconds:load_seconds
      ~expected types
  in
  attempted := !attempted + load.Serve.completed;
  fail_all load.Serve.failures;
  set "pass_s" (Util.median load.Serve.passes);
  set "req_per_s"
    (div (float load.Serve.completed)
       (List.fold_left ( +. ) 0.0 load.Serve.passes));
  set_latency_metrics ~pooled:true load.Serve.latencies;
  Printf.eprintf "serve: %d closed-loop connections, %d requests in %d passes\n%!"
    parallelism load.Serve.completed (List.length load.Serve.passes);
  if trace then begin
    (* one captured response per type feeds the wire decode *)
    let responses =
      let conn = Alice_server.Client.connect ~socket () in
      Fun.protect
        ~finally:(fun () -> Alice_server.Client.close conn)
        (fun () -> List.map (fun r -> (r.Serve.name, Serve.send conn r)) types)
    in
    let replay ~pass =
      Trace.set_pass pass;
      snd
        (Util.time (fun () ->
             fail_all
               (Serve.replay_pass ~cache_dir:server.Serve.cache_dir
                  ~jobs:parallelism ~expected ~responses types)))
    in
    let t_start = Util.now () in
    let traced = ref [] and plain = ref [] in
    while !traced = [] || Util.now () -. t_start < seconds -. load_seconds do
      attempted := !attempted + List.length types;
      Trace.enabled := false;
      plain := replay ~pass:(-1) :: !plain;
      Trace.enabled := true;
      traced := replay ~pass:(List.length !traced) :: !traced
    done;
    set_layer_metrics (List.init (List.length !traced) Fun.id);
    set "trace.overhead_s" (Util.median !traced -. Util.median !plain);
    List.iter
      (fun (r : Serve.req) ->
        match r.Serve.kind with
        | Serve.Redact j ->
          let lat =
            List.filter_map
              (fun (name, dt) -> if name = r.Serve.name then Some dt else None)
              load.Serve.latencies
          in
          if lat <> [] then set (Flows.job_metric j) (Util.median lat)
        | Serve.Advise | Serve.Ping -> ())
      types
  end;
  let stats = Serve.server_stats socket in
  (* the set-up servers' peaks after their fill, and the loaded server's
     at the end: a median of three, since the peak comes from the cold
     fill and varies with when its collections fall *)
  set "peak_rss_mb"
    (Util.median
       (Util.peak_rss_mb server.Serve.pid
        :: List.filteri (fun i _ -> i < 2) (List.map (fun (_, _, r) -> r) setups)));
  stop_server server;
  if stats.Serve.refused > 0 then
    fail (Printf.sprintf "server refused %d connections" stats.Serve.refused);
  if stats.Serve.crashed > 0 then
    fail (Printf.sprintf "server workers crashed %d times" stats.Serve.crashed);
  set "server.service_p50_ms" stats.Serve.service_p50_ms;
  set "server.overhead_p50_ms"
    (Hashtbl.find metrics "req_p50_ms" -. stats.Serve.service_p50_ms);
  set "server.refused" (float stats.Serve.refused);
  set "server.crashed" (float stats.Serve.crashed)

(* ---- --record: the expected outputs at the current commit ---- *)

let record ~alice =
  let line key value = Printf.printf "%s\t%s\n%!" key value in
  let flow_jobs =
    Flows.table2_jobs ~jobs:parallelism @ Flows.measured_jobs ~jobs:parallelism
  in
  let types = Serve.request_types ~jobs:parallelism in
  let soc =
    List.filter_map
      (fun (r : Serve.req) ->
        match r.Serve.kind with
        | Serve.Redact j when j.Flows.bench.B.name = "SOC" -> Some j
        | _ -> None)
      types
  in
  List.iter
    (fun (j : Flows.job) ->
      let flow, red = Flows.run_job j in
      (match Flows.invariants j.Flows.config flow with
      | [] -> ()
      | errs -> failwith (String.concat "; " errs));
      line j.Flows.key (Flows.summary ~design_name:j.Flows.bench.B.name flow red))
    (flow_jobs @ soc);
  let dir = Filename.concat Util.out_dir (Printf.sprintf "record-%d" (Unix.getpid ())) in
  at_exit (fun () ->
      Serve.kill_all ();
      try Util.rm_rf dir with _ -> ());
  let server = Serve.setup ~alice ~jobs:parallelism ~dir types in
  let conn = Alice_server.Client.connect ~socket:server.Serve.socket () in
  List.iter
    (fun (r : Serve.req) -> line ("serve/" ^ r.Serve.name) (Serve.digest r (Serve.send conn r)))
    types;
  Alice_server.Client.close conn;
  Serve.stop_server server

(* ---- command line ---- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0
  and trace = ref 0 and alice = ref "_build/default/bin/alice_cli.exe"
  and recording = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "table2|measured|serve");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 traced run");
      ("--alice", Arg.Set_string alice, "PATH alice CLI binary (serve)");
      ("--record", Arg.Set recording, " rewrite the expected outputs") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  if !recording then record ~alice:!alice
  else begin
    let rng = Random.State.make [| !seed |] in
    let trace = !trace = 1 in
    Printf.eprintf "perfbench: workload %s, seed %d, %.0f s, trace %b, %d cores\n%!"
      !workload !seed !seconds trace nproc;
    (match !workload with
    | "table2" ->
      flow_workload ~jobs:(Flows.table2_jobs ~jobs:parallelism)
        ~seconds:!seconds ~trace ~rng
    | "measured" ->
      flow_workload ~jobs:(Flows.measured_jobs ~jobs:parallelism)
        ~seconds:!seconds ~trace ~rng
    | "serve" -> serve_workload ~alice:!alice ~seconds:!seconds ~trace ~rng
    | w -> raise (Arg.Bad ("unknown workload " ^ w)));
    if trace then report_trace ~workload:!workload ~seed:!seed;
    let module J = Alice_config.Json_lite in
    let shown = if trace then per_layer else end_to_end in
    let metric (name, unit) =
      let v = Option.value (Hashtbl.find_opt metrics name) ~default:0.0 in
      (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ])
    in
    let failed = List.length !failures in
    print_endline
      (J.to_string
         (J.Obj
            [ ("correct", J.Bool (failed = 0));
              ("attempted", J.Int !attempted);
              ("failed", J.Int failed);
              ("metrics", J.Obj (List.map metric shown)) ]))
  end
