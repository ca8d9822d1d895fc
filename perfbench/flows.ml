(* The cold flow workloads, [table2] and [measured]: a fixed job list of
   design x configuration flows, each run cold through the public entry
   points ([Flow.run_request], then [Flow.redact]) in timed passes, and
   through each layer's public function in flow order in traced
   passes. *)

module A = Alice
module B = Alice_benchmarks.Suite
module C = Alice_config
module F = Alice_fabric
module N = Alice_netlist
module V = Alice_verilog
module Sec = Alice_security
module Scorer = A.Selection.Scorer

type job = {
  key : string;  (* workload/DESIGN/cfg, the expected-output key *)
  bench : B.benchmark;
  cfg_name : string;
  config : C.Flow_config.t;
}

let job_metric j = Printf.sprintf "job.%s.%s.s" j.bench.B.name j.cfg_name

let make ~workload ~jobs (b : B.benchmark) cfg_name config =
  { key = String.concat "/" [ workload; b.B.name; cfg_name ];
    bench = b; cfg_name; config = { config with C.Flow_config.jobs } }

(* Every Table 2 design under both configurations, except DES3: its
   ~35 s cold pass would leave room for a single sample per run. *)
let table2_jobs ~jobs =
  List.concat_map
    (fun (b : B.benchmark) ->
      if b.B.name = "DES3" then []
      else
        [ make ~workload:"table2" ~jobs b "cfg1" (B.config1 b);
          make ~workload:"table2" ~jobs b "cfg2" (B.config2 b) ])
    B.all

(* Measured selection under conflict and DIP budgets only (the scorer's
   budget has no wall-clock bound), with fresh caches in every job. *)
let measured_jobs ~jobs =
  List.map
    (fun name ->
      let b = Option.get (B.find name) in
      make ~workload:"measured" ~jobs b "cfg1"
        { (B.config1 b) with
          C.Flow_config.score_mode = C.Flow_config.Measured;
          attack_budget = 2_000; attack_iterations = 16; attack_jobs = jobs })
    [ "GCD"; "SASC"; "USB_PHY"; "FIR"; "SHA256" ]

let source j = (j.bench.B.source, j.bench.B.name ^ ".v")

let request j =
  let text, file = source j in
  A.Flow.request ~config:j.config (A.Flow.Text { text; file = Some file })

(* ---- output check ---- *)

let opt = function None -> "-" | Some v -> string_of_int v

(* The Table 2 structural row, the measured verdict rows and a digest of
   the redacted Verilog: everything a flow decides, nothing it timed. *)
let summary ~design_name (flow : A.Flow.t) (red : A.Redact.redacted option) =
  let r = A.Report.row_of_flow ~design_name flow in
  let verdicts = A.Report.verdict_rows flow in
  Printf.sprintf
    "inst=%d R=%d C=%s valid=%s S=%s sizes=%s redacted=%s | verdicts=%s[%s] \
     | verilog=%s"
    r.A.Report.instances r.A.Report.r_count (opt r.A.Report.c_count)
    (opt r.A.Report.valid_efpgas) (opt r.A.Report.s_count)
    (String.concat "," r.A.Report.efpga_sizes)
    (opt r.A.Report.redacted_modules)
    (String.sub
       (Util.md5
          (String.concat ";"
             (List.map (fun v -> v.A.Report.vr_cluster) verdicts)))
       0 8)
    (String.concat " "
       (List.map
          (fun (v : A.Report.verdict_row) ->
            Printf.sprintf "%s:%s:%d:%d:%d" v.A.Report.vr_fabric
              v.A.Report.vr_status v.A.Report.vr_dips v.A.Report.vr_conflicts
              v.A.Report.vr_reused)
          verdicts))
    (match red with None -> "none" | Some r -> Util.md5 r.A.Redact.verilog)

(* Invariants that hold whatever the expected file says: every chosen
   eFPGA fits its utilization target and pad ring, its cluster fits the
   pin budget, and the chosen eFPGAs share no instance. *)
let invariants (cfg : C.Flow_config.t) (flow : A.Flow.t) : string list =
  match flow.A.Flow.selection.A.Selection.best with
  | None -> []
  | Some best ->
    let chosen = best.A.Selection.efpgas in
    let errs = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
    if List.length chosen > cfg.C.Flow_config.max_efpgas then
      fail "%d eFPGAs chosen, budget %d" (List.length chosen)
        cfg.C.Flow_config.max_efpgas;
    List.iter
      (fun (e : A.Selection.efpga_impl) ->
        let impl = e.A.Selection.impl in
        let fabric = impl.F.Size_search.fabric in
        let label = F.Fabric.size_label fabric in
        let budget =
          F.Size_search.clb_budget
            ~target_utilization:cfg.C.Flow_config.target_utilization
            ~clb_cap:(F.Fabric.clb_count fabric)
        in
        if impl.F.Size_search.clbs_used > budget then
          fail "%s: %d CLBs over the utilization budget %d" label
            impl.F.Size_search.clbs_used budget;
        if impl.F.Size_search.io_used > F.Fabric.io_capacity fabric then
          fail "%s: %d I/O bits over the pad ring's %d" label
            impl.F.Size_search.io_used (F.Fabric.io_capacity fabric);
        let pins = e.A.Selection.cluster.A.Clustering.io_pins in
        if pins > cfg.C.Flow_config.max_io_pins then
          fail "%s: cluster has %d pins, budget %d" label pins
            cfg.C.Flow_config.max_io_pins)
      chosen;
    List.iteri
      (fun i (a : A.Selection.efpga_impl) ->
        List.iteri
          (fun k (b : A.Selection.efpga_impl) ->
            if i < k
               && not
                    (A.Clustering.disjoint a.A.Selection.cluster
                       b.A.Selection.cluster)
            then fail "chosen eFPGAs %d and %d share an instance" i k)
          chosen)
      chosen;
    !errs

(* Problems with one job's outputs; empty when it is correct. *)
let check expected j flow red =
  let design_name = j.bench.B.name in
  Option.to_list
    (Expected.check expected ~key:j.key ~got:(summary ~design_name flow red))
  @ List.map (fun e -> j.key ^ ": " ^ e) (invariants j.config flow)

(* ---- untraced (timed) job ---- *)

let run_job j =
  let flow = A.Flow.run_request (request j) in
  (flow, A.Flow.redact flow)

(* ---- traced job: the same flow, one public layer call at a time ---- *)

let span = Trace.span
let count name v = Trace.count name (float v)

let valid_candidates (cfg : C.Flow_config.t) characterized =
  List.filter_map
    (fun (c : A.Characterize.characterization) ->
      match (c.A.Characterize.outcome, c.A.Characterize.mapped) with
      | A.Characterize.Implemented impl, Some mapped
        when impl.F.Size_search.clb_util
             >= cfg.C.Flow_config.min_clb_utilization ->
        Some (impl.F.Size_search.fabric, mapped)
      | _ -> None)
    characterized

(* Mirrors [Flow.run_request] followed by [Flow.redact]. [cache] serves
   characterizations from a warm engine (the serve replay); without it
   every job starts cold, as in the timed passes. *)
let traced_flow ?cache ?file ~key (cfg : C.Flow_config.t) text =
  Trace.set_job key;
  span "job" (fun () ->
      let ast, errors =
        span "verilog.parse" (fun () -> V.Parser.parse_with_recovery ?file text)
      in
      if errors <> [] then failwith (key ^ ": syntax errors in the source");
      let design =
        span "verilog.elaborate" (fun () ->
            V.Elaborate.elaborate ?top:cfg.C.Flow_config.top ast)
      in
      let df =
        span "analysis.dataflow" (fun () -> Alice_analysis.Dataflow.build design)
      in
      let filtering = span "filtering" (fun () -> A.Filtering.run df cfg) in
      let clusters =
        span "clustering" (fun () -> A.Clustering.run df cfg filtering)
      in
      count "clustering.clusters" (List.length clusters);
      let characterized, stats =
        span "characterize" (fun () ->
            A.Characterize.run_all_stats ~jobs:cfg.C.Flow_config.jobs ?cache
              design cfg clusters)
      in
      count "characterize.unique" stats.A.Characterize.unique;
      count "characterize.computed" stats.A.Characterize.computed;
      count "characterize.hits" stats.A.Characterize.cache_hits;
      let scorer =
        match cfg.C.Flow_config.score_mode with
        | C.Flow_config.Heuristic -> Scorer.Heuristic
        | C.Flow_config.Measured ->
          (* attack every candidate here; selection then reads the
             verdicts back from the cache *)
          let cache = Scorer.create_cache () in
          ignore
            (span "scorer.measure" (fun () ->
                 Scorer.measure ~cache:(Some cache) cfg
                   (valid_candidates cfg characterized)));
          Scorer.Measured { cache = Some cache }
      in
      let total_instances =
        List.length (A.Filtering.candidate_instances filtering)
      in
      let selection =
        span "selection" (fun () ->
            A.Selection.run ~scorer cfg characterized ~total_instances)
      in
      count "selection.solutions" (A.Selection.solution_count selection);
      let flow =
        { A.Flow.config = cfg; ast; design; filtering; clusters; characterized;
          selection; diags = [];
          times = { A.Flow.filtering_s = 0.0; clustering_s = 0.0;
                    selection_s = 0.0 };
          char_stats = stats }
      in
      let red = span "redact" (fun () -> A.Flow.redact flow) in
      Option.iter
        (fun r -> count "redact.bytes" (String.length r.A.Redact.verilog))
        red;
      (flow, red))

(* Implemented outcomes among the unique characterization keys; counted
   outside the job's span so it does not read as flow time. *)
let count_implemented (cfg : C.Flow_config.t) (flow : A.Flow.t) =
  let key_of = A.Characterize.keyer flow.A.Flow.design cfg in
  count "characterize.implemented"
    (List.length
       (List.sort_uniq compare
          (List.filter_map
             (fun (c : A.Characterize.characterization) ->
               match c.A.Characterize.outcome with
               | A.Characterize.Implemented _ ->
                 Some (key_of c.A.Characterize.cluster)
               | _ -> None)
             flow.A.Flow.characterized)))

let traced_job j =
  let text, file = source j in
  let flow, red = traced_flow ~file ~key:j.key j.config text in
  count_implemented j.config flow;
  (flow, red)

(* ---- probes: what the characterize and security layers are made of ----

   Run after a traced pass, outside its wall time. Each unique cluster
   is synthesized, mapped and size-searched again serially, then packed,
   placed and routed once at the chosen width; each unique measured
   candidate is locked and attacked again with a counting oracle. The
   probes must reproduce the flow's own outcomes. *)

let probe_characterize (cfg : C.Flow_config.t) (flow : A.Flow.t) : string list =
  let design = flow.A.Flow.design in
  let arch = F.Arch.of_config cfg in
  let key_of = A.Characterize.keyer design cfg in
  let seen = Hashtbl.create 64 in
  let errs = ref [] in
  List.iter
    (fun (c : A.Characterize.characterization) ->
      let key = key_of c.A.Characterize.cluster in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        match
          span "netlist.synth_map" (fun () ->
              A.Characterize.cluster_circuit design cfg c.A.Characterize.cluster)
        with
        | exception e -> (
          match c.A.Characterize.outcome with
          | A.Characterize.Failed _ -> ()
          | _ -> errs := ("synth/map raised " ^ Printexc.to_string e) :: !errs)
        | mapped -> (
          count "netlist.luts" (N.Circuit.lut_count mapped);
          let result =
            span "fabric.size_search" (fun () ->
                F.Size_search.minimum arch
                  ~min_size:cfg.C.Flow_config.min_fabric_size
                  ~max_size:cfg.C.Flow_config.max_fabric_size
                  ~target_utilization:cfg.C.Flow_config.target_utilization
                  mapped)
          in
          match (result, c.A.Characterize.outcome) with
          | Ok impl, A.Characterize.Implemented flow_impl ->
            let fabric = impl.F.Size_search.fabric in
            if F.Fabric.size_label fabric
               <> F.Fabric.size_label flow_impl.F.Size_search.fabric
            then errs := "size search disagrees with the flow" :: !errs;
            count "fabric.width_sum" fabric.F.Fabric.width;
            count "fabric.clbs" impl.F.Size_search.clbs_used;
            ignore (span "fabric.pack" (fun () -> F.Place.pack arch mapped));
            let placement =
              span "fabric.place" (fun () -> F.Place.place fabric mapped)
            in
            ignore (span "fabric.route" (fun () -> F.Route.route placement))
          | Error _, A.Characterize.Infeasible _ -> ()
          | _ -> errs := "size search outcome disagrees with the flow" :: !errs)
      end)
    flow.A.Flow.characterized;
  !errs

let probe_security (cfg : C.Flow_config.t) (flow : A.Flow.t) : string list =
  let budget = Scorer.measured_budget cfg in
  let seen = Hashtbl.create 16 in
  let errs = ref [] in
  List.iter
    (fun (e : A.Selection.efpga_impl) ->
      let fabric = e.A.Selection.impl.F.Size_search.fabric in
      let mapped = e.A.Selection.mapped in
      let key = Scorer.verdict_key cfg ~fabric ~mapped in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        let locked, oracle =
          span "security.lock" (fun () ->
              let locked = Sec.Locked.of_mapped mapped in
              (locked, Sec.Locked.make_oracle locked))
        in
        let oracle_s = ref 0.0 and oracle_calls = ref 0 in
        let counting_oracle x =
          let r, dt = Util.time (fun () -> oracle x) in
          oracle_s := !oracle_s +. dt;
          incr oracle_calls;
          r
        in
        let calls0 = Alice_sat.Solver.total_calls () in
        let o =
          span "security.attack" (fun () ->
              Sec.Sat_attack.attack ~budget locked ~oracle:counting_oracle)
        in
        count "sat.solver_calls" (Alice_sat.Solver.total_calls () - calls0);
        Trace.count "security.oracle_s" !oracle_s;
        count "security.oracle_calls" !oracle_calls;
        count "security.attacks" 1;
        count "security.dips" o.Sec.Sat_attack.iterations;
        count "security.conflicts" o.Sec.Sat_attack.conflicts;
        count "security.reused" o.Sec.Sat_attack.reused;
        (* the re-run attack must reproduce the verdict selection used *)
        (match e.A.Selection.verdict with
        | Some v
          when v.Scorer.v_status = o.Sec.Sat_attack.status
               && v.Scorer.v_iterations = o.Sec.Sat_attack.iterations
               && v.Scorer.v_conflicts = o.Sec.Sat_attack.conflicts -> ()
        | _ -> errs := "attack re-run disagrees with its verdict" :: !errs);
        match (o.Sec.Sat_attack.status, o.Sec.Sat_attack.key) with
        | Sec.Sat_attack.Converged, Some key ->
          count "security.converged" 1;
          if
            not
              (span "security.key_check" (fun () ->
                   Sec.Metrics.key_is_correct locked key))
          then errs := "a converged attack recovered a wrong key" :: !errs
        | Sec.Sat_attack.Converged, None ->
          errs := "a converged attack returned no key" :: !errs
        | (Sec.Sat_attack.Exhausted | Sec.Sat_attack.Inconclusive), _ -> ()
      end)
    flow.A.Flow.selection.A.Selection.valid;
  !errs

let probe j flow =
  Trace.set_job j.key;
  span "probe" (fun () ->
      let errs = probe_characterize j.config flow in
      match j.config.C.Flow_config.score_mode with
      | C.Flow_config.Heuristic -> errs
      | C.Flow_config.Measured -> errs @ probe_security j.config flow)
