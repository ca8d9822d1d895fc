(* The ALICE command-line tool.

     alice inspect  design.v                 # Table-1 style characteristics
     alice redact   design.v -c flow.yaml -o out.v [--opaque]
     alice redact   - < design.v             # same, source on stdin
     alice sweep    design.v -c sweep.yaml   # config grid over one design
     alice attack    design.v -m module      # lock a module and SAT-attack it
     alice decompose design.v -m module      # fine-grained redaction prep
     alice simulate  design.v --vcd out.vcd  # random-stimulus simulation
     alice bench     <name>                  # run a bundled benchmark
     alice serve     --socket /run/alice.sock  # long-lived redaction daemon
     alice client    --socket /run/alice.sock request.json  # talk to it

   The YAML configuration file follows the paper's Section 3; see
   Alice_config.Flow_config for the recognized keys. serve/client speak
   the newline-delimited JSON protocol of Alice_server.Protocol over a
   Unix-domain socket, sharing one characterization cache across every
   request.

   redact, bench and sweep share one flag group: --jobs (characterization
   worker domains), --cache-dir and --no-cache (the persistent
   characterization cache; see Alice.Engine), plus the measured-selection
   knobs --score, --attack-budget and --attack-jobs (see
   Alice.Selection.Scorer). Warm-cache runs produce byte-identical output
   to cold ones, they just skip CreateEFPGA (and, under --score measured,
   replay cached attack verdicts instead of re-running the SAT attack).

   Errors are reported as structured diagnostics (--diag-format=text|json;
   text goes to stderr, json to stdout). Exit codes: 0 success, 1 input
   errors were reported, 2 internal failure. *)

open Cmdliner

module A = Alice
module B = Alice_benchmarks.Suite
module C = Alice_config
module D = Alice_diag.Diag
module F = Alice_fabric
module N = Alice_netlist
module V = Alice_verilog
module Sec = Alice_security
module S = Alice_server
module J = Alice_config.Json_lite

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_design path =
  let src = read_file path in
  V.Parser.parse ~file:path src

let load_config = function
  | None -> C.Flow_config.default
  | Some path -> C.Flow_config.of_string (read_file path)

(* ---------- diagnostics plumbing ---------- *)

let diag_format =
  let fmt_conv = Arg.enum [ ("text", D.Text); ("json", D.Json) ] in
  Arg.(value & opt fmt_conv D.Text
       & info [ "diag-format" ] ~docv:"FMT"
           ~doc:"Diagnostic output format: $(b,text) (to stderr) or \
                 $(b,json) (to stdout).")

(* ---------- parallelism & cache plumbing ----------

   One flag group, threaded identically through redact, bench, sweep,
   advise and serve: it evaluates to a configuration overlay holding
   the keys the flags set, which [Flow_config.apply] lays over whatever
   configuration a command loaded — so flags are validated exactly like
   the same keys in a YAML file. *)

let flow_flags : C.Yaml_lite.t Cmdliner.Term.t =
  let jobs =
    Arg.(value & opt (some int) None
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Characterize candidate clusters across $(docv) worker \
                   domains. $(b,1) disables parallelism; the default is \
                   the machine's recommended domain count. Results are \
                   identical for any value.")
  in
  let cache_dir =
    Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Root of the persistent characterization cache. \
                   Defaults to \\$ALICE_CACHE_DIR, \
                   \\$XDG_CACHE_HOME/alice or ~/.cache/alice. Warm runs \
                   produce byte-identical results, they just skip \
                   already-characterized eFPGAs.")
  in
  let no_cache =
    Arg.(value & flag
         & info [ "no-cache" ]
             ~doc:"Disable the persistent characterization cache for \
                   this invocation (nothing is read or written).")
  in
  let score =
    Arg.(value & opt (some (enum [ ("heuristic", "heuristic");
                                   ("measured", "measured") ])) None
         & info [ "score" ] ~docv:"MODE"
             ~doc:"Candidate scoring: $(b,heuristic) ranks by the paper's \
                   Eq. 1 (the default); $(b,measured) runs a budgeted \
                   oracle-guided SAT attack against each candidate's \
                   locked netlist and ranks on measured key-recovery \
                   cost traded against area. Verdicts are cached next to \
                   characterizations, so warm reruns perform no solver \
                   calls.")
  in
  let attack_budget =
    Arg.(value & opt (some int) None
         & info [ "attack-budget" ] ~docv:"CONFLICTS"
             ~doc:"Solver conflict budget per measured-selection attack; \
                   candidates that exhaust it count as $(b,inconclusive) \
                   (i.e. resistant at this budget). Only meaningful with \
                   $(b,--score measured).")
  in
  let attack_jobs =
    Arg.(value & opt (some int) None
         & info [ "attack-jobs" ] ~docv:"N"
             ~doc:"Run measured-selection attacks across $(docv) worker \
                   domains. Rankings are identical for any value.")
  in
  let gather jobs cache_dir no_cache score attack_budget attack_jobs =
    let module Y = C.Yaml_lite in
    let set key f = Option.map (fun v -> (key, f v)) in
    Y.Map
      (List.filter_map Fun.id
         [ set "jobs" (fun n -> Y.Int n) jobs;
           set "cache_dir" (fun d -> Y.String d) cache_dir;
           (if no_cache then Some ("cache", Y.Bool false) else None);
           set "score" (fun m -> Y.String m) score;
           set "attack_budget" (fun n -> Y.Int n) attack_budget;
           set "attack_jobs" (fun n -> Y.Int n) attack_jobs ])
  in
  Term.(const gather $ jobs $ cache_dir $ no_cache $ score $ attack_budget
        $ attack_jobs)

(* the per-run cache accounting, on stderr next to the tables *)
let report_cache_line (flow : A.Flow.t) : unit =
  let s = flow.A.Flow.char_stats in
  Format.eprintf "cache: %d hits, %d computed, %d unique@."
    s.A.Characterize.cache_hits s.A.Characterize.computed
    s.A.Characterize.unique

(* measured-selection accounting, printed only when attacks could run *)
let report_attack_line (cfg : C.Flow_config.t) (flow : A.Flow.t) : unit =
  match cfg.C.Flow_config.score_mode with
  | C.Flow_config.Heuristic -> ()
  | C.Flow_config.Measured ->
    let a = flow.A.Flow.selection.A.Selection.attack in
    Format.eprintf "attack: %d run, %d cached, %d inconclusive, %d reused@."
      a.A.Selection.Scorer.attacks_run a.A.Selection.Scorer.attacks_cached
      a.A.Selection.Scorer.attacks_inconclusive
      a.A.Selection.Scorer.attacks_reused;
    (* per-candidate verdicts, one line per valid fabric implementation *)
    match A.Report.verdict_rows flow with
    | [] -> ()
    | rows ->
      Format.eprintf "%a" A.Report.pp_verdict_header ();
      List.iter (fun r -> Format.eprintf "%a" A.Report.pp_verdict_row r) rows

let render_diags (fmt : D.format) (diags : D.t list) : unit =
  if diags <> [] then
    match fmt with
    | D.Text -> prerr_string (D.render_list D.Text diags)
    | D.Json -> print_string (D.render_list D.Json diags)

(* Classify an exception that escaped a command into a diagnostic plus
   the exit code it implies: recognized input/configuration problems are
   1, anything unexpected is an internal failure, 2. *)
let diag_of_cli_exn : exn -> D.t * int = function
  | V.Loc.Error (loc, msg) -> (D.error ~loc ~code:"E0100" "%s" msg, 1)
  | C.Yaml_lite.Parse_error (line, msg) ->
    (D.error ~code:"E0601" "configuration parse error at line %d: %s" line msg, 1)
  | J.Parse_error (line, msg) ->
    (D.error ~code:"E1000" "request parse error at line %d: %s" line msg, 1)
  | S.Client.Connection_error msg -> (D.error ~code:"E0001" "%s" msg, 1)
  | N.Synth.Synthesis_error msg -> (D.error ~code:"E0201" "synthesis error: %s" msg, 1)
  | N.Simulate.Combinational_cycle msg ->
    (D.error ~code:"E0202" "combinational cycle: %s" msg, 1)
  | A.Redact.Redaction_error msg -> (D.error ~code:"E0800" "redaction error: %s" msg, 1)
  | Invalid_argument msg -> (D.error ~code:"E0602" "%s" msg, 1)
  | Sys_error msg -> (D.error ~code:"E0001" "%s" msg, 1)
  | e -> (D.of_exn e, 2)

(* Run a command body that returns its own exit code; exceptions become
   rendered diagnostics (appended to any partial ones already collected)
   and the classified exit code. *)
let handle_errors ~(fmt : D.format) ?(collector : D.Collector.t option)
    (f : unit -> int) : int =
  match f () with
  | code -> code
  | exception e ->
    let d, code = diag_of_cli_exn e in
    let pending =
      match collector with Some c -> D.Collector.list c | None -> []
    in
    render_diags fmt (pending @ [ d ]);
    code

(* ---------- inspect ---------- *)

let inspect_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"DESIGN.v") in
  let top =
    Arg.(value & opt (some string) None & info [ "t"; "top" ] ~docv:"MODULE")
  in
  let run file top fmt =
    handle_errors ~fmt (fun () ->
        let ast = load_design file in
        let d = V.Elaborate.elaborate ?top ast in
        Format.printf "top module: %s@." d.V.Elaborate.d_top;
        Format.printf "%a" A.Report.pp_table1_header ();
        Format.printf "%a" A.Report.pp_table1_row
          (A.Report.table1_row ~design_name:(Filename.basename file) d);
        Format.printf "@.modules:@.";
        List.iter
          (fun (m : V.Elaborate.emodule) ->
            Format.printf "  %-24s %4d I/O pins, %d instance(s)@."
              m.V.Elaborate.em_name
              (V.Elaborate.io_pin_count m)
              (List.length (V.Design.instances_of_module d m.V.Elaborate.em_name)))
          (V.Design.non_top_modules d);
        0)
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Show design characteristics (Table 1 style)")
    Term.(const run $ file $ top $ diag_format)

(* ---------- redact ---------- *)

let redact_cmd =
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"DESIGN.v"
             ~doc:"Verilog source file, or $(b,-) to read it from stdin.")
  in
  let config =
    Arg.(value & opt (some file) None & info [ "c"; "config" ] ~docv:"FLOW.yaml")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT.v")
  in
  let opaque = Arg.(value & flag & info [ "opaque" ] ~doc:"Emit the foundry view") in
  let run file config output opaque flags fmt =
    let collector = D.Collector.create () in
    handle_errors ~fmt ~collector (fun () ->
        let src, src_name =
          if file = "-" then (In_channel.input_all In_channel.stdin, "<stdin>")
          else (read_file file, file)
        in
        let cfg = C.Flow_config.apply flags (load_config config) in
        let engine = A.Engine.of_config cfg in
        (* recovering front end: every syntax error lands in the
           collector and surviving modules continue through the flow *)
        let flow =
          A.Engine.run engine
            (A.Flow.request ~config:cfg ~diags:collector
               (A.Flow.Text { text = src; file = Some src_name }))
        in
        report_cache_line flow;
        report_attack_line cfg flow;
        Format.eprintf "%a" A.Report.pp_table2_header ();
        Format.eprintf "%a" A.Report.pp_table2_row
          (A.Report.row_of_flow ~design_name:(Filename.basename src_name) flow);
        let view = if opaque then A.Redact.Opaque else A.Redact.Programmed in
        let code =
          match A.Flow.redact ~view flow with
          | None ->
            D.Collector.add collector
              (D.error ~code:"E0801"
                 "no feasible redaction under this configuration");
            1
          | Some r ->
            List.iter
              (fun (s : A.Redact.efpga_site) ->
                Format.eprintf "%s at %s: %d modules, gpio %d in / %d out@."
                  s.efpga_name s.insertion_point (List.length s.members)
                  s.gpio_in_width s.gpio_out_width)
              r.A.Redact.sites;
            (match output with
            | Some path ->
              let oc = open_out path in
              output_string oc r.A.Redact.verilog;
              close_out oc;
              Format.eprintf "wrote %s@." path
            | None -> print_string r.A.Redact.verilog);
            if D.Collector.has_errors collector then 1 else 0
        in
        render_diags fmt (D.Collector.list collector);
        code)
  in
  Cmd.v
    (Cmd.info "redact" ~doc:"Run the ALICE flow and emit the redacted design")
    Term.(const run $ file $ config $ output $ opaque $ flow_flags $ diag_format)

(* ---------- sweep ---------- *)

(* A sweep file describes a configuration grid over one design:

     base:              # optional: flow-config keys shared by all entries
       max_io_pins: 64
     sweep:             # one flow-config map per run; `name` labels the row
       - name: two-efpga
         max_efpgas: 2
       - name: one-big
         max_efpgas: 1
         fabric:
           max_size: 16

   Every entry is deep-merged over `base` (entry wins) and run through
   one engine, so entries sharing fabric parameters share
   characterizations — within the sweep and, via the persistent cache,
   with every earlier run. *)

let sweep_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"DESIGN.v") in
  let config =
    Arg.(required & opt (some file) None
         & info [ "c"; "config" ] ~docv:"SWEEP.yaml"
             ~doc:"Sweep description: an optional $(b,base) \
                   configuration map and a $(b,sweep) list of \
                   configuration overlays, one flow run per entry.")
  in
  let no_resume =
    Arg.(value & flag
         & info [ "no-resume" ]
             ~doc:"Recompute every entry instead of serving entries \
                   already checkpointed by an earlier (possibly killed) \
                   run of the same sweep. Checkpoints are still written.")
  in
  let run file config no_resume flags fmt =
    handle_errors ~fmt (fun () ->
        let doc = C.Yaml_lite.parse (read_file config) in
        let base =
          Option.value (C.Yaml_lite.find doc "base") ~default:C.Yaml_lite.Null
        in
        let entries =
          match C.Yaml_lite.find doc "sweep" with
          | Some (C.Yaml_lite.List (_ :: _ as items)) -> items
          | Some _ -> invalid_arg "sweep: expected a non-empty list of maps"
          | None -> invalid_arg "sweep: missing `sweep` list"
        in
        let ast = load_design file in
        (* cache knobs (and the engine) come from base + flags; each
           entry still carries its own full configuration *)
        let config doc = C.Flow_config.(apply flags (of_yaml doc)) in
        let engine = A.Engine.of_config (config base) in
        let points =
          A.Engine.sweep_points ~config ~base entries (A.Flow.Ast ast)
        in
        let results = A.Engine.run_sweep ~resume:(not no_resume) engine points in
        Format.printf "%-16s %-8s %-16s %9s %9s %9s %6s %9s %8s %8s@." "config"
          "feasible" "best eFPGA(s)" "filter(s)" "cluster(s)" "select(s)"
          "hits" "computed" "skipped" "resumed";
        List.iter
          (fun (sp : A.Engine.sweep_point) ->
            let feasible = if sp.A.Engine.sp_feasible then "yes" else "no" in
            let sizes = Option.value sp.A.Engine.sp_fabrics ~default:"-" in
            let t = sp.A.Engine.sp_times in
            Format.printf
              "%-16s %-8s %-16s %9.2f %9.2f %9.2f %6d %9d %8d %8s@."
              sp.A.Engine.sp_name feasible sizes t.A.Flow.filtering_s
              t.A.Flow.clustering_s t.A.Flow.selection_s sp.A.Engine.sp_hits
              sp.A.Engine.sp_computed sp.A.Engine.sp_skipped
              (if sp.A.Engine.sp_resumed then "yes" else "no"))
          results;
        let resumed =
          List.length
            (List.filter (fun sp -> sp.A.Engine.sp_resumed) results)
        in
        if resumed > 0 then
          Format.eprintf
            "sweep: %d of %d entries resumed from checkpoints (use \
             --no-resume to recompute)@."
            resumed (List.length results);
        (match A.Engine.disk_stats engine with
        | None -> ()
        | Some ds ->
          Format.eprintf "cache store: %d disk hits, %d stores, %d failures (%s)@."
            ds.A.Disk_cache.disk_hits ds.A.Disk_cache.stores
            ds.A.Disk_cache.failures
            (Option.value (A.Engine.cache_root engine) ~default:"-"));
        (* diagnostics, each tagged with its entry's name *)
        let tagged = List.concat_map A.Engine.point_diags results in
        render_diags fmt tagged;
        if List.exists D.is_error tagged then 1 else 0)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Run a YAML-described configuration grid over one design, \
             reusing characterizations across entries and runs; completed \
             entries are checkpointed, so a killed sweep resumes where it \
             died")
    Term.(const run $ file $ config $ no_resume $ flow_flags $ diag_format)

(* ---------- advise ----------

   The pre-architecture advisor: enumerate a candidate grid over the
   searchable (arch × config) axes, run it through the sweep machinery
   (cached, per-point resumable, attack-verdict-warm), and rank the
   Pareto front over (area, timing, security). The JSON report is
   deliberately free of wall-clock and resume provenance, so cold and
   warm runs are byte-identical — check.sh asserts it. *)

let advise_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"DESIGN.v") in
  let constraints =
    Arg.(value & opt (some file) None
         & info [ "c"; "constraints" ] ~docv:"CONSTRAINTS.yaml"
             ~doc:"Constraint document: an optional $(b,base) \
                   flow-configuration map applied to every candidate, \
                   plus an optional $(b,axes) map pinning the grid axes \
                   ($(b,lut_inputs), $(b,max_fabric_size), \
                   $(b,target_utilization), $(b,attack_budget), \
                   $(b,score)). Unpinned axes default from the design \
                   itself.")
  in
  let format =
    let format_conv = Arg.enum [ ("text", `Text); ("json", `Json) ] in
    Arg.(value & opt format_conv `Text
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Report format: $(b,text) (ranked table on stderr, \
                   recommendation on stdout) or $(b,json) \
                   (machine-readable report on stdout).")
  in
  let no_resume =
    Arg.(value & flag
         & info [ "no-resume" ]
             ~doc:"Recompute every candidate instead of serving \
                   candidates already checkpointed by an earlier \
                   (possibly killed) run over the same grid. \
                   Checkpoints are still written.")
  in
  let run file constraints format no_resume flags fmt =
    handle_errors ~fmt (fun () ->
        let doc =
          match constraints with
          | None -> C.Yaml_lite.Null
          | Some path -> C.Yaml_lite.parse (read_file path)
        in
        let base_doc =
          Option.value (C.Yaml_lite.find doc "base") ~default:C.Yaml_lite.Null
        in
        let base = C.Flow_config.(apply flags (of_yaml base_doc)) in
        let ast = load_design file in
        let source = A.Flow.Ast ast in
        let plan = A.Advisor.plan_of_source ~base ~constraints:doc source in
        let engine = A.Engine.of_config base in
        let report =
          A.Advisor.run ~resume:(not no_resume) engine ~source plan
        in
        let entries = report.A.Advisor.r_entries in
        let resumed =
          List.length
            (List.filter
               (fun (e : A.Advisor.entry) ->
                 e.A.Advisor.e_point.A.Engine.sp_resumed)
               entries)
        in
        if resumed > 0 then
          Format.eprintf
            "advise: %d of %d candidates resumed from checkpoints (use \
             --no-resume to recompute)@."
            resumed (List.length entries);
        (match format with
        | `Json ->
          print_endline (J.to_string (A.Advisor.json_of_report report))
        | `Text ->
          Format.eprintf "%a" A.Report.pp_advise_header ();
          List.iter
            (fun r -> Format.eprintf "%a" A.Report.pp_advise_row r)
            (A.Advisor.table_rows report);
          Format.printf "advise: %d candidates (%d deduplicated), Pareto \
                         front of %d@."
            (List.length entries) report.A.Advisor.r_deduped
            (List.length report.A.Advisor.r_front);
          match report.A.Advisor.r_front with
          | [] -> Format.printf "recommend: none (no feasible candidate)@."
          | best :: _ ->
            let sp = best.A.Advisor.e_point in
            let m =
              match sp.A.Engine.sp_metrics with
              | Some m -> m
              | None -> assert false (* front members are feasible *)
            in
            Format.printf
              "recommend: %s (fabrics %s): area %.0f um2, path %.2f ns, \
               security %.3f (%s)@."
              best.A.Advisor.e_name
              (Option.value sp.A.Engine.sp_fabrics ~default:"-")
              m.A.Engine.pm_area_um2 m.A.Engine.pm_timing_ns
              m.A.Engine.pm_security
              (C.Flow_config.score_mode_to_string m.A.Engine.pm_security_mode));
        (* diagnostics, each tagged with its candidate's name *)
        let tagged =
          List.concat_map
            (fun (e : A.Advisor.entry) ->
              A.Engine.point_diags e.A.Advisor.e_point)
            entries
        in
        render_diags fmt tagged;
        if List.exists D.is_error tagged then 1 else 0)
  in
  Cmd.v
    (Cmd.info "advise"
       ~doc:"Recommend fabric configurations for a design before \
             committing to one: sweep a candidate grid over the (arch × \
             config) space, compute the Pareto front over area, timing \
             and security, and rank it. Candidates are cached and \
             checkpointed like sweep entries, so a killed run resumes \
             with zero recomputation")
    Term.(const run $ file $ constraints $ format $ no_resume $ flow_flags
          $ diag_format)

(* ---------- attack ---------- *)

let attack_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"DESIGN.v") in
  let module_name =
    Arg.(required & opt (some string) None & info [ "m"; "module" ] ~docv:"MODULE")
  in
  let iterations =
    Arg.(value & opt int 256 & info [ "iterations" ] ~docv:"N")
  in
  let seconds = Arg.(value & opt float 60.0 & info [ "timeout" ] ~docv:"S") in
  let solver_budget =
    Arg.(value & opt (some int) None
         & info [ "attack-budget" ] ~docv:"CONFLICTS"
             ~doc:"Conflict budget per SAT-solver call; when exhausted the \
                   attack reports $(b,inconclusive) instead of looping. \
                   Same name and meaning as the flow commands' \
                   measured-selection flag.")
  in
  let run file module_name iterations seconds solver_budget fmt =
    handle_errors ~fmt (fun () ->
        let ast = load_design file in
        let d = V.Elaborate.elaborate ast in
        let circuit = N.Synth.synthesize_module d module_name in
        let mapped, _ = N.Lutmap.map ~k:4 circuit in
        Format.printf "module %s: %d LUTs, %d FFs, %d I/O bits@." module_name
          (N.Circuit.lut_count mapped) (N.Circuit.dff_count mapped)
          (N.Circuit.io_bit_count mapped);
        let budget =
          { Sec.Sat_attack.max_iterations = iterations; max_seconds = seconds;
            solver_conflicts = solver_budget }
        in
        let locked = Sec.Locked.of_mapped mapped in
        let oracle = Sec.Locked.make_oracle locked in
        let o = Sec.Sat_attack.attack ~budget locked ~oracle in
        Format.printf "key space: %d bits@." o.Sec.Sat_attack.key_bits;
        (match o.Sec.Sat_attack.status with
        | Sec.Sat_attack.Converged ->
          let correct =
            match o.Sec.Sat_attack.key with
            | Some key -> Sec.Metrics.key_is_correct locked key
            | None -> false
          in
          Format.printf
            "attack converged after %d distinguishing inputs in %.2fs; \
             recovered key is %s@."
            o.Sec.Sat_attack.iterations o.Sec.Sat_attack.seconds
            (if correct then "functionally correct" else "NOT correct")
        | Sec.Sat_attack.Exhausted ->
          Format.printf "attack exhausted its budget after %d DIPs (%.2fs)@."
            o.Sec.Sat_attack.iterations o.Sec.Sat_attack.seconds
        | Sec.Sat_attack.Inconclusive ->
          render_diags fmt
            [ D.warning ~code:"W0501"
                "attack inconclusive: solver conflict budget exhausted \
                 after %d DIPs (%.2fs); proves nothing about the lock"
                o.Sec.Sat_attack.iterations o.Sec.Sat_attack.seconds ]);
        0)
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:"Lock one module as an eFPGA and run the oracle-guided SAT attack")
    Term.(const run $ file $ module_name $ iterations $ seconds $ solver_budget
          $ diag_format)

(* ---------- decompose ---------- *)

let decompose_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"DESIGN.v") in
  let module_name =
    Arg.(required & opt (some string) None & info [ "m"; "module" ] ~docv:"MODULE")
  in
  let pins = Arg.(value & opt int 64 & info [ "pins" ] ~docv:"N") in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT.v")
  in
  let run file module_name pins output fmt =
    handle_errors ~fmt (fun () ->
        let ast = load_design file in
        match A.Decompose.decompose_module ast ~module_name ~max_io_pins:pins with
        | exception A.Decompose.Unsupported msg ->
          render_diags fmt
            [ D.error ~code:"E0802" "cannot decompose: %s" msg ];
          1
        | design', plan ->
          List.iter2
            (fun part outs ->
              Format.eprintf "%s <- outputs {%s}@." part (String.concat ", " outs))
            plan.A.Decompose.part_names plan.A.Decompose.group_outputs;
          let text = V.Pp.design_to_string design' in
          (match output with
          | Some path ->
            let oc = open_out path in
            output_string oc text;
            close_out oc;
            Format.eprintf "wrote %s@." path
          | None -> print_string text);
          0)
  in
  Cmd.v
    (Cmd.info "decompose"
       ~doc:"Split a combinational module into eFPGA-sized parts              (fine-grained redaction pre-processing)")
    Term.(const run $ file $ module_name $ pins $ output $ diag_format)

(* ---------- simulate ---------- *)

let simulate_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"DESIGN.v") in
  let top =
    Arg.(value & opt (some string) None & info [ "t"; "top" ] ~docv:"MODULE")
  in
  let cycles = Arg.(value & opt int 32 & info [ "cycles" ] ~docv:"N") in
  let vcd_out =
    Arg.(value & opt (some string) None & info [ "vcd" ] ~docv:"OUT.vcd")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S") in
  let run file top cycles vcd_out seed fmt =
    handle_errors ~fmt (fun () ->
        let ast = load_design file in
        let d = V.Elaborate.elaborate ?top ast in
        let c = N.Synth.synthesize d in
        let sim = N.Simulate.create c in
        let vcd = N.Vcd.create ~module_name:d.V.Elaborate.d_top sim in
        let st = Random.State.make [| seed |] in
        for _ = 1 to cycles do
          List.iter
            (fun (name, nets) ->
              N.Simulate.set_input_bits sim name
                (Array.init (Array.length nets) (fun _ -> Random.State.bool st)))
            c.N.Circuit.inputs;
          N.Simulate.step sim;
          N.Simulate.eval sim;
          N.Vcd.sample vcd
        done;
        List.iter
          (fun (name, _) ->
            Format.printf "%s = %d@." name (N.Simulate.read_output sim name))
          c.N.Circuit.outputs;
        (match vcd_out with
        | Some path ->
          N.Vcd.write_file vcd path;
          Format.eprintf "wrote %s@." path
        | None -> ());
        0)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Synthesize and simulate a design with random stimuli;              optionally dump a VCD waveform")
    Term.(const run $ file $ top $ cycles $ vcd_out $ seed $ diag_format)

(* ---------- bench ---------- *)

let bench_cmd =
  let bench_name = Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK") in
  let cfg2 = Arg.(value & flag & info [ "cfg2" ] ~doc:"Use the paper's cfg2") in
  let dump =
    Arg.(value & flag
         & info [ "dump-source" ]
             ~doc:"Print the benchmark's Verilog source and exit \
                   (for driving $(b,redact) on a bundled design).")
  in
  let run name cfg2 dump flags fmt =
    handle_errors ~fmt (fun () ->
        match B.find name with
        | None ->
          render_diags fmt
            [ D.error ~code:"E0002" "unknown benchmark %s (have: %s)" name
                (String.concat ", " (List.map (fun b -> b.B.name) B.all)) ];
          1
        | Some b when dump ->
          print_string b.B.source;
          0
        | Some b ->
          let config =
            C.Flow_config.apply flags
              (if cfg2 then B.config2 b else B.config1 b)
          in
          let engine = A.Engine.of_config config in
          let flow =
            A.Engine.run engine
              (A.Flow.request ~config (A.Flow.Ast (B.parse b)))
          in
          report_cache_line flow;
          report_attack_line config flow;
          Format.printf "%a" A.Report.pp_table2_header ();
          Format.printf "%a" A.Report.pp_table2_row
            (A.Report.row_of_flow ~design_name:b.B.name flow);
          (match flow.A.Flow.selection.A.Selection.best with
          | None -> ()
          | Some best -> Format.printf "best: %a@." A.Selection.pp_solution best);
          render_diags fmt flow.A.Flow.diags;
          if List.exists D.is_error flow.A.Flow.diags then 1 else 0)
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Run a bundled benchmark through the flow")
    Term.(const run $ bench_name $ cfg2 $ dump $ flow_flags $ diag_format)

(* ---------- serve ---------- *)

let connect_arg =
  Arg.(required & opt (some string) None
       & info [ "s"; "socket"; "connect" ] ~docv:"ENDPOINT"
           ~doc:"Endpoint of the daemon: $(b,unix:PATH), $(b,tcp:HOST:PORT), \
                 or a bare Unix-socket path.")

let serve_cmd =
  let listen =
    Arg.(value & opt_all string []
         & info [ "l"; "listen" ] ~docv:"ENDPOINT"
             ~doc:"Listen on $(docv): $(b,unix:PATH) or $(b,tcp:HOST:PORT) \
                   ($(b,PORT) $(b,0) picks an ephemeral port, printed on \
                   startup). Repeatable; one acceptor multiplexes every \
                   endpoint and the protocol is byte-identical over both \
                   transports.")
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "s"; "socket" ] ~docv:"PATH"
             ~doc:"Unix-domain socket the daemon listens on (shorthand for \
                   $(b,--listen unix:PATH)).")
  in
  let config =
    Arg.(value & opt (some file) None
         & info [ "c"; "config" ] ~docv:"BASE.yaml"
             ~doc:"Base flow configuration merged under every request's \
                   inline $(b,config) (request keys win). Its $(b,cache) / \
                   $(b,cache_dir) keys pick the shared engine's store.")
  in
  let max_in_flight =
    Arg.(value & opt int 4
         & info [ "max-in-flight" ] ~docv:"N"
             ~doc:"Worker threads, i.e. requests executing concurrently.")
  in
  let max_queue =
    Arg.(value & opt int 16
         & info [ "max-queue" ] ~docv:"N"
             ~doc:"Admitted connections that may wait for a worker; beyond \
                   $(b,max-in-flight + max-queue) outstanding, new \
                   connections are refused with a structured $(b,busy) \
                   error (E1003) instead of queueing without bound.")
  in
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"S"
             ~doc:"Default per-request characterization deadline in seconds \
                   (the request configuration's own \
                   $(b,characterize_deadline_s) wins). Expensive designs \
                   degrade to deadline-skip diagnostics instead of \
                   monopolizing a worker.")
  in
  let idle_timeout =
    Arg.(value & opt float 30.0
         & info [ "idle-timeout" ] ~docv:"S"
             ~doc:"Close a connection idle this long between requests, so \
                   dead clients cannot pin a worker or stall the drain.")
  in
  let run listen socket config max_in_flight max_queue deadline idle_timeout
      flags fmt =
    handle_errors ~fmt (fun () ->
        let listen =
          (match socket with
          | Some path -> [ S.Endpoint.Unix_path path ]
          | None -> [])
          @ List.map S.Endpoint.parse listen
        in
        if listen = [] then
          invalid_arg
            "serve: nowhere to listen; give --listen ENDPOINT (or --socket \
             PATH)";
        (* the flags join the base document every request is merged
           over, so they shape requests as well as the engine; a
           request's own keys still win, except [jobs], which the
           operator forces *)
        let base =
          C.Yaml_lite.merge
            (match config with
            | None -> C.Yaml_lite.Null
            | Some path -> C.Yaml_lite.parse (read_file path))
            flags
        in
        let engine_cfg = C.Flow_config.of_yaml base in
        let engine = A.Engine.of_config engine_cfg in
        let server_cfg =
          { (S.Server.default_config ~socket_path:"/unused") with
            S.Server.listen; max_in_flight; max_queue; base;
            jobs =
              Option.map
                (fun _ -> engine_cfg.C.Flow_config.jobs)
                (C.Yaml_lite.find flags "jobs");
            deadline_s = deadline; idle_timeout_s = idle_timeout }
        in
        (* the effective endpoints come from the live server, so a
           tcp:HOST:0 line carries the kernel-chosen port *)
        let on_ready t =
          List.iter
            (fun ep ->
              Format.eprintf "alice: serving on %s (workers %d, queue %d%s)@."
                (S.Endpoint.to_string ep) max_in_flight max_queue
                (match A.Engine.cache_root engine with
                | Some root -> ", cache " ^ root
                | None -> ", cache off"))
            (S.Server.endpoints t)
        in
        S.Server.run ~engine ~on_ready server_cfg;
        Format.eprintf "alice: drained, sockets closed@.";
        0)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the long-lived redaction daemon: newline-delimited JSON \
             requests over Unix-domain sockets and/or TCP, one shared \
             characterization cache across all clients, bounded in-flight \
             admission control with a cheap lane reserved for health \
             checks, graceful drain on SIGTERM or a $(b,shutdown) request")
    Term.(const run $ listen $ socket $ config $ max_in_flight $ max_queue
          $ deadline $ idle_timeout $ flow_flags $ diag_format)

(* ---------- client ---------- *)

let client_cmd =
  let request_file =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"REQUEST.json"
             ~doc:"File holding one protocol request line ($(b,-) or \
                   omitted: read it from stdin). Ignored when $(b,--op) or \
                   $(b,--redact) builds the request instead.")
  in
  let op =
    Arg.(value & opt (some (enum [ ("ping", `Ping); ("stats", `Stats);
                                   ("shutdown", `Shutdown);
                                   ("cache-gc", `CacheGc) ])) None
         & info [ "op" ] ~docv:"OP"
             ~doc:"Build a parameterless request: $(b,ping), $(b,stats), \
                   $(b,shutdown) or $(b,cache-gc).")
  in
  let redact_src =
    Arg.(value & opt (some string) None
         & info [ "redact" ] ~docv:"DESIGN.v"
             ~doc:"Build a redact request from this Verilog file ($(b,-): \
                   stdin); the source is sent inline.")
  in
  let config =
    Arg.(value & opt (some file) None
         & info [ "c"; "config" ] ~docv:"CONFIG.json"
             ~doc:"JSON object of flow-configuration keys attached to a \
                   $(b,--redact) request.")
  in
  let view =
    Arg.(value & opt (some string) None
         & info [ "view" ] ~docv:"VIEW"
             ~doc:"Redaction view for $(b,--redact): $(b,programmed), \
                   $(b,opaque) or $(b,structural).")
  in
  let extract =
    Arg.(value & opt (some string) None
         & info [ "extract" ] ~docv:"FIELD"
             ~doc:"Instead of the whole response, print this top-level \
                   string field raw (e.g. $(b,verilog)); errors if the \
                   field is absent.")
  in
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"OUT"
             ~doc:"Write the printed result to $(docv) instead of stdout.")
  in
  let timeout =
    Arg.(value & opt float 300.0
         & info [ "timeout" ] ~docv:"S" ~doc:"Response timeout in seconds.")
  in
  let retry_attempts =
    Arg.(value & opt int 1
         & info [ "retry" ] ~docv:"N"
             ~doc:"Total attempts (including the first) on connection \
                   failures and $(b,busy)/$(b,draining) refusals, with \
                   exponential backoff and deterministic jitter between \
                   them. $(b,1) (the default) never retries; this is what \
                   makes the client safe to script in loops against a \
                   loaded or restarting server.")
  in
  let retry_base =
    Arg.(value & opt float 0.05
         & info [ "retry-base" ] ~docv:"S"
             ~doc:"Base (and floor) backoff delay in seconds; must be \
                   positive (a zero base would retry in a hot loop \
                   against a server that refused us for being loaded).")
  in
  let stream =
    Arg.(value & flag
         & info [ "stream" ]
             ~doc:"Ask for a streaming response (sweep and advise \
                   requests): adds $(b,stream:true) and the protocol minor \
                   version to the request, and prints every $(b,event:\"row\") frame to \
                   stdout the moment it arrives; $(b,--extract) and exit \
                   status apply to the terminal frame. Against an older \
                   server the response simply comes back buffered.")
  in
  let retry_deadline =
    Arg.(value & opt (some float) None
         & info [ "retry-deadline" ] ~docv:"S"
             ~doc:"Total wall-clock cap across all attempts: a retry whose \
                   backoff sleep would cross it is not made.")
  in
  let run socket request_file op redact_src config view extract output timeout
      retry_attempts retry_base retry_deadline stream fmt =
    handle_errors ~fmt (fun () ->
        let request =
          match (op, redact_src) with
          | Some `Ping, _ -> S.Protocol.ping_request ()
          | Some `Stats, _ -> S.Protocol.stats_request ()
          | Some `Shutdown, _ -> S.Protocol.shutdown_request ()
          | Some `CacheGc, _ -> S.Protocol.cache_gc_request ()
          | None, Some src ->
            let text =
              if src = "-" then In_channel.input_all In_channel.stdin
              else read_file src
            in
            let config =
              match config with
              | None -> J.Null
              | Some path -> J.parse (read_file path)
            in
            S.Protocol.redact_request ~config ?view (S.Protocol.Inline text)
          | None, None ->
            let text =
              match request_file with
              | None | Some "-" -> In_channel.input_all In_channel.stdin
              | Some path -> read_file path
            in
            let line = String.trim text in
            if line = "" then invalid_arg "client: empty request";
            (* fail on malformed JSON client-side, before the round trip *)
            ignore (J.parse line);
            line
        in
        let request =
          if not stream then request
          else
            (* opt the request into streaming: set stream:true and
               announce our minor version so the server may send rows *)
            match J.parse request with
            | J.Obj fields ->
              let fields =
                List.filter (fun (k, _) -> k <> "stream" && k <> "mv") fields
              in
              J.to_string
                (J.Obj
                   (fields
                   @ [ ("mv", J.Int S.Protocol.minor);
                       ("stream", J.Bool true) ]))
            | _ -> invalid_arg "client: --stream needs a JSON object request"
        in
        let retry =
          if retry_attempts <= 1 then None
          else if retry_base <= 0.0 then
            invalid_arg "client: --retry-base must be positive"
          else
            Some
              { S.Client.default_retry with
                S.Client.attempts = retry_attempts;
                base_delay_s = retry_base;
                deadline_s = retry_deadline }
        in
        let on_event =
          if stream then
            Some
              (fun line ->
                print_endline line;
                flush stdout)
          else None
        in
        let response =
          S.Client.one_shot ~timeout_s:timeout ?retry ?on_event ~socket
            request
        in
        let doc = J.parse response in
        let printed =
          match extract with
          | None -> response ^ "\n"
          | Some field -> (
            match J.find doc field with
            | Some (J.String s) -> s
            | Some _ ->
              invalid_arg
                (Printf.sprintf "client: response field %s is not a string"
                   field)
            | None ->
              invalid_arg
                (Printf.sprintf "client: response has no %s field (got: %s)"
                   field
                   (String.sub response 0 (Int.min 200 (String.length response)))))
        in
        (match output with
        | None -> print_string printed
        | Some path ->
          let oc = open_out path in
          output_string oc printed;
          close_out oc);
        match J.find doc "ok" with Some (J.Bool true) -> 0 | _ -> 1)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Submit one request to a running $(b,alice serve) daemon — over \
             a Unix socket or TCP — and print the response; exits 0 on an \
             $(b,ok) response, 1 otherwise")
    Term.(const run $ connect_arg $ request_file $ op $ redact_src $ config
          $ view $ extract $ output $ timeout $ retry_attempts $ retry_base
          $ retry_deadline $ stream $ diag_format)

(* ---------- cache maintenance ---------- *)

let cache_cmd =
  let gc_cmd =
    let socket =
      Arg.(value & opt (some string) None
           & info [ "socket"; "connect" ] ~docv:"ENDPOINT"
               ~doc:"GC the cache of the running $(b,alice serve) daemon at \
                     $(docv) — $(b,unix:PATH), $(b,tcp:HOST:PORT) or a bare \
                     socket path (the $(b,cache-gc) operation) instead of a \
                     local store; the server also re-enables writes it \
                     disabled after a write failure (W0703).")
    in
    let max_bytes =
      Arg.(value & opt (some int) None
           & info [ "max-bytes" ] ~docv:"N"
               ~doc:"Evict least-recently-used entries until the store \
                     fits $(docv) bytes. Omitted, a local gc only \
                     validates and quarantines; a server gc falls back \
                     to the server's configured budget.")
    in
    let run socket max_bytes flags fmt =
      handle_errors ~fmt (fun () ->
          match socket with
          | Some sock ->
            let response =
              S.Client.one_shot ~socket:sock
                (S.Protocol.cache_gc_request ?max_bytes ())
            in
            print_endline response;
            (match J.find (J.parse response) "ok" with
            | Some (J.Bool true) -> 0
            | _ -> 1)
          | None ->
            let root =
              match C.Flow_config.(apply flags default).cache_dir with
              | Some dir -> dir
              | None -> A.Disk_cache.default_root ()
            in
            let store = A.Disk_cache.create ~root () in
            let g = A.Disk_cache.gc ?max_bytes store in
            Format.printf
              "cache gc (%s): %d examined, %d quarantined, %d evicted, %d \
               bytes freed, %d bytes live@."
              root g.A.Disk_cache.gc_examined g.A.Disk_cache.gc_quarantined
              g.A.Disk_cache.gc_evicted g.A.Disk_cache.gc_freed_bytes
              g.A.Disk_cache.gc_live_bytes;
            0)
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:"Validate the persistent characterization cache (corrupt \
               entries are quarantined for recompute-on-demand), evict \
               least-recently-used entries to a byte budget, and — on a \
               running server — re-enable writes disabled by an earlier \
               write failure")
      Term.(const run $ socket $ max_bytes $ flow_flags $ diag_format)
  in
  Cmd.group
    (Cmd.info "cache" ~doc:"Persistent characterization cache maintenance")
    [ gc_cmd ]

let () =
  let doc = "automatic eFPGA redaction (DAC'22 ALICE flow)" in
  let info = Cmd.info "alice" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ inspect_cmd; redact_cmd; sweep_cmd; advise_cmd; attack_cmd;
            decompose_cmd; simulate_cmd; bench_cmd; serve_cmd; client_cmd;
            cache_cmd ]))
