(** The reusable flow engine: a long-lived handle owning one
    characterization cache — an in-memory, mutex-guarded memo table
    backed (unless caching is off) by the persistent {!Disk_cache}
    store — through which any number of flow {!Flow.request}s run.

    This is what makes the realistic ALICE workload cheap: fabric
    parameter exploration and iterative customization run the *same*
    modules through CreateEFPGA over and over, and the dominant cost is
    exactly those characterizations. A cold run pays them once; every
    later run — in the same process via {!run_many}, or in a new
    process via the on-disk store — gets them back by content-addressed
    lookup ({!Characterize.keyer}: member-module content digests
    plus the configuration's characterization digest), so results are
    identical to a cold run, just faster.

    Degradation is always soft: unusable cache entries recompute with a
    [W0702] warning on the affected run's diagnostics, an unwritable
    store warns once ([W0703]) and stops writing. The engine never
    changes what a flow computes — only whether CreateEFPGA has to run
    again. *)

module C = Alice_config
module D = Alice_diag.Diag
module F = Alice_fabric
module Fi = Alice_fault.Fault

(* The selection-scoring seam, re-exported so library users configure
   measured scoring without reaching into [lib/core] internals. *)
module Scorer = Selection.Scorer

(* The persistent namespaces, one [Disk_cache] each because a store
   holds one value type: characterizations at the root, attack verdicts
   and sweep checkpoints one directory below it. *)
type namespace = Characterizations | Attacks | Sweeps

type t = {
  memo : Characterize.cache;
  attack_memo : Scorer.cache;
      (* measured-selection attack verdicts, shared across runs like
         [memo] *)
  stores : (namespace * Disk_cache.t) list;
      (* every persistent namespace, empty when caching is off; each
         store-wide operation iterates this list *)
  faults : Fi.t;
}

let load store key = Disk_cache.load store ~key
let save store key v = Disk_cache.store store ~key v

let create ?(cache = true) ?cache_dir ?max_bytes ?faults () : t =
  let faults = match faults with Some f -> f | None -> Fi.global () in
  if not cache then
    { memo = Characterize.create_cache ();
      attack_memo = Scorer.create_cache (); stores = []; faults }
  else begin
    let disk = Disk_cache.create ?root:cache_dir ?max_bytes ~faults () in
    (* the namespaces below the root are never byte-bounded: verdicts
       and checkpoint summaries are tiny, and evicting one silently
       costs a recomputation *)
    let below name =
      Disk_cache.create ~root:(Filename.concat (Disk_cache.root disk) name)
        ~faults ()
    in
    let attacks = below "attack" and sweeps = below "sweep" in
    (* the memo tables decide what is written back: fabric verdicts
       only for characterizations, every computed attack verdict *)
    { memo = Characterize.create_cache ~load:(load disk) ~save:(save disk) ();
      attack_memo =
        Scorer.create_cache ~load:(load attacks) ~save:(save attacks) ();
      stores =
        [ (Characterizations, disk); (Attacks, attacks); (Sweeps, sweeps) ];
      faults }
  end

let store (t : t) (ns : namespace) : Disk_cache.t option =
  List.assoc_opt ns t.stores

let each_store (t : t) (f : Disk_cache.t -> unit) : unit =
  List.iter (fun (_, s) -> f s) t.stores

(** An engine honoring the configuration's cache knobs ([cache],
    [cache_dir], [cache_max_bytes]) and fault plan. *)
let of_config (cfg : C.Flow_config.t) : t =
  let faults =
    match cfg.C.Flow_config.fault_plan with
    | Some spec -> Fi.parse spec
    | None -> Fi.global ()
  in
  create ~cache:cfg.C.Flow_config.cache ?cache_dir:cfg.C.Flow_config.cache_dir
    ?max_bytes:cfg.C.Flow_config.cache_max_bytes ~faults ()

let cache (t : t) : Characterize.cache = t.memo

let attack_cache (t : t) : Scorer.cache = t.attack_memo

let cache_root (t : t) : string option =
  Option.map Disk_cache.root (store t Characterizations)

let disk_stats (t : t) : Disk_cache.stats option =
  Option.map Disk_cache.stats (store t Characterizations)

(* Route every namespace's warnings to [sink] while [f] runs. Swapping
   sinks is the one part of the engine that is not thread-safe. *)
let with_sink (t : t) (sink : D.t -> unit) (f : unit -> 'a) : 'a =
  each_store t (fun s -> Disk_cache.set_sink s sink);
  Fun.protect ~finally:(fun () -> each_store t Disk_cache.clear_sink) f

(** Like [run], but without touching the stores' warning sinks, so
    overlapping calls from several threads are safe. Cache-degradation
    warnings raised on behalf of any concurrent request go to the
    engine-wide sink installed with [set_warning_sink]. *)
let run_shared (t : t) (req : Flow.request) : Flow.t =
  Flow.run_request ~cache:t.memo ~attack_cache:t.attack_memo req

(** Run one request through the engine's cache. Cache-degradation
    warnings raised while this request runs land on its diagnostics
    (and its collector, if it carries one). Per-run cache accounting is
    on the result's [char_stats]. *)
let run (t : t) (req : Flow.request) : Flow.t =
  let collector =
    match req.Flow.diags with Some c -> c | None -> D.Collector.create ()
  in
  with_sink t (D.Collector.add collector) (fun () ->
      run_shared t { req with Flow.diags = Some collector })

let set_warning_sink (t : t) (sink : D.t -> unit) : unit =
  each_store t (fun s -> Disk_cache.set_sink s sink)

(** Run a batch of jobs — (design × config) pairs in whatever mix —
    sequentially through one cache: later jobs reuse every
    characterization any earlier job (or any earlier process, via the
    disk store) already paid for. Parallelism lives *inside* each job
    (the configuration's [jobs] worker domains), where the paper's
    workload actually fans out. *)
let run_many (t : t) (reqs : Flow.request list) : Flow.t list =
  List.map (run t) reqs

let enable_cache_writes (t : t) : unit = each_store t Disk_cache.enable_writes

(* Only the characterization namespace is validated and evicted; freed
   space un-wedges every namespace, so all three are re-armed. *)
let gc ?max_bytes (t : t) : Disk_cache.gc_stats option =
  Option.map
    (fun disk ->
      let stats = Disk_cache.gc ?max_bytes disk in
      enable_cache_writes t;
      stats)
    (store t Characterizations)

(* ---------- resumable sweeps ---------- *)

type point_metrics = {
  pm_area_um2 : float;
  pm_timing_ns : float;
  pm_security : float;
  pm_security_mode : C.Flow_config.score_mode;
}

type sweep_point = {
  sp_name : string;
  sp_feasible : bool;
  sp_fabrics : string option;
  sp_metrics : point_metrics option;
  sp_hits : int;
  sp_computed : int;
  sp_skipped : int;
  sp_attacks_run : int;
  sp_attacks_cached : int;
  sp_attacks_inconclusive : int;
  sp_times : Flow.phase_times;
  sp_diags : D.t list;
  sp_resumed : bool;
}

let solution_fabrics (flow : Flow.t) : string option =
  match flow.Flow.selection.Selection.best with
  | None -> None
  | Some best ->
    Some
      (String.concat "+"
         (List.map
            (fun (e : Selection.efpga_impl) ->
              F.Fabric.size_label e.Selection.impl.F.Size_search.fabric)
            best.Selection.efpgas))

(* The advisor's three objectives, read off the selected solution. Area
   sums the chosen fabrics; timing is the slowest fabric's critical
   path; security is on the configured score mode's own scale — Eq. 1
   total score for Heuristic, mean measured attack resilience in [0,1]
   for Measured (falling back to the heuristic score when no verdicts
   were recorded, e.g. every attack crashed). *)
let solution_metrics (flow : Flow.t) : point_metrics option =
  match flow.Flow.selection.Selection.best with
  | None -> None
  | Some best ->
    let cfg = flow.Flow.config in
    let efpgas = best.Selection.efpgas in
    let area =
      List.fold_left
        (fun acc (e : Selection.efpga_impl) ->
          acc +. F.Area.fabric_area e.Selection.impl.F.Size_search.fabric)
        0. efpgas
    in
    let timing =
      List.fold_left
        (fun acc (e : Selection.efpga_impl) ->
          let r =
            F.Timing.estimate e.Selection.impl.F.Size_search.placement
              e.Selection.mapped
          in
          Float.max acc r.F.Timing.critical_path_ns)
        0. efpgas
    in
    let security =
      match cfg.C.Flow_config.score_mode with
      | C.Flow_config.Heuristic -> best.Selection.total_score
      | C.Flow_config.Measured -> (
        let verdicts =
          List.filter_map (fun (e : Selection.efpga_impl) -> e.Selection.verdict)
            efpgas
        in
        match verdicts with
        | [] -> best.Selection.total_score
        | vs ->
          List.fold_left (fun acc v -> acc +. Scorer.resilience cfg v) 0. vs
          /. float_of_int (List.length vs))
    in
    Some
      { pm_area_um2 = area; pm_timing_ns = timing; pm_security = security;
        pm_security_mode = cfg.C.Flow_config.score_mode }

let summarize (name : string) (flow : Flow.t) : sweep_point =
  let s = flow.Flow.char_stats in
  let a = flow.Flow.selection.Selection.attack in
  { sp_name = name;
    sp_feasible = flow.Flow.selection.Selection.best <> None;
    sp_fabrics = solution_fabrics flow;
    sp_metrics = solution_metrics flow;
    sp_hits = s.Characterize.cache_hits;
    sp_computed = s.Characterize.computed;
    sp_skipped = s.Characterize.skipped;
    sp_attacks_run = a.Scorer.attacks_run;
    sp_attacks_cached = a.Scorer.attacks_cached;
    sp_attacks_inconclusive = a.Scorer.attacks_inconclusive;
    sp_times = flow.Flow.times;
    sp_diags = flow.Flow.diags;
    sp_resumed = false }

(* A point's identity is everything that can change its result: the
   name keys the row; the source and every non-[Runtime] config field
   key the work, so a rerun at another [jobs] or cache location resumes.
   The [v3] prefix versions the summary encoding itself — widening
   [sweep_point] (v2 added the attack counters, v3 the advisor's
   area/timing/security metrics) is a format change, not a silently
   garbled resume. *)
let result_digest =
  C.Flow_config.(digest [ Characterize; Attack; Result ])

let point_key (name : string) (req : Flow.request) : string =
  Printf.sprintf "sweep-point v3 %s %s" name
    (Digest.to_hex
       (Digest.string
          (result_digest req.Flow.config
          ^ Marshal.to_string req.Flow.source [])))

let sweep_points ~(config : C.Yaml_lite.t -> C.Flow_config.t)
    ~(base : C.Yaml_lite.t) (entries : C.Yaml_lite.t list)
    (source : Flow.source) : (string * Flow.request) list =
  List.mapi
    (fun i entry ->
      let name =
        C.Yaml_lite.get_string ~default:(Printf.sprintf "cfg%d" (i + 1))
          entry "name"
      in
      let entry =
        match entry with
        | C.Yaml_lite.Map kvs -> C.Yaml_lite.Map (List.remove_assoc "name" kvs)
        | other -> other
      in
      ( name,
        Flow.request ~config:(config (C.Yaml_lite.merge base entry))
          ~diags:(D.Collector.create ()) source ))
    entries

let point_diags (sp : sweep_point) : D.t list =
  List.map
    (fun (d : D.t) ->
      { d with D.context = ("config", sp.sp_name) :: d.D.context })
    sp.sp_diags

(** Run a sweep with per-point checkpointing: each completed point's
    summary is written to the checkpoint store as soon as it finishes,
    and (with [resume], the default) points already checkpointed — by a
    previous process, however it died — are served back with
    [sp_resumed = true] and zero recomputation. Fault site
    ["engine.sweep_point"] is hit before each computed point.

    Ordering guarantee for streaming consumers: [on_point] fires only
    AFTER the point's checkpoint write. A crash anywhere in the window
    between "point computed" and "row delivered" therefore has exactly
    two observable outcomes — the checkpoint was written (the rerun
    resumes the point and re-delivers its row), or it was not (the
    rerun recomputes the point and delivers its row). A lost row always
    means "will be recomputed or re-delivered", never "silently skipped
    on resume". Tested in test/test_engine.ml.

    All points run through this engine's single characterization memo
    AND its single attack-verdict pool ([attack_cache]): grid entries
    whose configs differ only in knobs outside {!C.Flow_config.attack_digest}
    (e.g. [attack_area_weight], [score_mode]) re-rank cached verdicts
    without re-running a single attack. *)
let run_sweep ?(shared = false) ?(resume = true)
    ?(on_point : (sweep_point -> unit) option) (t : t)
    (points : (string * Flow.request) list) : sweep_point list =
  let runner = if shared then run_shared else run in
  let sweeps = store t Sweeps in
  List.map
    (fun (name, req) ->
      let key = point_key name req in
      (* a checkpoint's own W0702/W0703 belongs to this row, never to
         the summary it persists: a resumed row must not replay it *)
      let warnings = D.Collector.create () in
      let checkpoint f =
        if shared then f () else with_sink t (D.Collector.add warnings) f
      in
      let checkpointed =
        if resume then
          Option.bind sweeps (fun s -> checkpoint (fun () -> load s key))
        else None
      in
      let sp =
        match checkpointed with
        | Some sp -> { sp with sp_resumed = true }
        | None ->
          Fi.hit t.faults "engine.sweep_point";
          let sp = summarize name (runner t req) in
          Option.iter (fun s -> checkpoint (fun () -> save s key sp)) sweeps;
          { sp with sp_diags = sp.sp_diags @ D.Collector.list warnings }
      in
      (* deliberately after the checkpoint write: if the observer
         raises (a streaming client hung up), the completed point is
         already durable and a rerun resumes it for free *)
      Option.iter (fun f -> f sp) on_point;
      sp)
    points
