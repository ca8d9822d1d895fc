(** The reusable flow engine: a long-lived handle owning one
    characterization cache — an in-memory, mutex-guarded memo table
    backed (unless caching is off) by the persistent on-disk
    {!Disk_cache} store — through which any number of flow
    {!Flow.request}s run.

    Entries are content-addressed by {!Characterize.keyer} (member
    module content digests plus the configuration's
    {!Alice_config.Flow_config.characterize_digest}), loaded lazily one
    key at a time, and survive process boundaries, so fabric-parameter
    sweeps and repeated CLI invocations stop re-running CreateEFPGA on
    work they have already paid for. Results are bit-identical to a
    cold run; only the wall clock changes.

    The engine's persistent namespaces — characterizations at the
    store root, attack verdicts under [attack/], sweep checkpoints
    under [sweep/], one {!Disk_cache} each because a store holds one
    value type — are held in one list, and every store-wide operation
    (the per-run warning sink of {!run}, {!set_warning_sink},
    {!enable_cache_writes}) iterates it. Unusable entries (truncated,
    corrupt, version-mismatched) in any namespace recompute with a
    [W0702] warning on the affected run; an unwritable store warns once
    ([W0703]) and stops writing. *)

module C = Alice_config
module D = Alice_diag.Diag

(** The selection-scoring seam ({!Selection.Scorer}), re-exported so
    library users can pick {!Selection.Scorer.Heuristic} vs
    {!Selection.Scorer.Measured} and own verdict caches without
    reaching into [lib/core] internals. *)
module Scorer = Selection.Scorer

type t

(** [create ?cache ?cache_dir ?max_bytes ?faults ()]. With [cache]
    (default [true]) the memo table is backed by the {!Disk_cache} store
    rooted at [cache_dir] (default {!Disk_cache.default_root}), bounded
    to [max_bytes] with LRU eviction when given; with [~cache:false] the
    engine is purely in-memory — still worth holding across {!run_many}
    jobs, just not across processes. [faults] (default
    {!Alice_fault.Fault.global}) threads the fault-injection plan into
    the store and the engine's own sweep checkpointing. *)
val create :
  ?cache:bool -> ?cache_dir:string -> ?max_bytes:int ->
  ?faults:Alice_fault.Fault.t -> unit -> t

(** An engine honoring the configuration's [cache] / [cache_dir] /
    [cache_max_bytes] knobs and [fault_plan]. *)
val of_config : C.Flow_config.t -> t

(** Run one request through the engine's cache. Per-run cache
    accounting is on the result's [char_stats]; cache-degradation
    warnings land on the run's diagnostics.

    Not safe for overlapping calls from several threads: every
    namespace's warning sink is swapped around each run, so concurrent
    runs would misattribute (or drop) each other's warnings. Serve
    concurrent traffic with {!run_shared} instead. *)
val run : t -> Flow.request -> Flow.t

(** Like {!run}, but the stores' warning sinks are left alone, so
    any number of threads may run requests through one engine
    concurrently (the memo table and disk store are mutex-guarded).
    Cache-degradation warnings go to the engine-wide sink installed
    with {!set_warning_sink} — attribution to a single request is
    impossible once loads happen on behalf of whichever request reaches
    a key first, so they become engine-level events (the server counts
    them in its metrics). Everything else — per-request diagnostics,
    [char_stats], results — is identical to {!run}. *)
val run_shared : t -> Flow.request -> Flow.t

(** Install a persistent engine-wide sink for cache-degradation
    warnings ([W0702]/[W0703]) of every namespace raised by
    {!run_shared} callers and [~shared] sweeps, checkpoints included.
    The sink must be safe to call from any domain; it replaces any
    previously installed sink. No-op when caching is off. *)
val set_warning_sink : t -> (D.t -> unit) -> unit

(** Run a batch of (design × config) jobs sequentially through one
    cache: later jobs reuse every characterization an earlier job — or
    an earlier process, via the disk store — already paid for.
    Parallelism lives inside each job (its configuration's [jobs]
    worker domains). *)
val run_many : t -> Flow.request list -> Flow.t list

(** The engine's shared cache, for driving {!Characterize} directly. *)
val cache : t -> Characterize.cache

(** The engine's shared attack-verdict cache, for driving
    {!Selection.Scorer.measure} (or {!Selection.run} with an explicit
    scorer) directly. Backed by the persistent [attack/] namespace
    under the store root when caching is on. *)
val attack_cache : t -> Scorer.cache

(** Root directory of the persistent store; [None] when caching is
    off. *)
val cache_root : t -> string option

(** Cumulative counters of the characterization namespace since
    [create]; [None] when caching is off. *)
val disk_stats : t -> Disk_cache.stats option

(** Re-enable disk writes after a [W0703] write-disable, in every
    namespace; no-op when caching is off. {!gc} does this
    automatically. *)
val enable_cache_writes : t -> unit

(** Garbage-collect the characterization namespace: validate every
    entry, quarantine corruption, evict least-recently-used entries to
    [max_bytes] (default: the engine's configured budget); then
    re-enable writes in every namespace. [None] when caching is off. Safe to call on a
    live engine — concurrent loads degrade to misses at worst. *)
val gc : ?max_bytes:int -> t -> Disk_cache.gc_stats option

(** The advisor's objective vector for one solved point, read off the
    selected solution: total area of the chosen fabrics, the slowest
    fabric's critical path, and the security score on the configured
    score mode's own scale — Eq. 1 total score for [Heuristic], mean
    measured attack resilience in \[0,1\] for [Measured]. *)
type point_metrics = {
  pm_area_um2 : float;
  pm_timing_ns : float;
  pm_security : float;
  pm_security_mode : C.Flow_config.score_mode;
      (** which scale [pm_security] is on *)
}

(** One sweep row: the marshalable summary of a completed flow that the
    checkpoint store persists — everything the sweep table and server
    sweep response report, but not the full {!Flow.t}. *)
type sweep_point = {
  sp_name : string;          (** the sweep entry's label *)
  sp_feasible : bool;        (** a best solution exists *)
  sp_fabrics : string option;(** "+"-joined fabric size labels of best *)
  sp_metrics : point_metrics option;
      (** objectives of the best solution; [None] when infeasible *)
  sp_hits : int;             (** characterization cache hits *)
  sp_computed : int;
  sp_skipped : int;          (** deadline skips *)
  sp_attacks_run : int;      (** measured-selection attacks computed *)
  sp_attacks_cached : int;   (** verdicts served from the attack cache *)
  sp_attacks_inconclusive : int;
  sp_times : Flow.phase_times;
  sp_diags : D.t list;
  sp_resumed : bool;         (** served from a checkpoint, not computed *)
}

(** The fabric label {!sweep_point.sp_fabrics} reports, for callers
    holding a full {!Flow.t}. *)
val solution_fabrics : Flow.t -> string option

(** [sweep_points ~config ~base entries source] is the named requests
    of a sweep: entry [i], labelled by its [name] key (default
    ["cfg<i+1>"]), is deep-merged over [base] without its [name], and
    [config] turns the result into the request's configuration. Each
    request gets its own diagnostics collector. *)
val sweep_points :
  config:(C.Yaml_lite.t -> C.Flow_config.t) -> base:C.Yaml_lite.t ->
  C.Yaml_lite.t list -> Flow.source -> (string * Flow.request) list

(** A point's diagnostics, each tagged with [config=<name>]. *)
val point_diags : sweep_point -> D.t list

(** [run_sweep t points] runs named requests sequentially through the
    engine's cache like {!run_many}, but checkpoints each point's
    summary into the persistent store the moment it completes: a sweep
    killed after [k] of [n] points (even with SIGKILL) resumes on rerun
    by serving those [k] summaries back — marked [sp_resumed] — and
    computing exactly the remaining [n - k]. A point's checkpoint key
    digests its name, its source and every configuration field whose
    {!C.Flow_config.role} is not [Runtime], so editing the sweep never
    reuses a stale row, while a rerun at another [jobs] or cache
    location resumes. [~resume:false] recomputes everything
    (checkpoints are still written). [~shared] selects {!run_shared}
    semantics for the underlying runs (servers); the default is {!run}.
    With caching off there are no checkpoints and this degrades to
    {!run_many} plus summarization. [~on_point] observes each point
    (resumed or computed) the moment it is available — strictly AFTER
    its checkpoint is written. That ordering is a contract streaming
    consumers build on: a crash between computing a point and
    delivering its row leaves the point either checkpointed (the rerun
    resumes it and re-delivers the row) or not (the rerun recomputes it
    and delivers the row) — a lost row is always recomputed or
    re-delivered, never silently skipped on resume. Likewise an
    observer that raises (a streaming client that hung up) aborts the
    remaining points while every completed one stays resumable.

    A checkpoint's own [W0702]/[W0703] (a corrupt or unwritable
    checkpoint) is appended to that point's [sp_diags] under {!run}
    semantics — never to the summary the checkpoint persists, so a
    later resume does not replay it — and goes to the engine-wide sink
    of {!set_warning_sink} under [~shared].

    All points share this engine's characterization memo and its attack
    verdict pool: entries whose configurations differ only in knobs
    outside {!C.Flow_config.attack_digest} — [attack_area_weight],
    [score_mode], [attack_jobs] — re-rank cached verdicts without
    re-running any attack. *)
val run_sweep :
  ?shared:bool -> ?resume:bool -> ?on_point:(sweep_point -> unit) -> t ->
  (string * Flow.request) list -> sweep_point list
