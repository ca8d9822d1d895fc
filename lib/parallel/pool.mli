(** Bounded Domain-based work pool.

    {!map_ordered} fans a task list out over at most [jobs] workers —
    the calling domain plus [jobs - 1] spawned domains — and returns the results in input order, so
    callers that were previously serial [List.map]s keep their output
    order (and therefore their downstream determinism) unchanged.

    Fault isolation survives parallelism: an exception raised by one
    task is captured as its own {!outcome} and never kills a sibling
    task or the pool — and so is a crash of the worker {e between}
    tasks (exercised by fault injection): the worker re-enters its
    claim loop, so a dying worker costs at most one task slot, never
    the batch. A cooperative stop predicate, checked at dispatch time,
    supports deadline semantics — tasks already in flight finish, tasks
    not yet dispatched come back {!Skipped}.

    Fault-injection sites: ["pool.task"] (hit inside each task's
    containment — an injected failure is that task's [Raised]) and
    ["pool.worker"] (hit between claim and dispatch, {e outside} the
    per-task containment — an injected [Kill] exercises the worker
    supervision above; the claimed slot comes back [Raised]). *)

(** How one task ended. *)
type 'a outcome =
  | Value of 'a        (** the task returned *)
  | Raised of exn      (** the task raised; siblings were unaffected *)
  | Skipped            (** never dispatched: [should_stop] was true *)

(** [map_ordered ?should_stop ?faults ~jobs f xs] applies [f] to every
    element of [xs] across at most [max 1 jobs] workers and returns the
    outcomes in the order of [xs]. Helper domains are spawned per call
    (one fewer than [min jobs (List.length xs)], since the caller works
    too) and joined before it returns, so nothing outlives the call.

    [should_stop] is polled immediately before each task is dispatched;
    once it returns [true], no further task starts (in-flight tasks
    finish) and every undispatched task's outcome is [Skipped]. With
    [jobs <= 1] the caller is the only worker: no domain is spawned and
    the tasks run in input order in the calling domain, like a serial
    [List.map] with the same dispatch-time stop check. [faults] (default
    {!Alice_fault.Fault.global}) arms the ["pool.task"] and
    ["pool.worker"] injection sites. *)
val map_ordered :
  ?should_stop:(unit -> bool) -> ?faults:Alice_fault.Fault.t -> jobs:int ->
  ('a -> 'b) -> 'a list -> 'b outcome list
