(** Mutex-guarded memo table, usable as a shared cache across the
    domains of a {!Pool} batch, and {!resolve}, the one cached fan-out
    built on it.

    A table may be created with backing-store hooks: [load] is consulted
    (outside the lock) on an in-memory miss and its hit is installed in
    the table, so a persistent store is read lazily, one key at a time;
    [save] is called (outside the lock) on each {!set}. Hooks must be
    safe to call from any domain and must not raise — a store that can
    fail should catch internally and degrade to [None] / no-op. *)

type ('k, 'v) t

(** [create ?size ?load ?save ()] — [load] backs in-memory misses,
    [save] observes insertions (both optional; omitting both gives a
    plain in-memory table). *)
val create :
  ?size:int ->
  ?load:('k -> 'v option) ->
  ?save:('k -> 'v -> unit) ->
  unit ->
  ('k, 'v) t

(** In-memory lookup, then the [load] hook on a miss (installing any
    hit). *)
val find_opt : ('k, 'v) t -> 'k -> 'v option

(** [set t k v] binds [k] to [v], replacing any previous binding, and
    notifies the [save] hook. *)
val set : ('k, 'v) t -> 'k -> 'v -> unit

(** Why a task of {!resolve} produced no value of its own. *)
type loss =
  | Raised of exn  (** [compute] raised (or its worker died) *)
  | Skipped        (** never dispatched: [should_stop] was true *)

(** What one {!resolve} batch returned. Everything but [values] is per
    distinct key: each of [uniques] was a hit, computed (a [Raised] task
    counts as computed) or skipped, so
    [List.length uniques = hits + computed + skipped]. *)
type 'v resolved = {
  values : 'v list;   (** one per input item, in input order *)
  uniques : 'v list;  (** one per distinct key, first-occurrence order *)
  hits : int;         (** served by the table or its [load] hook *)
  computed : int;
  skipped : int;
}

(** [resolve ?should_stop ~jobs ~compute ~lost ?keep t items] gives
    every keyed item a value, computing each distinct key at most once.

    Items are deduplicated by key (the first item of a key represents
    it); each distinct key is looked up with {!find_opt}; the misses run
    [compute] through {!Pool.map_ordered} over [jobs] workers, polling
    [should_stop] before each dispatch. A lost task becomes
    [lost representative loss] — except [Out_of_memory], which is
    re-raised. A computed value is written back with {!set} when [keep]
    (default: always) holds; a lost task's value never is. Every item
    then gets its key's value, so the result is independent of [jobs]
    whenever [compute] is deterministic. *)
val resolve :
  ?should_stop:(unit -> bool) ->
  jobs:int ->
  compute:('a -> 'v) ->
  lost:('a -> loss -> 'v) ->
  ?keep:('v -> bool) ->
  ('k, 'v) t ->
  ('k * 'a) list ->
  'v resolved
