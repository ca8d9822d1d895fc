(** Typed ALICE flow parameters, loaded from the custom YAML configuration
    file described in the paper (Section 3).

    The fabric fields mirror the OpenFPGA architecture knobs the paper
    fixes for its evaluation: CLBs of four 4-input fracturable LUTs and
    I/O tiles carrying 8 GPIOs each. *)

(** Direction of Eq. 1 ranking. The paper's Algorithm 3 selects the
    solution with the *highest* score (line 25), which — with Eq. 1 as
    printed — prefers solutions whose fabrics sit further below the
    best-observed utilizations and, because a solution's score is the sum
    over its eFPGAs, prefers more eFPGAs (matching the two-eFPGA outcomes
    reported for DES3/GCD under cfg1). The surrounding prose instead
    argues for maximizing utilization; [Lowest] implements that reading.
    Default: [Highest], the literal Algorithm 3. *)
type rank_order = Highest | Lowest

(** Which scoring formula feeds the ranking.

    [Reward] scores a fabric by its achieved utilization,
    alpha * IOUtil/MaxIOUtil + beta * CLBUtil/MaxCLBUtil. Summed over a
    solution's eFPGAs and ranked highest-first, it reproduces every
    selection reported in the paper's Table 2 (multi-eFPGA solutions for
    GCD/DES3 under cfg1, the all-modules cluster for DES3 under cfg2).
    [Penalty] is Eq. 1 exactly as printed, which rewards *unused*
    capacity; it is kept for study because the paper's prose and its
    results are only consistent with [Reward]. Default: [Reward]. *)
type score_formula = Reward | Penalty

(** Which scorer ranks the candidate solutions.

    [Heuristic] is Eq. 1 (under {!score_formula}) — utilization proxies
    for attack resistance, zero solver work. [Measured] instead runs a
    budgeted oracle-guided SAT attack against every valid candidate's
    locked netlist and ranks on key-recovery cost (conflicts spent;
    resisted-at-budget outranks solved) traded against fabric area via
    [attack_area_weight]. Default: [Heuristic]. *)
type score_mode = Heuristic | Measured

type t = {
  (* structural limits (CheckParameters in Algorithms 1 and 2) *)
  max_io_pins : int;        (** max aggregated I/O pins per eFPGA *)
  max_efpgas : int;         (** max number of eFPGA instances *)
  (* Eq. 1 weights *)
  alpha : float;
  beta : float;
  (* fabric family *)
  lut_inputs : int;         (** k of the k-LUTs (paper: 4) *)
  luts_per_clb : int;       (** logic elements per CLB (paper: 4) *)
  ffs_per_clb : int;        (** flip-flops per CLB *)
  gpio_per_tile : int;      (** GPIO pins per I/O tile (paper: 8) *)
  min_fabric_size : int;    (** smallest permitted W of a W x W fabric *)
  max_fabric_size : int;    (** largest permitted W *)
  target_utilization : float;
      (** max fraction of CLB capacity the mapper may fill; models the
          routability slack OpenFPGA's minimum-size search leaves *)
  min_clb_utilization : float;
      (** IsValid floor (Algorithm 3 line 4): fabrics utilized below this
          fraction are rejected as insecure/wasteful *)
  (* flow *)
  selected_outputs : string list;  (** outputs to protect; [] = all *)
  top : string option;
  min_score : int;          (** filtering keeps modules with score >= this *)
  rank_order : rank_order;
  score_formula : score_formula;
  score_mode : score_mode;
      (** [Heuristic] (default) ranks by Eq. 1; [Measured] ranks by
          budgeted attack verdicts (see {!score_mode}) *)
  attack_budget : int;
      (** measured scoring: conflict budget per SAT-solver call inside
          each candidate attack; must be positive *)
  attack_iterations : int;
      (** measured scoring: DIP-iteration cap per candidate attack;
          must be positive *)
  attack_jobs : int;
      (** worker domains for measured-scoring attack runs; [1] runs
          strictly serially. Verdicts are bit-identical across any
          [attack_jobs] value *)
  attack_area_weight : float;
      (** measured scoring: weight of the (normalized) fabric-area
          penalty traded against attack resilience; must be >= 0 *)
  transitive_independence : bool;
      (** when true, any dataflow path between two instances (even through
          registers and third-party logic) makes them dependent; when
          false (default) only a direct wire connection does *)
  (* resource budgets *)
  characterize_deadline_s : float option;
      (** wall-clock deadline in seconds for characterizing the whole
          candidate set; clusters not started before the deadline are
          skipped with a diagnostic. [None] disables the deadline *)
  jobs : int;
      (** worker domains for cluster characterization; [1] runs strictly
          serially (no domain is spawned). Results are order-preserving
          and bit-identical across any [jobs] value. Default: the
          runtime's recommended domain count *)
  cache : bool;
      (** persist characterizations across runs (engine-driven
          entrypoints only); results are identical either way, warm runs
          are just faster. Default: [true] *)
  cache_dir : string option;
      (** root of the on-disk characterization store; [None] falls back
          to [$ALICE_CACHE_DIR], [$XDG_CACHE_HOME/alice] or
          [~/.cache/alice] *)
  cache_max_bytes : int option;
      (** byte budget for the on-disk store; exceeded, least-recently
          used entries are evicted. [None] leaves the store unbounded *)
  fault_plan : string option;
      (** fault-injection plan spec (test machinery — see
          {!Alice_fault.Fault.parse}); [None] falls back to
          [$ALICE_FAULT_PLAN] *)
}


let default =
  { max_io_pins = 64; max_efpgas = 2; alpha = 1.0; beta = 1.0;
    lut_inputs = 4; luts_per_clb = 4; ffs_per_clb = 4; gpio_per_tile = 8;
    min_fabric_size = 2; max_fabric_size = 20; target_utilization = 0.5;
    min_clb_utilization = 0.0;
    selected_outputs = []; top = None; min_score = 1; rank_order = Highest;
    score_formula = Reward; score_mode = Heuristic;
    attack_budget = 20_000; attack_iterations = 64; attack_jobs = 1;
    attack_area_weight = 0.25;
    transitive_independence = false;
    characterize_deadline_s = None;
    jobs = Domain.recommended_domain_count ();
    cache = true; cache_dir = None; cache_max_bytes = None; fault_plan = None }

(** The paper's cfg1: at most 64 I/O pins per eFPGA, up to two eFPGAs. *)
let cfg1 = { default with max_io_pins = 64; max_efpgas = 2 }

(** The paper's cfg2: at most 96 I/O pins, a single eFPGA. *)
let cfg2 = { default with max_io_pins = 96; max_efpgas = 1 }

(* ---------- the field table ---------- *)

type role = Characterize | Attack | Result | Runtime

module Y = Yaml_lite

(* A codec reads the value under [key] of its section (present and not
   null) and prints it for the digests and [pp]. The printers are
   injective, so two values never share a digest. *)
type 'a codec = (Y.t -> string -> 'a) * ('a -> string)

let int : int codec = ((fun sec key -> Y.get_int sec key), string_of_int)

(* shortest decimal that reads back as the same float *)
let float_text f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* a reader accepting the nodes [f] maps to [Some] *)
let typed what f sec key =
  match Option.bind (Y.find sec key) f with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "%s: expected %s" key what)

let integer : int codec =
  (typed "an integer" (function Y.Int n -> Some n | _ -> None), string_of_int)

let number : float codec =
  ( typed "a number" (function
      | Y.Int n -> Some (float_of_int n)
      | Y.Float f -> Some f
      | _ -> None),
    float_text )

let bool : bool codec =
  (typed "a bool" (function Y.Bool b -> Some b | _ -> None), string_of_bool)

let text : string codec =
  ( typed "a string" (function Y.String s -> Some s | _ -> None),
    Printf.sprintf "%S" )

let checked what ok ((read, show) : 'a codec) : 'a codec =
  ( (fun sec key ->
      let v = read sec key in
      if ok v then v
      else invalid_arg (Printf.sprintf "%s: must be %s" key what)),
    show )

let some ((read, show) : 'a codec) : 'a option codec =
  ( (fun sec key -> Some (read sec key)),
    function None -> "-" | Some v -> show v )

let lookup key cases s =
  match List.assoc_opt s cases with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "%s: %s" key s)

let name_of cases v = fst (List.find (fun (_, v') -> v' = v) cases)

let enum (cases : (string * 'a) list) : 'a codec =
  ((fun sec key -> lookup key cases (Y.get_string sec key)), name_of cases)

let score_modes = [ ("heuristic", Heuristic); ("measured", Measured) ]

let score_mode_to_string = name_of score_modes

let score_mode_of_string = lookup "score" score_modes

type field = {
  key : string;  (* YAML path; a fabric knob is "fabric.<name>" *)
  role : role;
  read : Y.t -> string -> t -> t;  (* section, name within it *)
  show : t -> string;
}

let field key role ((read, show) : 'a codec) (get : t -> 'a)
    (set : t -> 'a -> t) : field =
  { key; role; read = (fun sec name c -> set c (read sec name));
    show = (fun c -> show (get c)) }

let positive = checked "positive" (fun n -> n > 0) integer

let at_least_1 = checked "at least 1" (fun n -> n >= 1) integer

(* One entry per record field, in record order. Reading, validation,
   the digests and [pp] are all folds over this table. *)
let table : field list =
  [ field "max_io_pins" Result int (fun c -> c.max_io_pins)
      (fun c v -> { c with max_io_pins = v });
    field "max_efpgas" Result int (fun c -> c.max_efpgas)
      (fun c v -> { c with max_efpgas = v });
    field "alpha" Result number (fun c -> c.alpha)
      (fun c v -> { c with alpha = v });
    field "beta" Result number (fun c -> c.beta)
      (fun c v -> { c with beta = v });
    field "fabric.lut_inputs" Characterize int (fun c -> c.lut_inputs)
      (fun c v -> { c with lut_inputs = v });
    field "fabric.luts_per_clb" Characterize int (fun c -> c.luts_per_clb)
      (fun c v -> { c with luts_per_clb = v });
    field "fabric.ffs_per_clb" Characterize int (fun c -> c.ffs_per_clb)
      (fun c v -> { c with ffs_per_clb = v });
    field "fabric.gpio_per_tile" Characterize int (fun c -> c.gpio_per_tile)
      (fun c v -> { c with gpio_per_tile = v });
    field "fabric.min_size" Characterize int (fun c -> c.min_fabric_size)
      (fun c v -> { c with min_fabric_size = v });
    field "fabric.max_size" Characterize int (fun c -> c.max_fabric_size)
      (fun c v -> { c with max_fabric_size = v });
    field "fabric.target_utilization" Characterize number
      (fun c -> c.target_utilization)
      (fun c v -> { c with target_utilization = v });
    field "fabric.min_clb_utilization" Characterize number
      (fun c -> c.min_clb_utilization)
      (fun c v -> { c with min_clb_utilization = v });
    field "selected_outputs" Result
      ( (fun sec key -> Y.get_string_list sec key),
        fun l ->
          "[" ^ String.concat ", " (List.map (Printf.sprintf "%S") l) ^ "]" )
      (fun c -> c.selected_outputs)
      (fun c v -> { c with selected_outputs = v });
    (* a non-string [top] means "pick the root module", as it always has *)
    field "top" Result
      ( (fun sec key ->
          match Y.find sec key with Some (Y.String s) -> Some s | _ -> None),
        snd (some text) )
      (fun c -> c.top) (fun c v -> { c with top = v });
    field "min_score" Result int (fun c -> c.min_score)
      (fun c v -> { c with min_score = v });
    field "rank_order" Result
      (enum [ ("highest", Highest); ("lowest", Lowest) ])
      (fun c -> c.rank_order) (fun c v -> { c with rank_order = v });
    field "score_formula" Result
      (enum [ ("reward", Reward); ("penalty", Penalty) ])
      (fun c -> c.score_formula) (fun c v -> { c with score_formula = v });
    field "score" Result (enum score_modes) (fun c -> c.score_mode)
      (fun c v -> { c with score_mode = v });
    field "attack_budget" Attack positive
      (fun c -> c.attack_budget) (fun c v -> { c with attack_budget = v });
    field "attack_iterations" Attack positive
      (fun c -> c.attack_iterations)
      (fun c v -> { c with attack_iterations = v });
    field "attack_jobs" Runtime at_least_1
      (fun c -> c.attack_jobs) (fun c v -> { c with attack_jobs = v });
    field "attack_area_weight" Result
      (checked "non-negative" (fun v -> v >= 0.0) number)
      (fun c -> c.attack_area_weight)
      (fun c v -> { c with attack_area_weight = v });
    field "transitive_independence" Result bool
      (fun c -> c.transitive_independence)
      (fun c v -> { c with transitive_independence = v });
    field "characterize_deadline_s" Result
      (some (checked "positive" (fun v -> v > 0.0) number))
      (fun c -> c.characterize_deadline_s)
      (fun c v -> { c with characterize_deadline_s = v });
    field "jobs" Runtime at_least_1
      (fun c -> c.jobs) (fun c v -> { c with jobs = v });
    field "cache" Runtime bool (fun c -> c.cache)
      (fun c v -> { c with cache = v });
    field "cache_dir" Runtime (some text) (fun c -> c.cache_dir)
      (fun c v -> { c with cache_dir = v });
    field "cache_max_bytes" Runtime
      (some (checked "non-negative" (fun n -> n >= 0) integer))
      (fun c -> c.cache_max_bytes) (fun c v -> { c with cache_max_bytes = v });
    field "fault_plan" Result (some text) (fun c -> c.fault_plan)
      (fun c v -> { c with fault_plan = v }) ]

let fields = List.map (fun f -> (f.key, f.role)) table

(* built once: [apply] runs per request on the server *)
let by_key : (string, field) Hashtbl.t =
  let h = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace h f.key f) table;
  h

let apply (doc : Y.t) (base : t) : t =
  let rec section prefix node c =
    match node with
    | Y.Null -> c
    | Y.Map kvs ->
      List.fold_left
        (fun c (k, v) ->
          let key = if prefix = "" then k else prefix ^ "." ^ k in
          match Hashtbl.find_opt by_key key with
          | Some f -> ( match v with Y.Null -> c | _ -> f.read node k c)
          | None when prefix = "" && k = "fabric" -> section k v c
          | None ->
            invalid_arg (Printf.sprintf "%s: unknown configuration key" key))
        c kvs
    | _ ->
      invalid_arg
        (Printf.sprintf "%s: expected a map"
           (if prefix = "" then "configuration" else prefix))
  in
  section "" doc base

let of_yaml (doc : Y.t) : t = apply doc default

let of_string (src : string) : t = of_yaml (Y.parse src)

(* The key of every selected field is part of the digested text, so
   adding, removing or re-roling a field rekeys by construction; the
   [v1] prefix versions the printers. *)
let digest (roles : role list) : t -> string =
  let selected = List.filter (fun f -> List.mem f.role roles) table in
  fun c ->
    Digest.to_hex
      (Digest.string
         (String.concat ";"
            ("v1" :: List.map (fun f -> f.key ^ "=" ^ f.show c) selected)))

let characterize_digest = digest [ Characterize ]

let attack_digest = digest [ Attack ]

let pp fmt (c : t) =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list (fun fmt f ->
         Format.fprintf fmt "%s: %s" f.key (f.show c)))
    table
