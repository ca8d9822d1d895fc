(* The domain-parallel characterization engine: pool ordering and fault
   isolation, the memo table's batch resolver against a serial
   reference, serial vs parallel flow equivalence, and determinism of a
   parallel SoC run. *)

module A = Alice
module B = Alice_benchmarks.Suite
module C = Alice_config
module D = Alice_diag.Diag
module F = Alice_fabric
module P = Alice_parallel
module V = Alice_verilog

let flow_ast ~config ast =
  A.Flow.run_request (A.Flow.request ~config (A.Flow.Ast ast))

(* ---------- pool semantics ---------- *)

let test_map_ordered_matches_serial () =
  (* 100 tasks: every jobs value returns the serial map, in order *)
  let xs = List.init 100 Fun.id in
  let f x = (x * x) + 1 in
  let expected = List.map (fun x -> P.Pool.Value (f x)) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d equals serial map" jobs)
        true
        (P.Pool.map_ordered ~jobs f xs = expected))
    [ 1; 2; 4; 7 ]

exception Boom of int

let test_exception_capture () =
  (* a raising task yields its own error; siblings still complete *)
  let xs = List.init 40 Fun.id in
  let f x = if x mod 5 = 3 then raise (Boom x) else 2 * x in
  List.iter
    (fun jobs ->
      let out = P.Pool.map_ordered ~jobs f xs in
      Alcotest.(check int) "every task has an outcome" 40 (List.length out);
      List.iteri
        (fun i o ->
          match o with
          | P.Pool.Value v ->
            Alcotest.(check bool) "only non-raising tasks return" false
              (i mod 5 = 3);
            Alcotest.(check int) "sibling unaffected" (2 * i) v
          | P.Pool.Raised (Boom j) ->
            Alcotest.(check int) "a task's error is its own" i j
          | P.Pool.Raised e ->
            Alcotest.fail ("unexpected exception: " ^ Printexc.to_string e)
          | P.Pool.Skipped -> Alcotest.fail "nothing should be skipped")
        out)
    [ 1; 4 ]

let test_should_stop_skips_undispatched () =
  (* a stop predicate true from the start: nothing is dispatched *)
  let xs = List.init 10 Fun.id in
  List.iter
    (fun jobs ->
      let out =
        P.Pool.map_ordered ~should_stop:(fun () -> true) ~jobs (fun x -> x) xs
      in
      Alcotest.(check bool) "all skipped" true
        (List.for_all (fun o -> o = P.Pool.Skipped) out);
      Alcotest.(check int) "order/length preserved" 10 (List.length out))
    [ 1; 4 ]

let test_caller_is_a_worker () =
  (* jobs=2: one spawned domain plus the caller, which drains tasks
     instead of idling in join *)
  let caller = (Domain.self () :> int) in
  let out =
    P.Pool.map_ordered ~jobs:2
      (fun _ -> Unix.sleepf 0.001; (Domain.self () :> int))
      (List.init 50 Fun.id)
  in
  let domains =
    List.sort_uniq compare
      (List.map
         (function
           | P.Pool.Value d -> d
           | P.Pool.Raised _ | P.Pool.Skipped -> Alcotest.fail "task lost")
         out)
  in
  Alcotest.(check bool) "at most 2 domains" true (List.length domains <= 2);
  Alcotest.(check bool) "the caller ran tasks" true (List.mem caller domains)

(* ---------- Memo.resolve against a serial reference ---------- *)

(* One batch: keys of the items (each item's payload is its key), keys
   pre-seeded in the table, keys the [load] hook serves, an optional
   dispatch budget for the stop predicate, and the worker count. Values
   say where they came from: [1000 + k] seeded, [2000 + k] loaded,
   [10 * k] computed, [-1 - k] a raised task, [-100 - k] a skipped
   one. Keys [k mod 5 = 3] raise; only computed values of even keys
   are kept. *)
let resolve_prop =
  let gen =
    QCheck.Gen.(
      pair
        (quad
           (list_size (int_range 0 30) (int_range 0 9))
           (list_size (int_range 0 4) (int_range 0 9))
           (list_size (int_range 0 4) (int_range 0 9))
           (opt (int_range 0 6)))
        (oneofl [ 1; 4 ]))
  in
  let print ((keys, seeded, loadable, budget), jobs) =
    let ints l = String.concat "," (List.map string_of_int l) in
    Printf.sprintf "keys=[%s] seeded=[%s] loadable=[%s] budget=%s jobs=%d"
      (ints keys) (ints seeded) (ints loadable)
      (match budget with None -> "-" | Some b -> string_of_int b)
      jobs
  in
  QCheck.Test.make ~count:200 ~name:"memo resolve matches a serial reference"
    (QCheck.make ~print gen)
    (fun ((keys, seeded, loadable, budget), jobs) ->
      let saved = ref [] and saved_mu = Mutex.create () in
      let load k = if List.mem k loadable then Some (2000 + k) else None in
      let save k v = Mutex.protect saved_mu (fun () -> saved := (k, v) :: !saved) in
      let memo : (int, int) P.Memo.t = P.Memo.create ~load ~save () in
      List.iter (fun k -> P.Memo.set memo k (1000 + k)) seeded;
      saved := [];
      let calls = Array.init 10 (fun _ -> Atomic.make 0) in
      let compute k =
        Atomic.incr calls.(k);
        if k mod 5 = 3 then failwith "boom" else 10 * k
      in
      let lost k = function
        | P.Memo.Raised _ -> -1 - k
        | P.Memo.Skipped -> -100 - k
      in
      let polls = Atomic.make 0 in
      let should_stop =
        Option.map (fun b () -> Atomic.fetch_and_add polls 1 >= b) budget
      in
      let r =
        P.Memo.resolve ?should_stop ~jobs ~compute ~lost
          ~keep:(fun v -> v mod 20 = 0)
          memo
          (List.map (fun k -> (k, k)) keys)
      in
      (* the serial reference: uniques in first-occurrence order, hits
         from the seeded table or the load hook, and the misses in
         order; a miss was dispatched iff [compute] ran on it *)
      let first_seen =
        List.fold_left
          (fun acc k -> if List.mem k acc then acc else acc @ [ k ])
          [] keys
      in
      let is_hit k = List.mem k seeded || List.mem k loadable in
      let misses = List.filter (fun k -> not (is_hit k)) first_seen in
      let dispatched k = Atomic.get calls.(k) > 0 in
      let reference = Hashtbl.create 16 in
      List.iter
        (fun k ->
          Hashtbl.replace reference k
            (if List.mem k seeded then 1000 + k
             else if List.mem k loadable then 2000 + k
             else if not (dispatched k) then -100 - k
             else if k mod 5 = 3 then -1 - k
             else 10 * k))
        first_seen;
      let n_dispatched = List.length (List.filter dispatched misses) in
      let expected_dispatch =
        match budget with
        | None -> List.length misses
        | Some b -> min b (List.length misses)
      in
      let serial_prefix =
        (* one worker dispatches the misses in first-occurrence order *)
        jobs > 1
        || List.for_all2
             (fun i k -> dispatched k = (i < expected_dispatch))
             (List.init (List.length misses) Fun.id)
             misses
      in
      let kept =
        List.filter_map
          (fun k ->
            if dispatched k && k mod 5 <> 3 && k mod 2 = 0 then Some (k, 10 * k)
            else None)
          misses
      in
      r.P.Memo.values = List.map (Hashtbl.find reference) keys
      && r.P.Memo.uniques = List.map (Hashtbl.find reference) first_seen
      && Array.for_all (fun c -> Atomic.get c <= 1) calls
      && not (List.exists (fun k -> is_hit k && dispatched k) first_seen)
      && n_dispatched = expected_dispatch
      && serial_prefix
      && List.sort compare !saved = List.sort compare kept
      && List.length first_seen
         = r.P.Memo.hits + r.P.Memo.computed + r.P.Memo.skipped
      && r.P.Memo.hits = List.length first_seen - List.length misses
      && r.P.Memo.computed = n_dispatched)

(* ---------- flow equivalence: serial vs parallel ---------- *)

(* timing-free projection of everything selection/diagnostics decide *)
let solution_sig (s : A.Selection.solution) =
  ( List.map
      (fun (e : A.Selection.efpga_impl) ->
        ( e.A.Selection.cluster.A.Clustering.key,
          F.Fabric.size_label e.A.Selection.impl.F.Size_search.fabric,
          e.A.Selection.score ))
      s.A.Selection.efpgas,
    s.A.Selection.total_score,
    s.A.Selection.redacted_instances,
    s.A.Selection.is_final )

let outcome_sig (o : A.Characterize.outcome) =
  match o with
  | A.Characterize.Implemented impl ->
    `Implemented
      ( F.Fabric.size_label impl.F.Size_search.fabric,
        impl.F.Size_search.luts_used, impl.F.Size_search.clbs_used,
        impl.F.Size_search.io_used )
  | A.Characterize.Infeasible f -> `Infeasible (F.Size_search.failure_to_string f)
  | A.Characterize.Failed d -> `Failed d
  | A.Characterize.Skipped d -> `Skipped d

let flow_sig (flow : A.Flow.t) =
  ( List.map
      (fun (c : A.Characterize.characterization) ->
        (c.A.Characterize.cluster.A.Clustering.key,
         outcome_sig c.A.Characterize.outcome))
      flow.A.Flow.characterized,
    List.map solution_sig flow.A.Flow.selection.A.Selection.solutions,
    Option.map solution_sig flow.A.Flow.selection.A.Selection.best,
    flow.A.Flow.selection.A.Selection.max_io_util,
    flow.A.Flow.selection.A.Selection.max_clb_util,
    flow.A.Flow.diags )

let test_flow_jobs_equivalence () =
  (* full Flow.run_request on two benchmarks: selection and diagnostics are
     identical (modulo timing fields) between jobs=1 and jobs=4 *)
  List.iter
    (fun name ->
      let b = Option.get (B.find name) in
      let ast = B.parse b in
      let serial =
        flow_ast ~config:{ (B.config1 b) with C.Flow_config.jobs = 1 } ast
      in
      let parallel =
        flow_ast ~config:{ (B.config1 b) with C.Flow_config.jobs = 4 } ast
      in
      Alcotest.(check bool)
        (name ^ ": jobs=4 flow output equals jobs=1")
        true
        (flow_sig serial = flow_sig parallel))
    [ "GCD"; "SASC" ]

(* ---------- determinism: the SoC flow twice at jobs=4 ---------- *)

let soc_cfg ~jobs =
  { C.Flow_config.cfg1 with
    C.Flow_config.selected_outputs = Alice_benchmarks.Soc.selected_outputs;
    top = Some Alice_benchmarks.Soc.top;
    min_fabric_size = 4; max_fabric_size = 20; target_utilization = 0.5;
    min_clb_utilization = 0.3; jobs }

let test_soc_parallel_determinism () =
  let ast = V.Parser.parse ~file:"soc.v" Alice_benchmarks.Soc.source in
  let run () = flow_ast ~config:(soc_cfg ~jobs:4) ast in
  let first = run () and second = run () in
  Alcotest.(check bool) "SoC flow is deterministic at jobs=4" true
    (flow_sig first = flow_sig second);
  Alcotest.(check bool) "the SoC flow actually selects a solution" true
    (first.A.Flow.selection.A.Selection.best <> None)

let tests =
  [ Alcotest.test_case "map_ordered equals serial map (100 tasks)" `Quick
      test_map_ordered_matches_serial;
    Alcotest.test_case "exception capture isolates one task" `Quick
      test_exception_capture;
    Alcotest.test_case "should_stop skips undispatched tasks" `Quick
      test_should_stop_skips_undispatched;
    Alcotest.test_case "caller domain is one of the workers" `Quick
      test_caller_is_a_worker;
    QCheck_alcotest.to_alcotest resolve_prop;
    Alcotest.test_case "flow: jobs=1 vs jobs=4 equivalence" `Slow
      test_flow_jobs_equivalence;
    Alcotest.test_case "flow: SoC determinism at jobs=4" `Slow
      test_soc_parallel_determinism ]
