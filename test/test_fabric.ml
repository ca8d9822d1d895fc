(* Fabric model: capacities, sizing search, placement/routing invariants,
   bitstream accounting, area model. *)

module V = Alice_verilog
module N = Alice_netlist
module F = Alice_fabric

let arch = F.Arch.default

let test_capacities () =
  let f = F.Fabric.make arch 4 in
  Alcotest.(check int) "clbs" 16 (F.Fabric.clb_count f);
  Alcotest.(check int) "luts" 64 (F.Fabric.lut_capacity f);
  Alcotest.(check int) "ffs" 64 (F.Fabric.ff_capacity f);
  Alcotest.(check int) "4x4 exposes 64 pins (paper)" 64 (F.Fabric.io_capacity f);
  Alcotest.(check string) "label" "4x4" (F.Fabric.size_label f);
  let f5 = F.Fabric.make arch 5 in
  Alcotest.(check int) "5x5 pins" 80 (F.Fabric.io_capacity f5)

let mapped_of src =
  let c = N.Synth.synthesize (V.Elaborate.elaborate (V.Parser.parse src)) in
  fst (N.Lutmap.map ~k:4 c)

let small_design =
  {|module m (input clk, input rst, input [7:0] a, input [7:0] b, output reg [7:0] q);
    always @(posedge clk or negedge rst) begin
      if (!rst) q <= 8'h0;
      else q <= (a & b) + (a ^ b);
    end
  endmodule|}

let test_packing () =
  let mapped = mapped_of small_design in
  let clbs = F.Place.pack arch mapped in
  let elements = List.fold_left (fun acc c -> acc + List.length c.F.Place.les) 0 clbs in
  Alcotest.(check bool) "every CLB within capacity" true
    (List.for_all (fun c -> List.length c.F.Place.les <= arch.F.Arch.luts_per_clb) clbs);
  (* every LUT and FF appears exactly once *)
  let luts = N.Circuit.lut_count mapped and ffs = N.Circuit.dff_count mapped in
  let lut_slots =
    List.concat_map (fun c -> c.F.Place.les) clbs
    |> List.filter (fun le -> le.F.Place.le_lut <> None)
    |> List.length
  and ff_slots =
    List.concat_map (fun c -> c.F.Place.les) clbs
    |> List.filter (fun le -> le.F.Place.le_ff <> None)
    |> List.length
  in
  Alcotest.(check int) "all luts packed" luts lut_slots;
  Alcotest.(check int) "all ffs packed" ffs ff_slots;
  Alcotest.(check bool) "element count sane" true (elements >= max luts ffs)

let test_placement_invariants () =
  let mapped = mapped_of small_design in
  let fabric = F.Fabric.make arch 5 in
  let p = F.Place.place fabric mapped in
  (* all positions distinct and on the grid *)
  let positions = List.map snd p.F.Place.clbs in
  Alcotest.(check int) "distinct positions"
    (List.length positions)
    (List.length (List.sort_uniq compare positions));
  Alcotest.(check bool) "positions on grid" true
    (List.for_all (fun (x, y) -> x >= 0 && x < 5 && y >= 0 && y < 5) positions);
  Alcotest.(check bool) "io sites on pad ring" true
    (List.for_all (fun (_, (_, y)) -> y = -1 || y = 5) p.F.Place.io_sites);
  Alcotest.(check bool) "wirelength positive" true (p.F.Place.wirelength > 0.0)

let test_does_not_fit () =
  let mapped = mapped_of small_design in
  (match F.Place.place (F.Fabric.make arch 1) mapped with
  | exception F.Place.Does_not_fit _ -> ()
  | _ -> Alcotest.fail "expected Does_not_fit on a 1x1 fabric")

let test_size_search () =
  let mapped = mapped_of small_design in
  match F.Size_search.minimum arch ~min_size:2 ~max_size:20 ~target_utilization:0.5 mapped with
  | Error f -> Alcotest.fail (F.Size_search.failure_to_string f)
  | Ok impl ->
    let w = impl.F.Size_search.fabric.F.Fabric.width in
    Alcotest.(check bool) "width positive" true (w >= 2);
    Alcotest.(check bool) "utilization under target" true
      (impl.F.Size_search.clb_util <= 0.5 +. 1e-9);
    Alcotest.(check bool) "io fits" true
      (impl.F.Size_search.io_used <= F.Fabric.io_capacity impl.F.Size_search.fabric);
    (* minimality: one size down must fail at same constraints *)
    (match
       F.Size_search.minimum arch ~min_size:2 ~max_size:(w - 1)
         ~target_utilization:0.5 mapped
     with
    | Error _ -> ()
    | Ok smaller ->
      Alcotest.fail
        (Printf.sprintf "smaller fabric %s accepted below reported minimum"
           (F.Fabric.size_label smaller.F.Size_search.fabric)))

let test_size_search_failures () =
  let mapped = mapped_of small_design in
  (match F.Size_search.minimum arch ~min_size:2 ~max_size:2 ~target_utilization:0.5 mapped with
  | Error (F.Size_search.Too_large _ | F.Size_search.Unroutable _) -> ()
  | Error f -> Alcotest.fail ("unexpected failure: " ^ F.Size_search.failure_to_string f)
  | Ok _ -> Alcotest.fail "expected failure on max_size 2")

(* ---------- differential: pack once vs place at every width ---------- *)

(* The size search as it ran before packing was hoisted: [Place.place]
   (which packs) at every width, the utilization test after placing. *)
let reference_minimum arch ~min_size ~max_size ~target_utilization mapped =
  let module S = F.Size_search in
  if N.Circuit.io_bit_count mapped = 0 then Error S.Empty_circuit
  else
    let rec search w last_no_route last_no_fit =
      if w > max_size then
        match (last_no_route, last_no_fit) with
        | Some cg, _ -> Error (S.Unroutable cg)
        | None, Some fe -> Error (S.Too_large fe)
        | None, None ->
          Error
            (S.Too_large
               (F.Place.fit_failure ~width:max_size ~resource:`Clb ~needed:0
                  ~available:0))
      else
        let fabric = F.Fabric.make arch w in
        match F.Place.place fabric mapped with
        | exception F.Place.Does_not_fit fe ->
          search (w + 1) last_no_route (Some fe)
        | placement ->
          let clbs_used = F.Place.clbs_used placement in
          let clb_cap = F.Fabric.clb_count fabric in
          let budget = S.clb_budget ~target_utilization ~clb_cap in
          if clbs_used > budget then
            search (w + 1) last_no_route
              (Some
                 (F.Place.fit_failure ~width:w ~resource:`Utilization
                    ~needed:clbs_used ~available:budget))
          else
            let routing = F.Route.route placement in
            if not routing.F.Route.routable then
              search (w + 1)
                (Some
                   { S.cg_width = w; cg_demand = routing.F.Route.max_demand;
                     cg_tracks = routing.F.Route.tracks_available })
                last_no_fit
            else
              let io_used = N.Circuit.io_bit_count mapped in
              Ok
                { S.fabric; placement; routing;
                  luts_used = N.Circuit.lut_count mapped;
                  ffs_used = N.Circuit.dff_count mapped; io_used; clbs_used;
                  io_util =
                    float_of_int io_used
                    /. float_of_int (F.Fabric.io_capacity fabric);
                  clb_util = float_of_int clbs_used /. float_of_int clb_cap;
                  bitstream_bits = F.Bitstream.length fabric;
                  lut_depth = N.Lutmap.depth mapped }
    in
    search (max 1 min_size) None None

let test_place_packed_equals_place () =
  let mapped = mapped_of small_design in
  List.iter
    (fun w ->
      let fabric = F.Fabric.make arch w in
      Alcotest.(check bool)
        (Printf.sprintf "%dx%d: place = place_packed of pack" w w)
        true
        (F.Place.place fabric mapped
         = F.Place.place_packed fabric mapped (F.Place.pack arch mapped)))
    [ 3; 5; 8 ]

let test_size_search_matches_reference () =
  let module A = Alice in
  let module B = Alice_benchmarks.Suite in
  let module C = Alice_config.Flow_config in
  let compared = ref 0 in
  List.iter
    (fun (name, cfg_name) ->
      let b = Option.get (B.find name) in
      let cfg = if cfg_name = "cfg1" then B.config1 b else B.config2 b in
      let flow =
        A.Flow.run_request (A.Flow.request ~config:cfg (A.Flow.Ast (B.parse b)))
      in
      let key_of = A.Characterize.keyer flow.A.Flow.design cfg in
      let arch = F.Arch.of_config cfg in
      let seen = Hashtbl.create 64 in
      List.iter
        (fun (c : A.Characterize.characterization) ->
          let key = key_of c.A.Characterize.cluster in
          match c.A.Characterize.mapped with
          | Some mapped when not (Hashtbl.mem seen key) ->
            Hashtbl.add seen key ();
            incr compared;
            let search f =
              f arch ~min_size:cfg.C.min_fabric_size
                ~max_size:cfg.C.max_fabric_size
                ~target_utilization:cfg.C.target_utilization mapped
            in
            let got = search F.Size_search.minimum
            and want = search reference_minimum in
            let label =
              Printf.sprintf "%s/%s %s" name cfg_name
                c.A.Characterize.cluster.A.Clustering.key
            in
            Alcotest.(check bool) (label ^ ": same result") true (got = want);
            (match (got, want) with
            | Ok g, Ok w ->
              Alcotest.(check bool) (label ^ ": same bitstream") true
                (F.Bitstream.generate g.F.Size_search.placement mapped
                 = F.Bitstream.generate w.F.Size_search.placement mapped)
            | _ -> ())
          | Some _ | None -> ())
        flow.A.Flow.characterized)
    (List.concat_map
       (fun name -> [ (name, "cfg1"); (name, "cfg2") ])
       [ "GCD"; "SASC"; "FIR"; "USB_PHY" ]);
  Alcotest.(check bool) "clusters compared" true (!compared > 0)

(* one Too_large per resource: the payload at [max_size] is the
   reference's, byte for byte *)
let test_too_large_payloads () =
  let pins_only =
    mapped_of
      {|module m (input [39:0] a, output [39:0] y); assign y = a; endmodule|}
  in
  let small = mapped_of small_design in
  List.iter
    (fun (what, mapped, max_size, resource) ->
      let search f =
        f arch ~min_size:1 ~max_size ~target_utilization:0.5 mapped
      in
      let got = search F.Size_search.minimum in
      Alcotest.(check bool) (what ^ ": same as reference") true
        (got = search reference_minimum);
      match got with
      | Error (F.Size_search.Too_large fe) ->
        Alcotest.(check bool) (what ^ ": resource") true
          (fe.F.Place.fit_resource = resource);
        Alcotest.(check int) (what ^ ": at max_size") max_size
          fe.F.Place.fit_width
      | Ok _ | Error _ -> Alcotest.fail (what ^ ": expected Too_large"))
    [ ("clb", small, 1, `Clb); ("io", pins_only, 2, `Io);
      ("utilization", small, 2, `Utilization) ]

let test_clb_budget_boundary () =
  (* the integer CLB budget shared by the feasibility comparison and the
     fit-failure payload: exactly the target is feasible, one more CLB
     is not, and the two sides can never disagree *)
  Alcotest.(check int) "exact half of 12" 6
    (F.Size_search.clb_budget ~target_utilization:0.5 ~clb_cap:12);
  Alcotest.(check int) "0.6 of 10 is exactly 6" 6
    (F.Size_search.clb_budget ~target_utilization:0.6 ~clb_cap:10);
  Alcotest.(check int) "just under: 0.59 of 10 floors to 5" 5
    (F.Size_search.clb_budget ~target_utilization:0.59 ~clb_cap:10);
  List.iter
    (fun (t, cap) ->
      let b = F.Size_search.clb_budget ~target_utilization:t ~clb_cap:cap in
      (* a placement of exactly the budget passes the (float) test the
         search enforces; one more CLB fails it *)
      Alcotest.(check bool) "budget itself is feasible" true
        (float_of_int b <= t *. float_of_int cap);
      Alcotest.(check bool) "budget + 1 is infeasible" true
        (float_of_int (b + 1) > t *. float_of_int cap))
    [ (0.5, 12); (0.6, 10); (0.7, 10); (0.3, 7); (1.0, 16); (0.25, 4) ];
  (* end-to-end: a utilization fit failure reports exactly the budget
     the comparison enforced at the failing width *)
  let mapped = mapped_of small_design in
  match
    F.Size_search.minimum arch ~min_size:4 ~max_size:4
      ~target_utilization:0.01 mapped
  with
  | Ok impl ->
    Alcotest.fail
      (Printf.sprintf "1%%-utilization target accepted %s"
         (F.Fabric.size_label impl.F.Size_search.fabric))
  | Error (F.Size_search.Too_large fe) ->
    Alcotest.(check bool) "failure is the utilization test" true
      (fe.F.Place.fit_resource = `Utilization);
    Alcotest.(check int) "payload matches the enforced budget"
      (F.Size_search.clb_budget ~target_utilization:0.01
         ~clb_cap:(F.Fabric.clb_count (F.Fabric.make arch fe.F.Place.fit_width)))
      fe.F.Place.fit_available
  | Error f ->
    Alcotest.fail ("unexpected failure: " ^ F.Size_search.failure_to_string f)

let test_bitstream () =
  let f4 = F.Fabric.make arch 4 and f5 = F.Fabric.make arch 5 in
  let l4 = F.Bitstream.layout f4 and l5 = F.Bitstream.layout f5 in
  Alcotest.(check int) "lut bits 4x4" (16 * 4 * 16) l4.F.Bitstream.lut_bits;
  Alcotest.(check bool) "bigger fabric, longer bitstream" true
    (l5.F.Bitstream.total_bits > l4.F.Bitstream.total_bits);
  Alcotest.(check int) "total is the sum" l4.F.Bitstream.total_bits
    (l4.F.Bitstream.lut_bits + l4.F.Bitstream.clb_routing_bits
     + l4.F.Bitstream.switchbox_bits + l4.F.Bitstream.io_bits);
  (* generated bitstream embeds the LUT tables *)
  let mapped = mapped_of small_design in
  match F.Size_search.minimum arch ~min_size:2 ~max_size:20 ~target_utilization:0.5 mapped with
  | Error _ -> Alcotest.fail "no fabric"
  | Ok impl ->
    let bits = F.Bitstream.generate impl.F.Size_search.placement mapped in
    Alcotest.(check int) "bitstream length matches layout"
      (F.Bitstream.length impl.F.Size_search.fabric)
      (Array.length bits);
    let set = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 bits in
    Alcotest.(check bool) "some configuration bits set" true (set > 0)

let test_area_model () =
  let f4 = F.Fabric.make arch 4 and f5 = F.Fabric.make arch 5 in
  let a4 = F.Area.fabric_area f4 and a5 = F.Area.fabric_area f5 in
  Alcotest.(check bool) "bigger fabric, bigger area" true (a5 > a4);
  Alcotest.(check bool) "4x4 in the tens of thousands of um2" true
    (a4 > 10_000.0 && a4 < 60_000.0);
  let total = F.Area.solution_area ~asic_gates:1000 [ f4; f4 ] in
  Alcotest.(check (float 1.0)) "solution area sums"
    ((2.0 *. a4) +. F.Area.asic_area ~gates:1000)
    total

let test_routing_report () =
  let mapped = mapped_of small_design in
  let p = F.Place.place (F.Fabric.make arch 6) mapped in
  let r = F.Route.route p in
  Alcotest.(check bool) "wirelength accumulated" true (r.F.Route.total_wirelength > 0.0);
  Alcotest.(check bool) "routable on a roomy fabric" true r.F.Route.routable

let test_emit () =
  let fabric = F.Fabric.make arch 4 in
  let text = F.Emit.opaque_wrapper ~name:"efpga_0" ~fabric ~gpio_in:10 ~gpio_out:6 in
  (* the opaque wrapper must parse with our own frontend *)
  let d = V.Parser.parse text in
  Alcotest.(check int) "one module" 1 (List.length d.V.Ast.modules);
  let prog =
    F.Emit.programmed_wrapper ~name:"efpga_0" ~fabric
      ~members:
        [ { F.Emit.member_module = "sub"; member_instance = "u1"; member_params = [];
            in_ports = [ ("a", 4) ]; out_ports = [ ("y", 4) ] } ]
  in
  let d2 = V.Parser.parse prog in
  Alcotest.(check int) "programmed parses" 1 (List.length d2.V.Ast.modules)

let test_timing () =
  let mapped = mapped_of small_design in
  let p = F.Place.place (F.Fabric.make arch 5) mapped in
  let t = F.Timing.estimate p mapped in
  Alcotest.(check bool) "positive critical path" true (t.F.Timing.critical_path_ns > 0.0);
  Alcotest.(check bool) "levels consistent with mapping" true
    (t.F.Timing.logic_levels >= 1
     && t.F.Timing.logic_levels <= Alice_netlist.Lutmap.depth mapped + 1);
  (* wire delay makes the fabric slower than a zero-wire lower bound *)
  let lower = 0.25 *. float_of_int t.F.Timing.logic_levels in
  Alcotest.(check bool) "wire delay adds" true (t.F.Timing.critical_path_ns >= lower);
  Alcotest.(check bool) "asic reference positive" true
    (F.Timing.asic_reference_ns mapped > 0.0)

let test_power () =
  let mapped = mapped_of small_design in
  let r = F.Power.estimate ~vectors:64 mapped in
  Alcotest.(check bool) "activity positive" true (r.F.Power.toggles_per_cycle > 0.0);
  Alcotest.(check bool) "weighted >= raw" true
    (r.F.Power.weighted_activity >= r.F.Power.toggles_per_cycle);
  (* determinism under a fixed seed *)
  let r2 = F.Power.estimate ~vectors:64 mapped in
  Alcotest.(check (float 1e-9)) "deterministic" r.F.Power.weighted_activity
    r2.F.Power.weighted_activity;
  (* placed wirelength weighting can only increase the figure *)
  let p = F.Place.place (F.Fabric.make arch 5) mapped in
  let placed =
    F.Power.estimate ~vectors:64 ~wirelength_of:(F.Power.placed_wirelength p) mapped
  in
  Alcotest.(check bool) "placement weighting increases activity" true
    (placed.F.Power.weighted_activity >= r.F.Power.weighted_activity)

let tests =
  [ Alcotest.test_case "capacities" `Quick test_capacities;
    Alcotest.test_case "packing" `Quick test_packing;
    Alcotest.test_case "placement invariants" `Quick test_placement_invariants;
    Alcotest.test_case "does not fit" `Quick test_does_not_fit;
    Alcotest.test_case "size search" `Quick test_size_search;
    Alcotest.test_case "size search failures" `Quick test_size_search_failures;
    Alcotest.test_case "clb budget boundary" `Quick test_clb_budget_boundary;
    Alcotest.test_case "place_packed equals place" `Quick
      test_place_packed_equals_place;
    Alcotest.test_case "size search matches place-per-width reference" `Quick
      test_size_search_matches_reference;
    Alcotest.test_case "too-large payloads match reference" `Quick
      test_too_large_payloads;
    Alcotest.test_case "bitstream" `Quick test_bitstream;
    Alcotest.test_case "area model" `Quick test_area_model;
    Alcotest.test_case "routing report" `Quick test_routing_report;
    Alcotest.test_case "emit wrappers" `Quick test_emit;
    Alcotest.test_case "timing estimate" `Quick test_timing;
    Alcotest.test_case "power estimate" `Quick test_power ]
