(* eFPGA locking and the oracle-guided SAT attack. *)

module V = Alice_verilog
module N = Alice_netlist
module Sec = Alice_security

let mapped_of src =
  let c = N.Synth.synthesize (V.Elaborate.elaborate (V.Parser.parse src)) in
  fst (N.Lutmap.map ~k:4 c)

let small_comb =
  {|module m (input [5:0] a, output [3:0] y);
    assign y[0] = a[0] ^ (a[5] & a[3]);
    assign y[1] = (a[1] | a[2]) ^ a[4];
    assign y[2] = (a[0] & a[1]) | (a[2] & ~a[3]);
    assign y[3] = ^a;
  endmodule|}

let test_lock_roundtrip () =
  let mapped = mapped_of small_comb in
  let locked = Sec.Locked.of_mapped mapped in
  Alcotest.(check bool) "key bits counted" true (locked.Sec.Locked.key_bits > 0);
  (* applying the correct key reproduces the circuit *)
  let keyed = Sec.Locked.apply_key locked locked.Sec.Locked.correct_key in
  Alcotest.(check bool) "correct key is functionally correct" true
    (Sec.Metrics.key_is_correct locked locked.Sec.Locked.correct_key);
  Alcotest.(check int) "same gate count" (N.Circuit.gate_count mapped)
    (N.Circuit.gate_count keyed);
  (* the complemented key inverts every LUT, including the output cones *)
  let wrong = Array.map not locked.Sec.Locked.correct_key in
  Alcotest.(check bool) "complemented key detected" false
    (Sec.Metrics.key_is_correct locked wrong)

let test_scan_view () =
  let mapped =
    mapped_of
      {|module m (input clk, input [3:0] d, output reg [3:0] q);
        always @(posedge clk) q <= q + d;
      endmodule|}
  in
  let locked = Sec.Locked.of_mapped mapped in
  (* scan view: inputs = PIs + 4 Q bits, outputs = POs + 4 D bits *)
  Alcotest.(check int) "scan inputs" (1 + 4 + 4)
    (Array.length (Sec.Locked.input_nets locked));
  Alcotest.(check int) "scan outputs" (4 + 4)
    (Array.length (Sec.Locked.output_nets locked))

(* Small shapes the attack must break outright. Each row asserts ground
   truth (convergence and a functionally correct key) and determinism: a
   second run spends the same DIPs and conflicts and returns the same
   key, which verdict caching relies on. *)
let recoverable_shapes =
  [ ("small_comb", small_comb);
    ("3-bit a < b",
     "module m (input [2:0] a, input [2:0] b, output y); assign y = a < b; endmodule");
    ("4-bit a == 0",
     "module m (input [3:0] a, output y); assign y = a == 4'h0; endmodule");
    ("4-bit a == b",
     "module m (input [3:0] a, input [3:0] b, output y); assign y = a == b; endmodule");
    ("4-bit a + 5",
     "module m (input [3:0] a, output [3:0] y); assign y = a + 4'h5; endmodule") ]

let test_attack_recovers () =
  List.iter
    (fun (name, src) ->
      let check what = Printf.sprintf "%s: %s" name what in
      let locked = Sec.Locked.of_mapped (mapped_of src) in
      let run () =
        Sec.Sat_attack.attack locked ~oracle:(Sec.Locked.make_oracle locked)
      in
      let o = run () in
      Alcotest.(check string) (check "converges") "converged"
        (Sec.Sat_attack.status_to_string o.Sec.Sat_attack.status);
      Alcotest.(check bool) (check "needs at least one DIP") true
        (o.Sec.Sat_attack.iterations >= 1);
      (match o.Sec.Sat_attack.key with
      | None -> Alcotest.fail (check "no key extracted")
      | Some key ->
        Alcotest.(check bool) (check "recovered key functionally correct") true
          (Sec.Metrics.key_is_correct locked key));
      let again = run () in
      Alcotest.(check int) (check "same DIPs on rerun")
        o.Sec.Sat_attack.iterations again.Sec.Sat_attack.iterations;
      Alcotest.(check int) (check "same conflicts on rerun")
        o.Sec.Sat_attack.conflicts again.Sec.Sat_attack.conflicts;
      Alcotest.(check (option (array bool))) (check "same key on rerun")
        o.Sec.Sat_attack.key again.Sec.Sat_attack.key)
    recoverable_shapes

let test_attack_budget () =
  let mapped = mapped_of small_comb in
  let locked = Sec.Locked.of_mapped mapped in
  let oracle = Sec.Locked.make_oracle locked in
  let outcome =
    Sec.Sat_attack.attack
      ~budget:{ Sec.Sat_attack.max_iterations = 1; max_seconds = 30.0;
                solver_conflicts = None }
      locked ~oracle
  in
  Alcotest.(check bool) "budget exhausts" false outcome.Sec.Sat_attack.success

let test_metrics_report () =
  let mapped = mapped_of small_comb in
  let report = Sec.Metrics.evaluate mapped in
  Alcotest.(check bool) "attack succeeded" true report.Sec.Metrics.attack.Sec.Sat_attack.success;
  Alcotest.(check (option bool)) "key verified" (Some true) report.Sec.Metrics.key_correct;
  Alcotest.(check bool) "key bits positive" true (report.Sec.Metrics.key_bits > 0)

let test_attack_sequential () =
  (* scan-exposed sequential circuit: attack the combinational core *)
  let mapped =
    mapped_of
      {|module m (input clk, input rst, input [2:0] d, output reg [2:0] q);
        always @(posedge clk or negedge rst) begin
          if (!rst) q <= 3'h0;
          else q <= (q << 1) ^ d;
        end
      endmodule|}
  in
  let report = Sec.Metrics.evaluate mapped in
  Alcotest.(check bool) "sequential attack converges" true
    report.Sec.Metrics.attack.Sec.Sat_attack.success;
  Alcotest.(check (option bool)) "sequential key correct" (Some true)
    report.Sec.Metrics.key_correct

let test_approx_attack () =
  let locked = Sec.Locked.of_mapped (mapped_of small_comb) in
  let oracle = Sec.Locked.make_oracle locked in
  let o = Sec.Approx_attack.attack locked ~oracle in
  Alcotest.(check bool) "some agreement reached" true (o.Sec.Approx_attack.best_agreement > 0.3);
  Alcotest.(check bool) "flips accounted" true (o.Sec.Approx_attack.flips_tried > 0);
  Alcotest.(check bool) "agreement bounded" true (o.Sec.Approx_attack.best_agreement <= 1.0)

let test_approx_attack_weaker_than_sat () =
  (* on a circuit the exact attack solves, hill climbing typically stays
     approximate: assert only that both report sane, comparable data *)
  let locked =
    Sec.Locked.of_mapped (mapped_of (List.assoc "4-bit a + 5" recoverable_shapes))
  in
  let oracle = Sec.Locked.make_oracle locked in
  let exact = Sec.Sat_attack.attack locked ~oracle in
  let approx = Sec.Approx_attack.attack locked ~oracle in
  Alcotest.(check bool) "exact converges" true exact.Sec.Sat_attack.success;
  Alcotest.(check bool) "approx reports agreement" true
    (approx.Sec.Approx_attack.best_agreement > 0.0)

let tests =
  [ Alcotest.test_case "lock roundtrip" `Quick test_lock_roundtrip;
    Alcotest.test_case "scan view" `Quick test_scan_view;
    Alcotest.test_case "attack recovers key" `Quick test_attack_recovers;
    Alcotest.test_case "attack budget" `Quick test_attack_budget;
    Alcotest.test_case "metrics report" `Quick test_metrics_report;
    Alcotest.test_case "sequential attack" `Quick test_attack_sequential;
    Alcotest.test_case "approx attack" `Quick test_approx_attack;
    Alcotest.test_case "approx vs sat" `Quick test_approx_attack_weaker_than_sat ]
