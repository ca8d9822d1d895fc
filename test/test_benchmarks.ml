(* Benchmark designs: Table 1 characteristics (exact), synthesizability,
   and functional spot checks. *)

module V = Alice_verilog
module N = Alice_netlist
module A = Alice
module B = Alice_benchmarks.Suite

let flow_ast ~config ast =
  A.Flow.run_request (A.Flow.request ~config (A.Flow.Ast ast))

let table1_expected =
  (* design, modules, instances, io_min, io_max — the paper's Table 1 *)
  [ ("DES3", 11, 11, 12, 301);
    ("FIR", 5, 5, 64, 384);
    ("IIR", 5, 5, 66, 384);
    ("SHA256", 3, 3, 38, 774);
    ("SASC", 2, 3, 23, 28);
    ("USB_PHY", 3, 3, 17, 33);
    ("GCD", 10, 11, 6, 68) ]

let test_table1 () =
  List.iter
    (fun (name, modules, instances, io_min, io_max) ->
      let b = Option.get (B.find name) in
      let d = B.elaborate b in
      let row = A.Report.table1_row ~design_name:name d in
      Alcotest.(check int) (name ^ " modules") modules row.A.Report.t1_modules;
      Alcotest.(check int) (name ^ " instances") instances row.A.Report.t1_instances;
      Alcotest.(check int) (name ^ " io min") io_min row.A.Report.t1_io_min;
      Alcotest.(check int) (name ^ " io max") io_max row.A.Report.t1_io_max)
    table1_expected

let test_all_synthesize () =
  List.iter
    (fun (b : B.benchmark) ->
      let d = B.elaborate b in
      let c = N.Synth.synthesize d in
      Alcotest.(check bool) (b.B.name ^ " has gates") true
        (N.Circuit.gate_count c > 0);
      (* levelization must succeed: no combinational loops *)
      ignore (N.Simulate.create c))
    B.all

let test_gcd_computes () =
  let b = Option.get (B.find "GCD") in
  let c = N.Synth.synthesize (B.elaborate b) in
  let sim = N.Simulate.create c in
  let run_gcd a bv =
    N.Simulate.reset sim;
    N.Simulate.set_input sim "rst" 0;
    N.Simulate.step sim;
    N.Simulate.set_input sim "rst" 1;
    N.Simulate.set_input sim "a_in" a;
    N.Simulate.set_input sim "b_in" bv;
    N.Simulate.set_input sim "start" 1;
    N.Simulate.step sim;
    N.Simulate.set_input sim "start" 0;
    let rec wait n =
      if n = 0 then Alcotest.fail "gcd did not finish"
      else begin
        N.Simulate.step sim;
        N.Simulate.eval sim;
        if N.Simulate.read_output sim "done" = 1 then
          N.Simulate.read_output sim "result"
        else wait (n - 1)
      end
    in
    wait 200
  in
  Alcotest.(check int) "gcd(48,18)" 6 (run_gcd 48 18);
  Alcotest.(check int) "gcd(35,14)" 7 (run_gcd 35 14);
  Alcotest.(check int) "gcd(17,5)" 1 (run_gcd 17 5);
  Alcotest.(check int) "gcd(100,100)" 100 (run_gcd 100 100)

let test_sasc_fifo_behaviour () =
  let b = Option.get (B.find "SASC") in
  let c = N.Synth.synthesize (B.elaborate b) in
  let sim = N.Simulate.create c in
  N.Simulate.reset sim;
  N.Simulate.set_input sim "rst" 0;
  N.Simulate.step sim;
  N.Simulate.set_input sim "rst" 1;
  N.Simulate.eval sim;
  Alcotest.(check int) "initially not full" 0 (N.Simulate.read_output sim "full_o");
  (* push 4 entries into the TX fifo *)
  N.Simulate.set_input sim "we_i" 1;
  N.Simulate.set_input sim "re_i" 0;
  for i = 1 to 4 do
    N.Simulate.set_input sim "din" (i * 11);
    N.Simulate.step sim
  done;
  N.Simulate.set_input sim "we_i" 0;
  N.Simulate.eval sim;
  Alcotest.(check int) "full after 4 pushes" 1 (N.Simulate.read_output sim "full_o");
  (* pop one: no longer full *)
  N.Simulate.set_input sim "re_i" 1;
  N.Simulate.step sim;
  N.Simulate.set_input sim "re_i" 0;
  N.Simulate.eval sim;
  Alcotest.(check int) "not full after pop" 0 (N.Simulate.read_output sim "full_o")

let test_des3_runs () =
  let b = Option.get (B.find "DES3") in
  let c = N.Synth.synthesize (B.elaborate b) in
  let sim = N.Simulate.create c in
  N.Simulate.reset sim;
  N.Simulate.set_input sim "rst" 0;
  N.Simulate.step sim;
  N.Simulate.set_input sim "rst" 1;
  N.Simulate.set_input sim "des_in" 0x123456;
  N.Simulate.set_input sim "key" 0x1f2e3d;
  N.Simulate.set_input sim "decrypt" 0;
  N.Simulate.set_input sim "start" 1;
  N.Simulate.step sim;
  N.Simulate.set_input sim "start" 0;
  let rec wait n =
    if n = 0 then Alcotest.fail "des3 did not complete"
    else begin
      N.Simulate.step sim;
      N.Simulate.eval sim;
      if N.Simulate.read_output sim "out_valid" = 1 then ()
      else wait (n - 1)
    end
  in
  wait 64;
  (* ciphertext differs from plaintext and is input-dependent *)
  let c1 = N.Simulate.read_output sim "des_out" in
  Alcotest.(check bool) "ciphertext nontrivial" true (c1 <> 0x123456 && c1 <> 0)

let test_sha256_runs () =
  let b = Option.get (B.find "SHA256") in
  let c = N.Synth.synthesize (B.elaborate b) in
  let sim = N.Simulate.create c in
  let digest_of block =
    N.Simulate.reset sim;
    N.Simulate.set_input sim "rst" 0;
    N.Simulate.step sim;
    N.Simulate.set_input sim "rst" 1;
    N.Simulate.set_input sim "block" block;
    N.Simulate.set_input sim "h_init" 0x6a09e667;
    N.Simulate.set_input sim "start" 1;
    N.Simulate.step sim;
    N.Simulate.set_input sim "start" 0;
    let rec wait n =
      if n = 0 then Alcotest.fail "sha256 did not complete"
      else begin
        N.Simulate.step sim;
        N.Simulate.eval sim;
        if N.Simulate.read_output sim "done" = 1 then
          N.Simulate.read_output sim "digest"
        else wait (n - 1)
      end
    in
    wait 80
  in
  let d1 = digest_of 0x12345 in
  let d2 = digest_of 0x12346 in
  Alcotest.(check bool) "digest input-dependent" true (d1 <> d2);
  Alcotest.(check bool) "digest nontrivial" true (d1 <> 0);
  Alcotest.(check int) "deterministic" d1 (digest_of 0x12345)

let test_fir_accumulates () =
  let b = Option.get (B.find "FIR") in
  let c = N.Synth.synthesize (B.elaborate b) in
  let sim = N.Simulate.create c in
  N.Simulate.reset sim;
  N.Simulate.set_input sim "rst" 0;
  N.Simulate.step sim;
  N.Simulate.set_input sim "rst" 1;
  N.Simulate.set_input sim "en" 1;
  N.Simulate.set_input sim "sample" 1000;
  N.Simulate.set_input sim "gain" 3;
  N.Simulate.set_input sim "mode" 0;
  let out_after n =
    for _ = 1 to n do N.Simulate.step sim done;
    N.Simulate.eval sim;
    N.Simulate.read_output sim "dout"
  in
  let o1 = out_after 4 in
  let o2 = out_after 4 in
  Alcotest.(check bool) "accumulator advances" true (o2 <> o1);
  Alcotest.(check bool) "output nontrivial" true (o2 <> 0)

let test_usb_tx_serializes () =
  let b = Option.get (B.find "USB_PHY") in
  let c = N.Synth.synthesize (B.elaborate b) in
  let sim = N.Simulate.create c in
  N.Simulate.reset sim;
  N.Simulate.set_input sim "rst" 0;
  N.Simulate.step sim;
  N.Simulate.set_input sim "rst" 1;
  N.Simulate.set_input sim "fs_mode" 1;
  N.Simulate.set_input sim "bit_ce" 1;
  N.Simulate.set_input sim "tx_data" 0xA5;
  N.Simulate.set_input sim "tx_valid" 1;
  N.Simulate.step sim;  (* load *)
  N.Simulate.set_input sim "tx_valid" 0;
  (* collect 8 serialized bits, LSB first *)
  let got = ref 0 in
  for i = 0 to 7 do
    N.Simulate.eval sim;
    if N.Simulate.read_output sim "txd_p_o" = 1 then got := !got lor (1 lsl i);
    N.Simulate.step sim
  done;
  Alcotest.(check int) "byte on the wire" 0xA5 !got;
  N.Simulate.eval sim;
  Alcotest.(check int) "ready again" 1 (N.Simulate.read_output sim "tx_ready")

let test_iir_responds () =
  let b = Option.get (B.find "IIR") in
  let c = N.Synth.synthesize (B.elaborate b) in
  let sim = N.Simulate.create c in
  N.Simulate.reset sim;
  N.Simulate.set_input sim "rst" 0;
  N.Simulate.step sim;
  N.Simulate.set_input sim "rst" 1;
  N.Simulate.set_input sim "en" 1;
  N.Simulate.set_input sim "x_in" 0x1234;
  N.Simulate.set_input sim "cfg" 5;  (* coefficient bank 5, mode 0 *)
  for _ = 1 to 6 do N.Simulate.step sim done;
  N.Simulate.eval sim;
  Alcotest.(check bool) "filter output nontrivial" true
    (N.Simulate.read_output sim "y_out" <> 0)

(* programmed-view redaction must preserve behaviour on every benchmark
   that finds a solution: random-stimulus lockstep simulation *)
let test_redaction_preserves_all_benchmarks () =
  List.iter
    (fun (name, cfg_pick) ->
      let b = Option.get (B.find name) in
      let config = match cfg_pick with `C1 -> B.config1 b | `C2 -> B.config2 b in
      let flow = flow_ast ~config (B.parse b) in
      match A.Flow.redact ~view:A.Redact.Programmed flow with
      | None -> Alcotest.fail (name ^ ": expected a solution")
      | Some r ->
        let redone =
          N.Synth.synthesize
            (V.Elaborate.elaborate ~top:b.B.top
               (V.Parser.parse ~file:(name ^ "_red.v") r.A.Redact.verilog))
        in
        let original = N.Synth.synthesize (B.elaborate b) in
        let sa = N.Simulate.create original and sb = N.Simulate.create redone in
        let st = Random.State.make [| 97; String.length name |] in
        for _cycle = 1 to 60 do
          List.iter
            (fun (pname, nets) ->
              let bits =
                (* keep reset released after the first cycles *)
                if pname = "rst" then [| true |]
                else Array.init (Array.length nets) (fun _ -> Random.State.bool st)
              in
              N.Simulate.set_input_bits sa pname bits;
              N.Simulate.set_input_bits sb pname bits)
            original.N.Circuit.inputs;
          N.Simulate.step sa;
          N.Simulate.step sb;
          N.Simulate.eval sa;
          N.Simulate.eval sb;
          List.iter
            (fun (oname, _) ->
              Alcotest.(check int)
                (Printf.sprintf "%s output %s" name oname)
                (N.Simulate.read_output sa oname)
                (N.Simulate.read_output sb oname))
            original.N.Circuit.outputs
        done)
    [ ("FIR", `C1); ("SHA256", `C1); ("SASC", `C1); ("USB_PHY", `C1);
      ("GCD", `C2); ("IIR", `C2) ]

let test_configs_match_paper_params () =
  List.iter
    (fun (b : B.benchmark) ->
      let c1 = B.config1 b and c2 = B.config2 b in
      Alcotest.(check int) "cfg1 io" 64 c1.Alice_config.Flow_config.max_io_pins;
      Alcotest.(check int) "cfg1 efpgas" 2 c1.Alice_config.Flow_config.max_efpgas;
      Alcotest.(check int) "cfg2 io" 96 c2.Alice_config.Flow_config.max_io_pins;
      Alcotest.(check int) "cfg2 efpgas" 1 c2.Alice_config.Flow_config.max_efpgas;
      Alcotest.(check (float 1e-9)) "alpha 1" 1.0 c1.Alice_config.Flow_config.alpha;
      Alcotest.(check (float 1e-9)) "beta 1" 1.0 c1.Alice_config.Flow_config.beta)
    B.all

(* the headline Table 2 structural columns for the fast designs, plus
   the characterization accounting (unique cache keys, keys computed)
   of each cold flow; DES3 is exercised by the bench harness (it takes
   ~minutes) *)
let test_flow_columns () =
  let expect =
    (* name, cfg, R, C, valid, chosen sizes, redacted, unique, computed *)
    [ ("FIR", `C1, 1, Some 1, Some 1, [ "6x6" ], Some 1, 1, 1);
      ("FIR", `C2, 3, Some 3, Some 3, [ "6x6" ], Some 1, 3, 3);
      ("IIR", `C1, 0, None, None, [], None, 0, 0);
      ("IIR", `C2, 2, Some 2, Some 2, [ "9x9" ], Some 1, 2, 2);
      ("SHA256", `C1, 1, Some 1, Some 1, [ "12x12" ], Some 1, 1, 1);
      ("SHA256", `C2, 1, Some 1, Some 1, [ "12x12" ], Some 1, 1, 1);
      ("SASC", `C1, 1, Some 1, Some 1, [ "7x7" ], Some 1, 1, 1);
      ("SASC", `C2, 1, Some 1, Some 1, [ "7x7" ], Some 1, 1, 1);
      ("USB_PHY", `C1, 2, Some 3, Some 1, [ "7x7" ], Some 1, 3, 3);
      ("USB_PHY", `C2, 2, Some 3, Some 1, [ "7x7" ], Some 1, 3, 3);
      ("GCD", `C1, 9, Some 29, Some 22, [ "5x5"; "4x4" ], Some 4, 27, 27);
      ("GCD", `C2, 10, Some 90, Some 83, [ "6x6" ], Some 3, 84, 84) ]
  in
  List.iter
    (fun (name, cfg, r, c, valid, sizes, redacted, unique, computed) ->
      let b = Option.get (B.find name) in
      let config = match cfg with `C1 -> B.config1 b | `C2 -> B.config2 b in
      let flow = flow_ast ~config (B.parse b) in
      let row = A.Report.row_of_flow ~design_name:name flow in
      let stats = flow.A.Flow.char_stats in
      let tag fmt = Printf.sprintf "%s/%s %s" name (match cfg with `C1 -> "cfg1" | `C2 -> "cfg2") fmt in
      Alcotest.(check int) (tag "R") r row.A.Report.r_count;
      Alcotest.(check (option int)) (tag "C") c row.A.Report.c_count;
      Alcotest.(check (option int)) (tag "valid") valid row.A.Report.valid_efpgas;
      Alcotest.(check (list string)) (tag "sizes") sizes row.A.Report.efpga_sizes;
      Alcotest.(check (option int)) (tag "redacted") redacted row.A.Report.redacted_modules;
      Alcotest.(check int) (tag "unique") unique stats.A.Characterize.unique;
      Alcotest.(check int) (tag "computed") computed stats.A.Characterize.computed)
    expect

let test_soc_context () =
  (* the PicoSoC-flavoured wrapper synthesizes, runs, and the flow finds
     the same protected core inside it *)
  let ast = V.Parser.parse ~file:"soc.v" Alice_benchmarks.Soc.source in
  let d = V.Elaborate.elaborate ~top:"soc" ast in
  let c = N.Synth.synthesize d in
  let sim = N.Simulate.create c in
  N.Simulate.set_input sim "rst" 0;
  N.Simulate.step sim;
  N.Simulate.set_input sim "rst" 1;
  N.Simulate.set_input sim "op_a" 48;
  N.Simulate.set_input sim "op_b" 18;
  N.Simulate.set_input sim "sel" 0;
  N.Simulate.set_input sim "start" 1;
  N.Simulate.step sim;
  N.Simulate.set_input sim "start" 0;
  let rec wait n =
    if n = 0 then Alcotest.fail "soc gcd did not finish"
    else begin
      N.Simulate.step sim;
      N.Simulate.eval sim;
      if N.Simulate.read_output sim "done" = 1 then ()
      else wait (n - 1)
    end
  in
  wait 200;
  Alcotest.(check int) "gcd over the soc bus" 6 (N.Simulate.read_output sim "resp");
  (* the flow still finds GCD-internal candidates when protecting resp *)
  let cfg =
    { Alice_config.Flow_config.cfg1 with
      Alice_config.Flow_config.selected_outputs = [ "resp" ]; top = Some "soc";
      min_fabric_size = 4; max_fabric_size = 20; min_clb_utilization = 0.3 }
  in
  let flow = flow_ast ~config:cfg ast in
  Alcotest.(check bool) "candidates found in context" true
    (A.Filtering.candidate_count flow.A.Flow.filtering > 0);
  Alcotest.(check bool) "a solution exists" true
    (flow.A.Flow.selection.A.Selection.best <> None)

let tests =
  [ Alcotest.test_case "table 1 exact" `Quick test_table1;
    Alcotest.test_case "all designs synthesize" `Quick test_all_synthesize;
    Alcotest.test_case "gcd computes gcd" `Quick test_gcd_computes;
    Alcotest.test_case "sasc fifo flags" `Quick test_sasc_fifo_behaviour;
    Alcotest.test_case "des3 completes" `Quick test_des3_runs;
    Alcotest.test_case "sha256 runs" `Quick test_sha256_runs;
    Alcotest.test_case "fir accumulates" `Quick test_fir_accumulates;
    Alcotest.test_case "usb tx serializes" `Quick test_usb_tx_serializes;
    Alcotest.test_case "iir responds" `Quick test_iir_responds;
    Alcotest.test_case "redaction preserves all benchmarks" `Slow
      test_redaction_preserves_all_benchmarks;
    Alcotest.test_case "configs match paper" `Quick test_configs_match_paper_params;
    Alcotest.test_case "soc context" `Quick test_soc_context;
    Alcotest.test_case "table 2 columns (fast designs)" `Slow test_flow_columns ]
