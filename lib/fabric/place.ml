(** Packing and placement of a LUT-mapped circuit onto a fabric grid.

    Packing pairs each DFF with the LUT driving its D input (the usual
    logic-element pairing) and then clusters logic elements into CLBs
    greedily by connectivity. Placement drops clusters onto the grid in
    a space-filling order and improves the half-perimeter wirelength with
    a pass of pairwise-swap hill climbing. *)

module Circuit = Alice_netlist.Circuit
type logic_element = {
  le_lut : Circuit.net option;   (* output net of the LUT, if any *)
  le_ff : Circuit.net option;    (* Q net of the paired DFF, if any *)
  le_inputs : Circuit.net list;  (* nets read by this element *)
}

type clb = { les : logic_element list }

type placement = {
  fabric : Fabric.t;
  clbs : (clb * (int * int)) list;      (* cluster, grid position *)
  io_sites : (Circuit.net * (int * int)) list;  (* port bit -> pad position *)
  wirelength : float;                   (* total HPWL in tile units *)
}

(** Structured payload for fit failures: which fabric width was
    attempted, which resource ran out, and by how much — so that
    diagnostics can say *which* size failed and at what utilization,
    not just that sizing failed. *)
type fit_failure = {
  fit_width : int;                          (* attempted fabric width *)
  fit_resource : [ `Clb | `Io | `Utilization ];
  fit_needed : int;
  fit_available : int;
  fit_utilization : float;                  (* needed / available *)
}

let fit_failure ~width ~resource ~needed ~available =
  { fit_width = width; fit_resource = resource; fit_needed = needed;
    fit_available = available;
    fit_utilization =
      (if available <= 0 then Float.infinity
       else float_of_int needed /. float_of_int available) }

let resource_to_string = function
  | `Clb -> "CLBs"
  | `Io -> "I/O bits"
  | `Utilization -> "CLB utilization"

let fit_failure_to_string (fe : fit_failure) : string =
  Printf.sprintf "%dx%d fabric: %d %s needed, %d available (%.0f%% demand)"
    fe.fit_width fe.fit_width fe.fit_needed
    (resource_to_string fe.fit_resource)
    fe.fit_available (100.0 *. fe.fit_utilization)

exception Does_not_fit of fit_failure

(* ---------- packing ---------- *)

let build_elements (c : Circuit.t) : logic_element list =
  let luts =
    List.filter_map
      (fun (g : Circuit.gate) ->
        match g.kind with
        | Circuit.Lut _ -> Some (g.output, Array.to_list g.inputs)
        | Circuit.Const _ | Circuit.Buf | Circuit.Not | Circuit.And
        | Circuit.Or | Circuit.Xor | Circuit.Xnor | Circuit.Nand
        | Circuit.Nor | Circuit.Mux -> None)
      (Circuit.gates_in_order c)
  in
  let dffs = Circuit.dff_list c in
  (* pair DFFs with the LUT driving D *)
  let lut_by_output = Hashtbl.create 64 in
  List.iter (fun (out, ins) -> Hashtbl.replace lut_by_output out ins) luts;
  let paired = Hashtbl.create 64 in
  let ff_elements =
    List.filter_map
      (fun (d : Circuit.dff) ->
        match Hashtbl.find_opt lut_by_output d.d with
        | Some ins when not (Hashtbl.mem paired d.d) ->
          Hashtbl.replace paired d.d ();
          Some { le_lut = Some d.d; le_ff = Some d.q; le_inputs = ins }
        | Some _ | None ->
          Some { le_lut = None; le_ff = Some d.q; le_inputs = [ d.d ] })
      dffs
  in
  let lut_elements =
    List.filter_map
      (fun (out, ins) ->
        if Hashtbl.mem paired out then None
        else Some { le_lut = Some out; le_ff = None; le_inputs = ins })
      luts
  in
  ff_elements @ lut_elements

let element_nets (le : logic_element) : Circuit.net list =
  let outs =
    List.filter_map Fun.id [ le.le_lut; le.le_ff ]
  in
  outs @ le.le_inputs

(** Greedy connectivity-driven packing into CLBs of [luts_per_clb]
    elements. *)
let pack (arch : Arch.t) (c : Circuit.t) : clb list =
  let elements = Array.of_list (build_elements c) in
  let n = Array.length elements in
  let used = Array.make n false in
  let capacity = arch.Arch.luts_per_clb in
  let nets_of = Array.map element_nets elements in
  let shares_with cluster_nets i =
    List.fold_left
      (fun acc net -> if List.mem net cluster_nets then acc + 1 else acc)
      0 nets_of.(i)
  in
  let clusters = ref [] in
  let rec next_seed i = if i >= n then None else if used.(i) then next_seed (i + 1) else Some i in
  let rec build () =
    match next_seed 0 with
    | None -> ()
    | Some seed ->
      used.(seed) <- true;
      let members = ref [ seed ] in
      let cluster_nets = ref nets_of.(seed) in
      while List.length !members < capacity &&
            (let best = ref (-1) and best_score = ref (-1) in
             for i = 0 to n - 1 do
               if not used.(i) then begin
                 let s = shares_with !cluster_nets i in
                 if s > !best_score then begin
                   best_score := s;
                   best := i
                 end
               end
             done;
             if !best >= 0 then begin
               used.(!best) <- true;
               members := !best :: !members;
               cluster_nets := nets_of.(!best) @ !cluster_nets;
               true
             end
             else false)
      do () done;
      clusters := { les = List.map (fun i -> elements.(i)) !members } :: !clusters;
      build ()
  in
  build ();
  List.rev !clusters

(* ---------- placement ---------- *)

(* grid positions in a diagonal space-filling order from the corner *)
let grid_order w =
  let cells = ref [] in
  for s = 0 to 2 * (w - 1) do
    for x = 0 to w - 1 do
      let y = s - x in
      if y >= 0 && y < w then cells := (x, y) :: !cells
    done
  done;
  List.rev !cells

let hpwl (points : (int * int) list) : float =
  match points with
  | [] -> 0.0
  | (x0, y0) :: rest ->
    let minx, maxx, miny, maxy =
      List.fold_left
        (fun (mnx, mxx, mny, mxy) (x, y) ->
          (min mnx x, max mxx x, min mny y, max mxy y))
        (x0, x0, y0, y0) rest
    in
    float_of_int (maxx - minx + maxy - miny)

(* nets -> the grid positions of CLBs touching them *)
let net_positions (clbs : (clb * (int * int)) array)
    (io_sites : (Circuit.net * (int * int)) list) :
    (Circuit.net, (int * int) list) Hashtbl.t =
  let t = Hashtbl.create 256 in
  let touch net pos =
    let old = Option.value (Hashtbl.find_opt t net) ~default:[] in
    Hashtbl.replace t net (pos :: old)
  in
  Array.iter
    (fun (cluster, pos) ->
      List.iter
        (fun le -> List.iter (fun net -> touch net pos) (element_nets le))
        cluster.les)
    clbs;
  List.iter (fun (net, pos) -> touch net pos) io_sites;
  t

let total_wirelength clbs io_sites : float =
  let nets = net_positions clbs io_sites in
  Hashtbl.fold (fun _net positions acc -> acc +. hpwl positions) nets 0.0

(** The capacity checks a width must pass before anything is placed:
    [clbs] packed CLBs against the grid's sites, then [io_bits] port bits
    against the pad ring. *)
let check_fit (fabric : Fabric.t) ~(clbs : int) ~(io_bits : int) :
    fit_failure option =
  let width = fabric.Fabric.width in
  if clbs > Fabric.clb_count fabric then
    Some (fit_failure ~width ~resource:`Clb ~needed:clbs
            ~available:(Fabric.clb_count fabric))
  else if io_bits > Fabric.io_capacity fabric then
    Some (fit_failure ~width ~resource:`Io ~needed:io_bits
            ~available:(Fabric.io_capacity fabric))
  else None

(** Place already-packed CLBs onto the fabric. Raises {!Does_not_fit}
    when {!check_fit} rejects the width. *)
let place_packed (fabric : Fabric.t) (c : Circuit.t) (clusters : clb list) :
    placement =
  let w = fabric.Fabric.width in
  (* I/O bits on the top (y = w) and bottom (y = -1) pad rows *)
  let io_bits =
    List.concat_map (fun (_, nets) -> Array.to_list nets) c.Circuit.inputs
    @ List.concat_map (fun (_, nets) -> Array.to_list nets) c.Circuit.outputs
  in
  Option.iter
    (fun fe -> raise (Does_not_fit fe))
    (check_fit fabric ~clbs:(List.length clusters)
       ~io_bits:(List.length io_bits));
  let gpio = fabric.Fabric.arch.Arch.gpio_per_tile in
  let io_sites =
    List.mapi
      (fun i net ->
        let tile = i / gpio in
        let pos =
          if tile < w then (tile, -1)  (* bottom row *)
          else (tile - w, w)           (* top row *)
        in
        (net, pos))
      io_bits
  in
  let order = grid_order w in
  let clbs =
    Array.of_list
      (List.mapi
         (fun i cluster -> (cluster, List.nth order i))
         clusters)
  in
  (* pairwise-swap hill climbing with incremental cost: a swap only
     affects nets touching the two swapped CLBs *)
  let n = Array.length clbs in
  let clb_nets =
    Array.map
      (fun (cluster, _) ->
        List.sort_uniq compare
          (List.concat_map element_nets cluster.les))
      clbs
  in
  let positions_of_net =
    (* net -> (positions list derived on demand) *)
    let owner : (Circuit.net, int list) Hashtbl.t = Hashtbl.create 256 in
    Array.iteri
      (fun i nets ->
        List.iter
          (fun net ->
            let old = Option.value (Hashtbl.find_opt owner net) ~default:[] in
            Hashtbl.replace owner net (i :: old))
          nets)
      clb_nets;
    let io_of : (Circuit.net, (int * int) list) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (net, pos) ->
        let old = Option.value (Hashtbl.find_opt io_of net) ~default:[] in
        Hashtbl.replace io_of net (pos :: old))
      io_sites;
    fun net ->
      let clb_pos =
        List.map (fun i -> snd clbs.(i))
          (Option.value (Hashtbl.find_opt owner net) ~default:[])
      in
      clb_pos @ Option.value (Hashtbl.find_opt io_of net) ~default:[]
  in
  let net_cost nets =
    List.fold_left (fun acc net -> acc +. hpwl (positions_of_net net)) 0.0 nets
  in
  let cost = ref (total_wirelength clbs io_sites) in
  let improved = ref (n > 1) in
  let rounds = ref 0 in
  let max_rounds = if n <= 40 then 3 else 1 in
  while !improved && !rounds < max_rounds do
    improved := false;
    incr rounds;
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let touched =
          List.sort_uniq compare (clb_nets.(i) @ clb_nets.(j))
        in
        let before = net_cost touched in
        let ci, pi = clbs.(i) and cj, pj = clbs.(j) in
        clbs.(i) <- (ci, pj);
        clbs.(j) <- (cj, pi);
        let after = net_cost touched in
        if after < before then begin
          cost := !cost -. before +. after;
          improved := true
        end
        else begin
          clbs.(i) <- (ci, pi);
          clbs.(j) <- (cj, pj)
        end
      done
    done
  done;
  { fabric; clbs = Array.to_list clbs; io_sites; wirelength = !cost }

(** Place a circuit onto the fabric: {!pack} then {!place_packed}. *)
let place (fabric : Fabric.t) (c : Circuit.t) : placement =
  place_packed fabric c (pack fabric.Fabric.arch c)

let clbs_used (p : placement) = List.length p.clbs

let io_bits_used (p : placement) = List.length p.io_sites
