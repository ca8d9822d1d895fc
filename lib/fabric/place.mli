(** Packing and placement of a LUT-mapped circuit onto a fabric grid:
    DFFs pair with the LUT driving their D input, logic elements cluster
    into CLBs greedily by connectivity, and placement refines a
    space-filling initial order with pairwise-swap hill climbing on
    half-perimeter wirelength. *)

module Circuit = Alice_netlist.Circuit

type logic_element = {
  le_lut : Circuit.net option;   (** output net of the LUT, if any *)
  le_ff : Circuit.net option;    (** Q net of the paired DFF, if any *)
  le_inputs : Circuit.net list;
}

type clb = { les : logic_element list }

type placement = {
  fabric : Fabric.t;
  clbs : (clb * (int * int)) list;  (** cluster, grid position *)
  io_sites : (Circuit.net * (int * int)) list;  (** port bit -> pad *)
  wirelength : float;  (** total HPWL in tile units *)
}

(** Structured fit-failure payload: the attempted fabric width, the
    resource that ran out, and the demand/capacity numbers — enough for
    diagnostics to report utilization rather than just "does not fit". *)
type fit_failure = {
  fit_width : int;                          (** attempted fabric width *)
  fit_resource : [ `Clb | `Io | `Utilization ];
  fit_needed : int;
  fit_available : int;
  fit_utilization : float;                  (** needed / available *)
}

val fit_failure :
  width:int ->
  resource:[ `Clb | `Io | `Utilization ] ->
  needed:int ->
  available:int ->
  fit_failure

val fit_failure_to_string : fit_failure -> string

exception Does_not_fit of fit_failure

(** All nets touching a logic element (outputs then inputs). *)
val element_nets : logic_element -> Circuit.net list

(** Greedy connectivity-driven packing into CLBs. *)
val pack : Arch.t -> Circuit.t -> clb list

(** The checks a width must pass before anything is placed: [clbs]
    packed CLBs against the grid's sites, then [io_bits] port bits
    against the pad ring. [None] when both fit; otherwise the first
    failure, exactly the payload {!place_packed} would raise. *)
val check_fit : Fabric.t -> clbs:int -> io_bits:int -> fit_failure option

(** Place CLBs already produced by {!pack} for this circuit onto the
    fabric; raises {!Does_not_fit} when {!check_fit} rejects the width.
    Packing does not depend on the width, so a size search packs once
    and places the same CLBs at each width it tries. *)
val place_packed : Fabric.t -> Circuit.t -> clb list -> placement

(** [place fabric c] is [place_packed fabric c (pack fabric.arch c)]. *)
val place : Fabric.t -> Circuit.t -> placement

val clbs_used : placement -> int

val io_bits_used : placement -> int
