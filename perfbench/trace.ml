(* Span and counter recorder for the traced run. Spans are opened only
   by the benchmark's own code, around calls into one layer's public
   function, so every per-layer number is measured from outside the
   library. Everything stays in memory until [write_chrome] at exit. *)

module Timebase = Alice_diag.Timebase

type span = {
  id : int;
  name : string;
  job : string;  (* the job (design/config or request type) the span served *)
  pass : int;  (* traced pass the span belongs to *)
  parent : int;  (* id of the enclosing span; -1 at top level *)
  t0 : float;
  t1 : float;
}

let spans : span list ref = ref []
let open_spans : int list ref = ref []
let next_id = ref 0
let current_job = ref ""
let current_pass = ref 0
let origin = Timebase.now_s ()

(* per pass: counter name -> accumulated value *)
let counters : (int * string, float) Hashtbl.t = Hashtbl.create 64

(* Off, [span] is a plain call: the same code runs with and without
   spans, which is how the serve replay measures tracing overhead. *)
let enabled = ref true

let set_job job = current_job := job
let set_pass p = current_pass := p

let span name f = if not !enabled then f () else
  let id = !next_id in
  incr next_id;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  open_spans := id :: !open_spans;
  let t0 = Timebase.now_s () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Timebase.now_s () in
      open_spans := List.tl !open_spans;
      spans :=
        { id; name; job = !current_job; pass = !current_pass; parent; t0; t1 }
        :: !spans)
    f

let count name v =
  let key = (!current_pass, name) in
  let prev = Option.value (Hashtbl.find_opt counters key) ~default:0.0 in
  Hashtbl.replace counters key (prev +. v)

let counter ~pass name =
  Option.value (Hashtbl.find_opt counters (pass, name)) ~default:0.0

(* Seconds of [name] spans in [pass], summed over jobs. *)
let total ~pass name =
  List.fold_left
    (fun acc s ->
      if s.pass = pass && s.name = name then acc +. (s.t1 -. s.t0) else acc)
    0.0 !spans

(* A span's self time is its duration minus the time its direct
   children cover; children never overlap because every traced call is
   made serially from one thread. *)
let self_times () : (string * float) list =
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev =
          Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.0
        in
        Hashtbl.replace child_time s.parent (prev +. (s.t1 -. s.t0)))
    !spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self =
        s.t1 -. s.t0
        -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.0
      in
      let prev = Option.value (Hashtbl.find_opt by_name s.name) ~default:0.0 in
      Hashtbl.replace by_name s.name (prev +. self))
    !spans;
  List.sort
    (fun (_, a) (_, b) -> compare b a)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

(* Chrome trace-event JSON ("X" complete events, microseconds), which
   Perfetto and chrome://tracing open offline. *)
let write_chrome path =
  let module J = Alice_config.Json_lite in
  let us t = J.Float (1e6 *. (t -. origin)) in
  let event s =
    J.Obj
      [ ("name", J.String s.name);
        ("cat", J.String "layer");
        ("ph", J.String "X");
        ("ts", us s.t0);
        ("dur", J.Float (1e6 *. (s.t1 -. s.t0)));
        ("pid", J.Int 1);
        ("tid", J.Int (s.pass + 1));
        ( "args",
          J.Obj
            [ ("job", J.String s.job);
              ("id", J.Int s.id);
              ("parent", J.Int s.parent) ] ) ]
  in
  let doc =
    J.Obj [ ("traceEvents", J.List (List.rev_map event !spans)) ]
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (J.to_string doc);
      Out_channel.output_char oc '\n')
