(* Statistics, process and file helpers shared by the workloads. *)

let now = Alice_diag.Timebase.now_s

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest-rank quantile of a non-empty sample. *)
let quantile q (xs : float list) =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (q *. float n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let median xs = quantile 0.5 xs

(* The highest of p99/p95/p90/p75 that leaves at least ten samples
   above it; p75 when even that does not (a workload whose job list is
   shorter than forty samples per run). *)
let tail_quantile (xs : float list) =
  let n = float (List.length xs) in
  let q =
    match List.find_opt (fun q -> (1.0 -. q) *. n >= 10.0) [ 0.99; 0.95; 0.90 ] with
    | Some q -> q
    | None -> 0.75
  in
  (q, quantile q xs)

let md5 s = Digest.to_hex (Digest.string s)

let proc pid file =
  if pid = 0 then "/proc/self/" ^ file else Printf.sprintf "/proc/%d/%s" pid file

(* VmHWM of a process ([0]: this one) in MiB: its peak resident set
   since it started or since [reset_peak_rss]. *)
let peak_rss_mb pid =
  let path = proc pid "status" in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

let reset_peak_rss pid =
  Out_channel.with_open_text (proc pid "clear_refs") (fun oc ->
      output_string oc "5")

(* Seeded Fisher-Yates shuffle: the same seed gives the same order. *)
let shuffle rng (xs : 'a list) =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Everything a run writes lives here, inside the checkout. *)
let out_dir = Filename.concat "perfbench" "_out"

let find_sub (s : string) (sub : string) : int option =
  let n = String.length s and m = String.length sub in
  let rec matches i k = k = m || (s.[i + k] = sub.[k] && matches i (k + 1)) in
  let rec go i = if i + m > n then None else if matches i 0 then Some i else go (i + 1) in
  go 0

let contains s sub = Option.is_some (find_sub s sub)

