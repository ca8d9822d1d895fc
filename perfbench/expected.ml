(* Expected outputs, recorded once with [--record] and committed next to
   the benchmark as [expected.txt]: one "key<TAB>value" line per job or
   request type. *)

let path = Filename.concat "perfbench" "expected.txt"

let load () : (string, string) Hashtbl.t =
  let table = Hashtbl.create 64 in
  In_channel.with_open_text path (fun ic ->
      In_channel.input_lines ic
      |> List.iter (fun line ->
             match String.index_opt line '\t' with
             | Some i ->
               Hashtbl.replace table (String.sub line 0 i)
                 (String.sub line (i + 1) (String.length line - i - 1))
             | None -> ()));
  table

(* [None] when [got] matches, otherwise why it does not. *)
let check table ~key ~got =
  match Hashtbl.find_opt table key with
  | Some want when want = got -> None
  | Some want -> Some (Printf.sprintf "%s: got %s, expected %s" key got want)
  | None -> Some (Printf.sprintf "%s: no expected output recorded" key)
