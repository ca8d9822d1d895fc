type ('k, 'v) t = {
  mu : Mutex.t;
  tbl : ('k, 'v) Hashtbl.t;
  load : ('k -> 'v option) option;
  save : ('k -> 'v -> unit) option;
}

let create ?(size = 64) ?load ?save () =
  { mu = Mutex.create (); tbl = Hashtbl.create size; load; save }

let find_opt (t : ('k, 'v) t) (k : 'k) : 'v option =
  match Mutex.protect t.mu (fun () -> Hashtbl.find_opt t.tbl k) with
  | Some v -> Some v
  | None -> (
    match t.load with
    | None -> None
    | Some load -> (
      (* backing-store read outside the lock: a slow load never blocks
         other keys *)
      match load k with
      | None -> None
      | Some v ->
        (* an entry that appeared meanwhile wins, so every caller
           observes one binding *)
        Some
          (Mutex.protect t.mu (fun () ->
               match Hashtbl.find_opt t.tbl k with
               | Some winner -> winner
               | None ->
                 Hashtbl.replace t.tbl k v;
                 v))))

let set (t : ('k, 'v) t) (k : 'k) (v : 'v) : unit =
  Mutex.protect t.mu (fun () -> Hashtbl.replace t.tbl k v);
  match t.save with Some save -> save k v | None -> ()

type loss = Raised of exn | Skipped

type 'v resolved = {
  values : 'v list;
  uniques : 'v list;
  hits : int;
  computed : int;
  skipped : int;
}

let resolve ?should_stop ~jobs ~compute ~lost ?(keep = fun _ -> true)
    (t : ('k, 'v) t) (items : ('k * 'a) list) : 'v resolved =
  let seen = Hashtbl.create 64 in
  let uniques =
    List.filter
      (fun (k, _) ->
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      items
  in
  (* this batch's key -> value table, for the fan-out; distinct from
     [t], which only ever receives kept values *)
  let resolved = Hashtbl.create 64 in
  let misses =
    List.filter
      (fun (k, _) ->
        match find_opt t k with
        | Some v ->
          Hashtbl.replace resolved k v;
          false
        | None -> true)
      uniques
  in
  let hits = Hashtbl.length resolved in
  let outcomes =
    Pool.map_ordered ?should_stop ~jobs (fun (_, x) -> compute x) misses
  in
  let computed = ref 0 and skipped = ref 0 in
  List.iter2
    (fun (k, x) outcome ->
      let v =
        match outcome with
        | Pool.Value v ->
          incr computed;
          if keep v then set t k v;
          v
        | Pool.Raised Out_of_memory -> raise Out_of_memory
        | Pool.Raised e ->
          incr computed;
          lost x (Raised e)
        | Pool.Skipped ->
          incr skipped;
          lost x Skipped
      in
      Hashtbl.replace resolved k v)
    misses outcomes;
  let value (k, _) = Hashtbl.find resolved k in
  { values = List.map value items; uniques = List.map value uniques; hits;
    computed = !computed; skipped = !skipped }
