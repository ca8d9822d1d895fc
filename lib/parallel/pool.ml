(** Bounded Domain-based work pool; see pool.mli for the contract.

    Scheduling is a single atomic task counter: workers race to claim
    the next index, compute outside any lock, and write into a
    per-index slot of a shared results array (disjoint cells, so no
    further synchronization is needed; [Domain.join] publishes the
    writes to the caller). The calling domain runs the same worker loop,
    so a batch spawns one domain fewer than it has workers. Input order
    is preserved by construction — slot [i] always holds task [i]'s
    outcome — which is what lets the flow keep its serial output
    byte-identical under parallelism. *)

module Fi = Alice_fault.Fault

type 'a outcome =
  | Value of 'a
  | Raised of exn
  | Skipped

let run_task ~(faults : Fi.t) (f : 'a -> 'b) (x : 'a) : 'b outcome =
  match
    Fi.hit faults "pool.task";
    f x
  with
  | v -> Value v
  | exception e -> Raised e

(* The injected "this worker dies between tasks" fault: the claimed
   slot is charged before the exception escapes [loop], so the task is
   accounted Raised, not silently Skipped. *)
let check_worker_alive ~(faults : Fi.t) (results : 'b outcome array)
    (i : int) : unit =
  match Fi.check faults "pool.worker" with
  | None | Some (Fi.Delay _) -> ()
  | Some action ->
    let e = Fi.Injected { site = "pool.worker"; action } in
    results.(i) <- Raised e;
    raise e

let map_ordered ?(should_stop = fun () -> false) ?faults ~(jobs : int)
    (f : 'a -> 'b) (xs : 'a list) : 'b outcome list =
  let faults = match faults with Some fp -> fp | None -> Fi.global () in
  let tasks = Array.of_list xs in
  let n = Array.length tasks in
  if n = 0 then []
  else begin
    let results = Array.make n Skipped in
    let next = Atomic.make 0 in
    let stopped = Atomic.make false in
    let worker () =
      let rec loop () =
        if not (Atomic.get stopped) then begin
          let i = Atomic.fetch_and_add next 1 in
          if i < n then
            if should_stop () then Atomic.set stopped true
              (* index [i] stays Skipped: it was claimed but never
                 dispatched; siblings already past the check finish *)
            else begin
              check_worker_alive ~faults results i;
              results.(i) <- run_task ~faults f tasks.(i);
              loop ()
            end
        end
      in
      (* supervision: anything escaping the claim/dispatch loop — an
         injected worker death, a raising [should_stop] — costs at most
         the one claimed slot (already marked Raised), never the pool:
         the worker re-enters its loop and keeps draining tasks, and
         [Domain.join] below can no longer re-raise into the caller. *)
      let rec supervise () =
        match loop () with () -> () | exception _ -> supervise ()
      in
      supervise ()
    in
    (* the caller is one of the workers: it drains tasks alongside the
       [min jobs n - 1] spawned domains instead of idling in join, and
       with [jobs <= 1] it is the only one *)
    let helpers =
      Array.init (min (max 1 jobs) n - 1) (fun _ -> Domain.spawn worker)
    in
    worker ();
    Array.iter Domain.join helpers;
    Array.to_list results
  end
