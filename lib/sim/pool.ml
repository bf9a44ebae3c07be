(* Bounded domain pool for independent simulation jobs.

   The evaluation is a grid of self-contained runs — trials, thread-count
   points, crash-grid cells, shard sweeps — each fully deterministic given
   its own seeds and owning all of its mutable state (Pmem instance, memory
   manager, structure, RNGs). [run] fans such jobs out across
   [Domain.spawn] workers and collects the results *in job order*, so a
   caller that does all of its printing after collection produces output
   byte-identical to a sequential run ([jobs:1] executes the plain
   [List.map] the code always had).

   Work distribution is a shared atomic cursor over the job array: workers
   claim the next unclaimed index, so long jobs never serialize behind
   short ones and the schedule needs no sizing hints. Nothing about the
   claim order can leak into results — jobs are independent by contract.

   Determinism guarantees, in addition to ordered collection:
   - Observability counters (Obs) are domain-local; the pool snapshots a
     worker's rows around every job and merges the per-job deltas into the
     calling domain in job index order, so [Obs.totals] after a parallel
     run equals the sequential value exactly.
   - When the calling domain is recording a trace ([Obs.Trace.enabled]),
     each worker records into its own same-capacity ring, the per-job
     event segment is captured when the job finishes, and the caller
     absorbs the segments in job index order. Because jobs emit no events
     between jobs (the caller is blocked during the run) the caller's ring
     ends up byte-identical to a sequential run, including drop-oldest
     overflow accounting ([Obs.Trace.capture] / [Obs.Trace.absorb]).
   - A job that raises re-raises in the caller at collection time: deltas
     of later jobs are discarded and the first (by job index) exception
     propagates with its backtrace, mirroring where a sequential run would
     have stopped.

   Nested pools run sequentially: a job that itself calls [run] executes
   its sub-jobs inline (a per-domain flag marks worker context), so fanning
   out at two levels cannot multiply domains. *)

type 'a outcome = Done of 'a | Raised of exn * Printexc.raw_backtrace

(* Marks worker domains so a nested [run] degrades to the sequential path. *)
let in_worker_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let default_jobs () = Domain.recommended_domain_count ()

let run_seq thunks = List.map (fun f -> f ()) thunks

let run ?jobs thunks =
  let n = List.length thunks in
  let jobs =
    match jobs with Some j -> max 1 (min j n) | None -> min (default_jobs ()) n
  in
  if jobs <= 1 || n <= 1 || Domain.DLS.get in_worker_key then run_seq thunks
  else begin
    let thunks = Array.of_list thunks in
    (* caller tracing? workers then record into same-capacity rings and the
       per-job event segments are merged back in job order *)
    let trace_cap = if Obs.Trace.enabled () then Obs.Trace.capacity () else 0 in
    (* slot per job: (outcome, obs rows before/after, trace segment) *)
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      Domain.DLS.set in_worker_key true;
      if trace_cap > 0 then Obs.Trace.start ~capacity:trace_cap ();
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else begin
          let before = Obs.snapshot () in
          let t0 = if trace_cap > 0 then Obs.Trace.total_emitted () else 0 in
          let outcome =
            try Done (thunks.(i) ())
            with e -> Raised (e, Printexc.get_raw_backtrace ())
          in
          let after = Obs.snapshot () in
          (* capture eagerly: a later job on this worker may overwrite
             this job's events in the shared per-domain ring *)
          let seg =
            if trace_cap > 0 then Some (Obs.Trace.capture ~since:t0) else None
          in
          results.(i) <- Some (outcome, before, after, seg)
        end
      done
    in
    let domains = Array.init jobs (fun _ -> Domain.spawn worker) in
    Array.iter Domain.join domains;
    (* Collect in job order. Obs deltas merge up to and including the first
       failing job (a sequential run would have accumulated exactly those
       bumps before the exception escaped); later jobs are discarded. *)
    let collected =
      Array.map
        (function
          | Some cell -> cell
          | None ->
              (* every index below [next]'s final value was claimed and
                 completed before its worker joined *)
              assert false)
        results
    in
    let out = ref [] in
    (try
       Array.iter
         (fun (outcome, before, after, seg) ->
           Obs.add_delta ~before ~after;
           (match seg with Some s -> Obs.Trace.absorb s | None -> ());
           match outcome with
           | Done v -> out := v :: !out
           | Raised (e, bt) -> Printexc.raise_with_backtrace e bt)
         collected
     with e ->
       (* re-raised job exception: nothing partial to clean up; caller sees
          exactly what the sequential run would have seen *)
       raise e);
    List.rev !out
  end

let map ?jobs f xs = run ?jobs (List.map (fun x () -> f x) xs)
