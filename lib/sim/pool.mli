(** Bounded domain pool for independent simulation jobs.

    Fans self-contained deterministic jobs (each owning its Pmem instance,
    structure, and RNGs) out across OCaml domains and collects results in
    job order, so report output produced after collection is byte-identical
    to a sequential run. [jobs:1] executes the jobs inline with no domain
    machinery at all — today's exact sequential code path.

    Additional guarantees (see the implementation header for details):
    observability counters merge back into the calling domain in job order
    ([Obs.totals] matches a sequential run exactly); a caller recording a
    trace gets every job's events merged into its ring in job order, with
    drop-oldest overflow accounting identical to a sequential run
    ([Obs.Trace.capture]/[absorb]); the first failing job's exception
    re-raises in the caller; nested [run]s execute sequentially instead of
    multiplying domains. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the [-j] default in the bench
    and CLI drivers. *)

val run : ?jobs:int -> (unit -> 'a) list -> 'a list
(** [run ~jobs thunks] executes every thunk (at most [jobs] concurrently,
    default {!default_jobs}) and returns their results in list order.
    Jobs must be independent: no shared mutable state beyond the
    domain-local scheduler/observability state each run owns. Raises the
    first (by index) job exception, if any, with its backtrace. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [run ~jobs (List.map (fun x () -> f x) xs)]. *)
