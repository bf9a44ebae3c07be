(** The service engine: one deterministic simulated run of a sharded KV
    service over {!Kv} backends.

    Topology: [shards] independent structure instances, each with its own
    {!Pmem.t} pools and a dedicated worker fiber pinned to zone
    [s mod zones]; [clients] open-loop connection fibers generating YCSB
    traffic with seeded inter-arrival gaps and zone-aware network hops; one
    monitor fiber sampling queue depths. All fibers share one scheduler run
    through a composite machine that dispatches PMEM operations to the
    owning shard's machine by thread id (workers are tids [0..shards-1];
    clients and the monitor never touch PMEM — they only charge time).

    Per-shard workers batch up to [batch] queued requests, pay one
    batch-overhead charge, and group-commit: upserts in a batch are
    acknowledged only after a single trailing fence (one flush epoch per
    batch). Admission control is a bounded queue per shard with either shed
    (reject and count) or delay (client backoff) policy.

    If the config carries a crash plan, that shard's worker — at the first
    batch boundary at or after the crash time — crashes its PMEM pools
    (dropping unflushed lines), loses its queued backlog, reconnects, pays
    the pool-reopen cost and runs structure recovery in-line, then resumes
    serving. Other shards keep serving throughout; the report records each
    shard's completions inside the outage window.

    With [cfg.spans] on, every completed read/upsert additionally records
    a {!Obs.Span.t}: a hop/queue/batch/exec/commit decomposition of its
    latency (summing to the SLO-recorded value exactly at ns resolution),
    its group-commit fence wait, the overlap of its queue wait with the
    shard's recovery outage, and the PMEM counter deltas of its own
    structure operation — plus the windowed SLO time-series
    ({!Slo.window}). Span recording is host-side only: the simulated run,
    and therefore every non-span report field, is byte-identical with
    spans on or off. *)

val shard_sys : Config.t -> int -> Harness.Kv.sys
(** Shard [s]'s Kv system template: the config's [sys] reseeded with
    [seed + 1000*s] and sized for at least [shards] threads. *)

val preload_shard : Router.t -> Config.t -> Harness.Kv.t -> int -> unit
(** Preload shard [s]'s slice of keys [1..n_initial] in its own scheduler
    run on its own machine, then reset its Pmem counters (Pmem's new-run
    detection handles the clock reset when the service run follows). *)

val run : Config.t -> Slo.t
(** One full run: per-shard preload of keys [1..n_initial] (hash-routed),
    then traffic until every client stream ends and every queue drains.
    Deterministic in the config (including its seed): equal configs yield
    byte-identical {!Slo.to_json} output.
    @raise Invalid_argument when {!Config.validate} rejects the config. *)
