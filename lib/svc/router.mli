(** Shard router: consistent key→shard placement across per-NUMA-zone
    structure instances, zone-aware network-hop costs, and cross-shard
    range-query planning and merging.

    Placement hashes the key (splitmix64 finalizer) before the modulo so
    dense YCSB keyspaces spread evenly instead of striping; the mapping is a
    pure function of (key, shard count), so every client and worker agrees
    on it without coordination. *)

type t

val create : shards:int -> zones:int -> t
(** [create ~shards ~zones]: raises [Invalid_argument] unless both are
    positive. Shard [s] lives in zone [s mod zones]. *)

val shards : t -> int
val zones : t -> int

val shard_of_key : t -> int -> int
(** The shard owning a key; stable across calls and processes. *)

val zone_of_shard : t -> int -> int

val zone_of_client : t -> int -> int
(** Simulated connections are pinned round-robin to zones, like threads. *)

val hop_ns : t -> local_ns:float -> remote_ns:float -> from_zone:int ->
  to_zone:int -> float
(** One-way network/interconnect hop cost between two zones. *)

val shards_of_range : t -> lo:int -> hi:int -> int list
(** Shards a range query [lo..hi] must visit, ascending. Hash placement
    scatters any wide range over every shard, but short scans (the YCSB E
    case, bounded length) are planned exactly by enumerating the keys, so a
    scan narrower than the shard count fans out only where it must. *)

val merge_ranges : (int * int) list list -> (int * int) list
(** K-way merge of per-shard range results (each ascending in key) into one
    ascending list — the reduce half of scan fan-out. Keys are disjoint
    across shards, so no dedup is needed. *)
