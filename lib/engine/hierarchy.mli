(** Cache hierarchy of the simulated multicore: private L1 per thread, L2 per
    pair of threads, one shared L3, directory-based write-invalidate
    coherence.  Returns a cycle cost per access. *)

type config = {
  l1_sets : int;
  l1_ways : int;
  l2_sets : int;
  l2_ways : int;
  l3_sets : int;
  l3_ways : int;
  threads_per_l2 : int;
}

val opteron_6274_config : config
(** Geometry of the paper's testbed (16 KiB L1, 2 MiB L2/pair, 12 MiB L3). *)

val tiny_config : config
(** Minimal hierarchy for unit tests (easy to force evictions). *)

type kind = Load | Store | Rmw

type t

val create : ?cfg:config -> cost:Cost_model.t -> nthreads:int -> unit -> t
(** [nthreads] must be in [\[1, 62\]] (sharer masks are int bitsets). *)

val access : t -> tid:int -> kind:kind -> int -> int
(** [access t ~tid ~kind block] simulates one access by thread [tid] to the
    given line-sized block and returns its cycle cost, including any
    coherence invalidation broadcast. *)

val sharers : t -> int -> int
(** Directory sharer bitmask of a block (test hook). *)

val l1_holds : t -> tid:int -> int -> bool
(** Whether thread [tid]'s L1 holds a block (test hook). *)

val remote_invalidations : t -> int
(** Running invalidation-broadcast count, without allocating a {!stats}
    record — cheap enough for per-access delta checks. *)

type stats = {
  l1 : Cache.stats;
  l2 : Cache.stats;
  l3 : Cache.stats;
  remote_invalidations : int;
}

val stats : t -> stats
val reset_stats : t -> unit
val clear : t -> unit
val pp_stats : Format.formatter -> stats -> unit
