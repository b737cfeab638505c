(** The assembled system: simulated multicore + virtual memory + LRMalloc +
    one reclamation scheme — the façade applications and experiments build
    on.

    Observability: every system owns one event trace shared by all its
    subsystems ({!trace}, see {!Oamem_obs.Trace}) and one metrics registry
    giving a single named view over every per-subsystem stats record
    ({!metrics}, see {!Oamem_obs.Metrics}). *)

open Oamem_engine
open Oamem_vmem
open Oamem_lrmalloc
open Oamem_reclaim

type config = {
  nthreads : int;
  policy : Engine.policy;
  cost : Cost_model.t;
  cache_cfg : Hierarchy.config option;
  geom : Geometry.t;
  max_pages : int;
  frame_capacity : int option;
  frame_quota : int option;
      (** cap on live frames (simulated memory pressure); exceeding it makes
          fault-ins raise [Frames.Out_of_frames], which the allocator
          answers with its pressure-recovery path *)
  shared_region_pages : int;
  alloc_cfg : Config.t;
  scheme : string;  (** one of {!Oamem_reclaim.Registry.names} *)
  scheme_cfg : Scheme.config;
  trace : bool;  (** start with event tracing enabled (default off) *)
  trace_capacity : int;  (** trace ring capacity per thread *)
  sanitize : bool;
      (** enable the memory-lifecycle sanitizer (default off): shadow-state
          checking of every block on every simulated access — see
          {!Oamem_sanitize.Sanitizer} *)
  profile : bool;
      (** start with the cycle-attribution profiler enabled (default off) —
          see {!Oamem_obs.Profile} *)
  timeline : int option;
      (** build a {!Oamem_obs.Timeline} with windows of this many simulated
          cycles over the trace and profiler streams (default [None]);
          configuring it forces [trace] and [profile] on, since those are
          its sources *)
}

(** Configuration builder: [Config.make ()] is the default configuration
    (4 threads, Min_clock, Opteron cost model, OA-VER, tracing off);
    keyword arguments override individual fields without spelling out the
    record. *)
module Config : sig
  type t = config

  val make :
    ?nthreads:int ->
    ?policy:Engine.policy ->
    ?cost:Cost_model.t ->
    ?cache_cfg:Hierarchy.config ->
    ?geom:Geometry.t ->
    ?max_pages:int ->
    ?frame_capacity:int ->
    ?frame_quota:int ->
    ?shared_region_pages:int ->
    ?alloc_cfg:Oamem_lrmalloc.Config.t ->
    ?scheme:string ->
    ?scheme_cfg:Scheme.config ->
    ?trace:bool ->
    ?trace_capacity:int ->
    ?sanitize:bool ->
    ?profile:bool ->
    ?timeline:int ->
    unit ->
    config
end

val default_config : config
(** [Config.make ()]. *)

type t

val create : config -> t
val engine : t -> Engine.t
val vmem : t -> Vmem.t
val alloc : t -> Lrmalloc.t
val scheme : t -> Scheme.ops
val meta : t -> Cell.heap
val nthreads : t -> int

(** {2 Data structures} *)

val list_set : t -> Engine.ctx -> Oamem_lockfree.Hm_list.t
val hash_set :
  t -> Engine.ctx -> expected_size:int -> Oamem_lockfree.Michael_hash.t

val list_map : t -> Engine.ctx -> Oamem_lockfree.Hm_list.t
(** Key-value variant (3-word nodes); use the [_kv]/[lookup]/[replace] ops. *)

val hash_map :
  t -> Engine.ctx -> expected_size:int -> Oamem_lockfree.Michael_hash.t

(** {2 Thread driving} *)

val spawn : t -> tid:int -> (Engine.ctx -> unit) -> unit
val run : ?max_steps:int -> t -> unit
val run_on_thread0 : t -> (Engine.ctx -> unit) -> unit

val observe : Engine.ctx -> until:int -> interval:int -> (int -> unit) -> unit
(** The observer loop of a sampler thread: while the thread's clock is
    below [until], call [f now], charge [interval] cycles and yield.  It
    charges nothing else, so under [Min_clock] its samples interleave with
    the workload in simulated-time order without perturbing it.  Raises
    [Invalid_argument] unless [interval] is positive. *)

(** {2 Fault injection} *)

val set_fault_plan : t -> Fault_plan.t -> unit
(** Install a stall/crash/jitter plan on the engine (see
    {!Oamem_engine.Fault_plan}). *)

val crashed : t -> tid:int -> bool

(** {2 Teardown} *)

val drain : t -> unit
(** Drain limbo lists and thread caches on every non-crashed slot, then
    release lingering empty superblocks.  Crashed slots keep whatever they
    pinned — the robustness experiments measure exactly that. *)

(** {2 Observability} *)

val metrics : t -> Oamem_obs.Metrics.snapshot
(** One coherent snapshot over every subsystem: [engine.*] (accesses,
    fences, faults, syscalls, cache and TLB detail), [scheme.*] (retired,
    freed, restarts, warnings, reclaim phases + the [unreclaimed] gauge and
    the [reclaim_batch] histogram), [alloc.*] (superblock lifecycle,
    pressure recovery) and [vmem.*] (frame and page gauges, fault and
    release counters). *)

val metrics_registry : t -> Oamem_obs.Metrics.t

val trace : t -> Oamem_obs.Trace.t
(** The system-wide event trace (enabled via the [trace] config field or
    {!set_tracing}). *)

val set_tracing : t -> bool -> unit

val profile : t -> Oamem_obs.Profile.t
(** The system-wide cycle-attribution profiler (enabled via the [profile]
    config field or {!set_profiling}).  Attached to the engine, the
    allocator, the vmem layer, the reclamation scheme and the lock-free
    structures; see {!Oamem_obs.Profile} for the span model. *)

val set_profiling : t -> bool -> unit

val timeline : t -> Oamem_obs.Timeline.t
(** The simulated-time windowed aggregation over the trace and profiler
    streams (configured via the [timeline] config field; {!Oamem_obs.Timeline.null}
    otherwise).  Reset by {!reset_measurement} like the other
    observability state. *)

(** {2 Lifecycle sanitizer} *)

val sanitizer : t -> Oamem_sanitize.Sanitizer.t option
(** The sanitizer instance, when the [sanitize] config field was set. *)

val check_sanitizer : t -> unit
(** Raise {!Oamem_sanitize.Sanitizer.Violation} with the first recorded
    violation, if any; no-op when the sanitizer is off. *)

val check_sanitizer_quiescent : t -> unit
(** Quiescence check: additionally flags retired-but-never-reclaimed blocks
    (unless the scheme leaks by design — NR, the original OA pools).  Call
    after {!drain}. *)

val reset_measurement : t -> unit
(** Start a fresh measurement window: reset thread clocks, zero every
    counter in the metrics registry (engine, scheme, allocator and vmem
    counters alike — gauges such as peak frames are kept), drop all
    buffered trace events and clear the profiler.  Cache and TLB *contents*
    are preserved, so a warmed-up system stays warm. *)
