(* The assembled system: simulated machine + virtual memory + LRMalloc +
   a reclamation scheme.  This is the library façade a user builds
   experiments and applications on.

   A [t] owns one simulated multicore (engine), one address space, one
   allocator instance and one reclamation scheme instance; data structures
   are then created against it and driven from simulated threads spawned
   with [spawn]/[run].

   Observability: every [t] also owns one event trace (shared by the
   engine, virtual memory, allocator and scheme — see {!Oamem_obs.Trace})
   and one metrics registry giving a single named view over all the
   per-subsystem stats records ({!Oamem_obs.Metrics}). *)

open Oamem_engine
open Oamem_vmem
open Oamem_lrmalloc
open Oamem_reclaim
module Alloc_config = Oamem_lrmalloc.Config
module Metrics = Oamem_obs.Metrics
module Trace = Oamem_obs.Trace
module Profile = Oamem_obs.Profile
module Timeline = Oamem_obs.Timeline
module Sanitizer = Oamem_sanitize.Sanitizer

type config = {
  nthreads : int;
  policy : Engine.policy;
  cost : Cost_model.t;
  cache_cfg : Hierarchy.config option;
  geom : Geometry.t;
  max_pages : int;
  frame_capacity : int option;
  frame_quota : int option;  (** cap on live frames (memory pressure) *)
  shared_region_pages : int;
  alloc_cfg : Alloc_config.t;
  scheme : string;  (** one of {!Oamem_reclaim.Registry.names} *)
  scheme_cfg : Scheme.config;
  trace : bool;  (** start with event tracing enabled *)
  trace_capacity : int;  (** ring capacity per thread *)
  sanitize : bool;  (** enable the memory-lifecycle sanitizer *)
  profile : bool;  (** start with the cycle-attribution profiler enabled *)
  timeline : int option;
      (** window width in simulated cycles: build a {!Oamem_obs.Timeline}
          over the trace and profiler streams (forces both on) *)
}

module Config = struct
  type t = config

  let make ?(nthreads = 4) ?(policy = Engine.Min_clock)
      ?(cost = Cost_model.opteron_6274) ?cache_cfg ?(geom = Geometry.default)
      ?(max_pages = 1 lsl 18) ?frame_capacity ?frame_quota
      ?(shared_region_pages = 1) ?(alloc_cfg = Alloc_config.default)
      ?(scheme = "oa-ver") ?(scheme_cfg = Scheme.default_config)
      ?(trace = false) ?(trace_capacity = 8192) ?(sanitize = false)
      ?(profile = false) ?timeline () =
    {
      nthreads;
      policy;
      cost;
      cache_cfg;
      geom;
      max_pages;
      frame_capacity;
      frame_quota;
      shared_region_pages;
      alloc_cfg;
      scheme;
      scheme_cfg;
      trace;
      trace_capacity;
      sanitize;
      profile;
      timeline;
    }
end

let default_config = Config.make ()

type t = {
  config : config;
  engine : Engine.t;
  vmem : Vmem.t;
  meta : Cell.heap;
  alloc : Lrmalloc.t;
  scheme : Scheme.ops;
  metrics : Metrics.t;
  trace : Trace.t;
  profile : Profile.t;
  timeline : Timeline.t;
  sanitizer : Sanitizer.t option;
}

(* One named view over every subsystem's stats record.  Counters reset with
   the registry (measurement reset); gauges are instantaneous readings. *)
let register_metrics m ~engine ~vmem ~alloc ~(scheme : Scheme.ops) ~trace =
  let reg ?reset name kind read = Metrics.register m ?reset ~name ~kind read in
  (* engine: accesses, fences, faults, syscalls + cache/TLB detail; one
     shared reset closure zeroes all of them *)
  let ereset () = Engine.reset_stats engine in
  let e field = reg ~reset:ereset ("engine." ^ field) Metrics.Counter in
  e "accesses" (fun () -> (Engine.stats engine).Engine.accesses);
  e "fences" (fun () -> (Engine.stats engine).Engine.fences);
  e "faults" (fun () -> (Engine.stats engine).Engine.faults);
  e "syscalls" (fun () -> (Engine.stats engine).Engine.syscalls);
  let cache () = (Engine.stats engine).Engine.cache in
  e "cache.l1_misses" (fun () -> (cache ()).Hierarchy.l1.Cache.misses);
  e "cache.l2_misses" (fun () -> (cache ()).Hierarchy.l2.Cache.misses);
  e "cache.l3_misses" (fun () -> (cache ()).Hierarchy.l3.Cache.misses);
  e "cache.remote_invalidations" (fun () ->
      (cache ()).Hierarchy.remote_invalidations);
  let tlb () = (Engine.stats engine).Engine.tlb in
  e "tlb.hits" (fun () -> (tlb ()).Tlb.hits);
  e "tlb.misses" (fun () -> (tlb ()).Tlb.misses);
  e "tlb.shootdowns" (fun () -> (tlb ()).Tlb.shootdowns);
  (* reclamation scheme *)
  let ss = scheme.Scheme.stats in
  let sreset () = Scheme.reset_stats ss in
  let s field = reg ~reset:sreset ("scheme." ^ field) Metrics.Counter in
  s "retired" (fun () -> ss.Scheme.retired);
  s "freed" (fun () -> ss.Scheme.freed);
  s "restarts" (fun () -> ss.Scheme.restarts);
  s "warnings_fired" (fun () -> ss.Scheme.warnings_fired);
  s "warnings_piggybacked" (fun () -> ss.Scheme.warnings_piggybacked);
  s "reclaim_phases" (fun () -> ss.Scheme.reclaim_phases);
  s "neutralized" (fun () -> ss.Scheme.neutralized);
  s "seized" (fun () -> ss.Scheme.seized);
  s "cond_fails" (fun () -> ss.Scheme.cond_fails);
  reg "scheme.unreclaimed" Metrics.Gauge (fun () -> Scheme.unreclaimed ss);
  reg "scheme.pinned" Metrics.Gauge (fun () -> Scheme.pinned ss);
  scheme.Scheme.sink.Scheme.reclaim_hist <-
    Some (Metrics.histogram m "scheme.reclaim_batch");
  (* allocator *)
  let heap = Lrmalloc.heap alloc in
  let hs = Heap.stats heap in
  let hreset () = Heap.reset_stats heap in
  let a field = reg ~reset:hreset ("alloc." ^ field) Metrics.Counter in
  a "sb_fresh" (fun () -> hs.Heap.sb_fresh);
  a "sb_range_reused" (fun () -> hs.Heap.sb_range_reused);
  a "sb_released" (fun () -> hs.Heap.sb_released);
  a "sb_remapped" (fun () -> hs.Heap.sb_remapped);
  a "large_allocs" (fun () -> hs.Heap.large_allocs);
  a "large_frees" (fun () -> hs.Heap.large_frees);
  a "pressure_recoveries" (fun () -> hs.Heap.pressure_recoveries);
  a "pressure_failures" (fun () -> hs.Heap.pressure_failures);
  (* virtual memory: Vmem memoizes the page-table scan on the page-table
     epoch, so reading the four residency gauges costs at most one scan per
     snapshot *)
  let g field read = reg ("vmem." ^ field) Metrics.Gauge read in
  g "frames_live" (fun () -> Vmem.frames_live vmem);
  g "frames_peak" (fun () -> Vmem.frames_peak vmem);
  g "resident_pages" (fun () -> Vmem.resident_pages vmem);
  g "linux_rss_pages" (fun () -> Vmem.linux_rss_pages vmem);
  g "mapped_pages" (fun () -> Vmem.mapped_pages vmem);
  g "cow_pages" (fun () -> Vmem.cow_pages vmem);
  let vreset () = Vmem.reset_counters vmem in
  reg ~reset:vreset "vmem.minor_faults" Metrics.Counter (fun () ->
      Vmem.minor_faults vmem);
  reg ~reset:vreset "vmem.cow_cas_faults" Metrics.Counter (fun () ->
      Vmem.cow_cas_faults vmem);
  reg ~reset:vreset "vmem.frames_released" Metrics.Counter (fun () ->
      Frames.freed_total (Vmem.frames vmem));
  (* observability about observability: ring overwrites would otherwise be
     silent data loss in every exported trace *)
  reg
    ~reset:(fun () -> Trace.reset_dropped trace)
    "obs.trace_dropped" Metrics.Counter
    (fun () -> Trace.dropped trace)

let create (config : config) =
  let engine =
    Engine.create ~policy:config.policy ~cost:config.cost
      ?cache_cfg:config.cache_cfg ~geom:config.geom
      ~nthreads:config.nthreads ()
  in
  let vmem =
    Vmem.create ~max_pages:config.max_pages
      ?frame_capacity:config.frame_capacity ?frame_quota:config.frame_quota
      ~shared_region_pages:config.shared_region_pages config.geom
  in
  let meta = Cell.heap config.geom in
  let alloc =
    Lrmalloc.create ~cfg:config.alloc_cfg ~vmem ~meta
      ~nthreads:config.nthreads ()
  in
  let entry = Registry.find config.scheme in
  (* The sanitizer's allocator hooks go in *before* the scheme is built so
     recycling pools allocated during scheme construction are shadowed.
     Its policy is the scheme's capability declaration; the only cap that
     can depend on the instance config is DEBRA's [neutralizes] switch, so
     apply it here to keep the policy consistent with the constructed
     [ops.caps]. *)
  let sanitizer =
    if not config.sanitize then None
    else begin
      let caps =
        {
          entry.Registry.caps with
          Scheme.neutralizes =
            entry.Registry.caps.Scheme.neutralizes
            && config.scheme_cfg.Scheme.neutralize;
        }
      in
      let s = Sanitizer.create ~vmem ~nthreads:config.nthreads caps in
      Vmem.set_access_hook vmem (Some (Sanitizer.on_access s));
      Lrmalloc.set_lifecycle alloc (Some (Sanitizer.lifecycle s));
      Heap.set_range_hook (Lrmalloc.heap alloc)
        (Some (Sanitizer.range_hook s));
      Some s
    end
  in
  let scheme =
    entry.Registry.make config.scheme_cfg ~alloc ~meta
      ~nthreads:config.nthreads
  in
  let scheme =
    match sanitizer with
    | Some s -> Scheme.observe (Sanitizer.observer s) scheme
    | None -> scheme
  in
  (* Profiling wrapper outermost, so retire/flush spans also cover the
     sanitizer's bookkeeping when both are on. *)
  let scheme = Scheme.profiled scheme in
  let trace =
    Trace.create ~capacity:config.trace_capacity ~nthreads:config.nthreads ()
  in
  Trace.set_enabled trace config.trace;
  Engine.set_trace engine trace;
  Vmem.set_trace vmem trace;
  Heap.set_trace (Lrmalloc.heap alloc) trace;
  scheme.Scheme.sink.Scheme.trace <- trace;
  Option.iter (fun s -> Sanitizer.set_trace s trace) sanitizer;
  let profile = Profile.create ~nthreads:config.nthreads () in
  Profile.set_enabled profile config.profile;
  Engine.set_profile engine profile;
  (* The timeline consumes the trace and profiler streams, so configuring
     one forces both sources on; the sinks are only installed here — with
     no timeline the emit paths keep their no-op defaults. *)
  let timeline =
    match config.timeline with
    | None -> Timeline.null
    | Some width ->
        let tl = Timeline.create ~width () in
        Timeline.set_enabled tl true;
        Trace.set_enabled trace true;
        Profile.set_enabled profile true;
        Trace.set_sink trace (Timeline.note_event tl);
        Profile.set_leave_hook profile (Timeline.note_latency tl);
        tl
  in
  let metrics = Metrics.create () in
  register_metrics metrics ~engine ~vmem ~alloc ~scheme ~trace;
  Option.iter
    (fun s ->
      Metrics.register metrics ~name:"sanitizer.violations"
        ~kind:Metrics.Gauge (fun () -> Sanitizer.violation_count s))
    sanitizer;
  {
    config;
    engine;
    vmem;
    meta;
    alloc;
    scheme;
    metrics;
    trace;
    profile;
    timeline;
    sanitizer;
  }

let engine t = t.engine
let vmem t = t.vmem
let alloc t = t.alloc
let scheme t = t.scheme
let meta t = t.meta
let nthreads t = t.config.nthreads
let sanitizer t = t.sanitizer

let check_sanitizer t =
  Option.iter (fun s -> Sanitizer.check s) t.sanitizer

let check_sanitizer_quiescent t =
  Option.iter (fun s -> Sanitizer.check_quiescent s) t.sanitizer

(* {2 Data structures} *)

let list_set t ctx =
  Oamem_lockfree.Hm_list.create ctx ~scheme:t.scheme ~vmem:t.vmem

let hash_set t ctx ~expected_size =
  Oamem_lockfree.Michael_hash.create ctx ~scheme:t.scheme ~vmem:t.vmem
    ~alloc:t.alloc ~expected_size ~load_factor:0.75

let list_map t ctx =
  Oamem_lockfree.Hm_list.create_kv ctx ~scheme:t.scheme ~vmem:t.vmem

let hash_map t ctx ~expected_size =
  Oamem_lockfree.Michael_hash.create_kv ctx ~scheme:t.scheme ~vmem:t.vmem
    ~alloc:t.alloc ~expected_size ~load_factor:0.75

(* {2 Thread driving} *)

let spawn t ~tid f = Engine.spawn t.engine ~tid f
let run ?max_steps t = Engine.run ?max_steps t.engine

(* {2 Fault injection} *)

let set_fault_plan t plan = Engine.set_fault_plan t.engine plan
let crashed t ~tid = Engine.crashed t.engine ~tid

(* Run [f] once on thread 0 to completion (setup/prefill phases). *)
let run_on_thread0 t f =
  spawn t ~tid:0 f;
  run t

let observe ctx ~until ~interval f =
  if interval <= 0 then invalid_arg "System.observe: interval must be positive";
  while Engine.Mem.now ctx < until do
    f (Engine.Mem.now ctx);
    Engine.Mem.charge ctx interval;
    Engine.Mem.pause ctx
  done

(* {2 Teardown and metrics} *)

(* Drain limbo lists and thread caches from every thread slot, then release
   lingering empty superblocks, so memory metrics reflect steady state.
   Crashed slots cannot run: whatever they pinned stays pinned — which is
   precisely what the robustness experiments measure. *)
let drain t =
  for tid = 0 to t.config.nthreads - 1 do
    if not (crashed t ~tid) then
      spawn t ~tid (fun ctx ->
          t.scheme.Scheme.flush ctx;
          Lrmalloc.flush_thread_cache t.alloc ctx)
  done;
  run t;
  run_on_thread0 t (fun ctx -> Oamem_lrmalloc.Heap.trim (Lrmalloc.heap t.alloc) ctx)

let metrics_registry t = t.metrics
let metrics t = Metrics.snapshot t.metrics
let trace t = t.trace
let set_tracing t on = Trace.set_enabled t.trace on
let profile t = t.profile
let set_profiling t on = Profile.set_enabled t.profile on
let timeline t = t.timeline

(* [Engine.reset_clocks] rebuilds the scheduler's heap index (its keys are
   the clocks being zeroed) and the translation-cache flush drops frames
   cached during warmup, so the measured phase starts from a cold,
   consistent state.  The flush also happens via the registered
   [Vmem.reset_counters] reset, but is kept explicit: the contract must not
   depend on metric-registration order. *)
let reset_measurement t =
  Engine.reset_clocks t.engine;
  Vmem.flush_translation_cache t.vmem;
  Metrics.reset t.metrics;
  Trace.clear t.trace;
  Profile.reset t.profile;
  Timeline.reset t.timeline
