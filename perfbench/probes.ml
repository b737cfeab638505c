(* Layer probes: host nanoseconds per call of one simulator primitive in
   isolation, each the median of several timed rounds.  They put a number on
   the per-primitive costs the end-to-end host time is built from. *)

open Oamem_engine
module Vmem = Oamem_vmem.Vmem
module Lrmalloc = Oamem_lrmalloc.Lrmalloc

let rounds = 7

(* [per_call ~iters body] runs [body iters] in [rounds] timed rounds (after
   one untimed warm round) and returns the median host ns per iteration. *)
let per_call ~iters body =
  body iters;
  let samples =
    Array.init rounds (fun _ ->
        let t0 = Tracer.now_ns () in
        body iters;
        float_of_int (Tracer.now_ns () - t0) /. float_of_int iters)
  in
  Array.sort compare samples;
  samples.(rounds / 2)

let geom = Geometry.default

let mapped_word () =
  let vm = Vmem.create ~max_pages:1024 geom in
  let ctx = Engine.external_ctx () in
  let addr = Vmem.reserve vm ~npages:1 in
  Vmem.map_anon vm ctx ~vpage:(Geometry.page_of_addr geom addr) ~npages:1;
  Vmem.store vm ctx addr 0;
  (vm, ctx, addr)

let cache_hit () =
  let c = Cache.create ~name:"l1" ~sets:64 ~ways:4 in
  ignore (Cache.access c 42);
  per_call ~iters:2_000_000 (fun n ->
      for _ = 1 to n do
        ignore (Cache.access c 42)
      done)

let hierarchy_access () =
  let h = Hierarchy.create ~cost:Cost_model.opteron_6274 ~nthreads:4 () in
  per_call ~iters:1_000_000 (fun n ->
      for i = 1 to n do
        ignore
          (Hierarchy.access h ~tid:(i land 3) ~kind:Hierarchy.Load (i land 1023))
      done)

let vmem_load () =
  let vm, ctx, addr = mapped_word () in
  per_call ~iters:1_000_000 (fun n ->
      for _ = 1 to n do
        ignore (Vmem.load vm ctx addr)
      done)

let vmem_cas () =
  let vm, ctx, addr = mapped_word () in
  per_call ~iters:1_000_000 (fun n ->
      for _ = 1 to n do
        ignore (Vmem.cas vm ctx addr ~expect:0 ~desired:0)
      done)

let malloc_free () =
  let vm = Vmem.create ~max_pages:65536 geom in
  let a = Lrmalloc.create ~vmem:vm ~meta:(Cell.heap geom) ~nthreads:1 () in
  let ctx = Engine.external_ctx () in
  per_call ~iters:300_000 (fun n ->
      for _ = 1 to n do
        Lrmalloc.free a ctx (Lrmalloc.malloc a ctx 2)
      done)

(* [threads] simulated threads each issue [n / threads] accesses to their
   own line.  One thread stays the scheduling leader and commits inline;
   two threads with equal costs swap leadership on every access, so each
   access is an effect round-trip through the scheduler. *)
let engine_access ~threads () =
  per_call ~iters:400_000 (fun n ->
      let eng = Engine.create ~nthreads:threads () in
      for tid = 0 to threads - 1 do
        Engine.spawn eng ~tid (fun ctx ->
            for _ = 1 to n / threads do
              Engine.Mem.access ctx ~vpage:(-1) ~paddr:(64 * tid)
                ~kind:Engine.Load
            done)
      done;
      Engine.run eng)

let all () =
  [
    ("probe.cache_hit_ns", cache_hit ());
    ("probe.hierarchy_access_ns", hierarchy_access ());
    ("probe.vmem_load_ns", vmem_load ());
    ("probe.vmem_cas_ns", vmem_cas ());
    ("probe.lrmalloc_malloc_free_ns", malloc_free ());
    ("probe.engine_inline_access_ns", engine_access ~threads:1 ());
    ("probe.engine_switch_access_ns", engine_access ~threads:2 ());
  ]
