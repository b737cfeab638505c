(* Tests for the fused memory-access fast path.

   The inline path (Engine.Mem charging a request without a context switch)
   and the vmem translation cache are pure host-side optimisations: they
   must be observationally invisible to the simulation.  These tests pin
   that down — identical clocks/stats at the engine level, identical
   metrics at the runner level — plus the measurement-reset regressions
   (scheduler heap rebuilt, translation cache flushed) and the
   allocation-free steady-state hit path. *)

open Oamem_engine
open Oamem_vmem
open Oamem_core
open Oamem_reclaim
open Oamem_lockfree
open Oamem_harness
module Json = Oamem_obs.Json
module Export = Oamem_obs.Export
module Metrics = Oamem_obs.Metrics

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- engine-level differential -------------------------------------------- *)

(* Deterministic mixed traffic: each thread walks its own PRNG and issues
   loads, stores, RMWs, fences and pauses over a small block range. *)
let drive ~fused ~nthreads =
  let eng = Engine.create ~nthreads () in
  Engine.set_fused eng fused;
  for tid = 0 to nthreads - 1 do
    Engine.spawn eng ~tid (fun ctx ->
        let prng = Engine.Mem.prng ctx in
        for _ = 1 to 400 do
          let r = Prng.next prng in
          let paddr = r land 1023 in
          (match r land 7 with
          | 0 | 1 | 2 | 3 ->
              Engine.Mem.access ctx ~vpage:(paddr lsr 9) ~paddr
                ~kind:Engine.Load
          | 4 | 5 ->
              Engine.Mem.access ctx ~vpage:(paddr lsr 9) ~paddr
                ~kind:Engine.Store
          | 6 ->
              Engine.Mem.access ctx ~vpage:(paddr lsr 9) ~paddr
                ~kind:Engine.Rmw
          | _ -> Engine.Mem.fence ctx Engine.Full);
          if r land 31 = 0 then Engine.Mem.pause ctx
        done)
  done;
  Engine.run eng;
  eng

let test_engine_differential () =
  let nthreads = 4 in
  let fused = drive ~fused:true ~nthreads in
  let slow = drive ~fused:false ~nthreads in
  for tid = 0 to nthreads - 1 do
    check_int
      (Printf.sprintf "clock of thread %d" tid)
      (Engine.clock slow ~tid) (Engine.clock fused ~tid)
  done;
  check_int "steps" (Engine.steps slow) (Engine.steps fused);
  let sf = Engine.stats fused and ss = Engine.stats slow in
  check_int "accesses" ss.Engine.accesses sf.Engine.accesses;
  check_int "fences" ss.Engine.fences sf.Engine.fences;
  check_int "remote invalidations" ss.Engine.cache.Hierarchy.remote_invalidations
    sf.Engine.cache.Hierarchy.remote_invalidations;
  check_int "l1 hits" ss.Engine.cache.Hierarchy.l1.Cache.hits
    sf.Engine.cache.Hierarchy.l1.Cache.hits;
  check_int "tlb misses" ss.Engine.tlb.Tlb.misses sf.Engine.tlb.Tlb.misses

(* --- runner-level differential -------------------------------------------- *)

let spec ~fused scheme threads =
  {
    Runner.default_spec with
    Runner.scheme;
    threads;
    structure = Runner.Hash_set;
    workload = Workload.make ~mix:Workload.update_only ~initial:200 ();
    horizon_cycles = 60_000;
    threshold = 16;
    sb_pages = 4;
    fused;
  }

(* Same seed, same workload: the two runs must simulate the same execution
   down to every counter. *)
let check_runs_identical label (expected : Runner.result) (got : Runner.result)
    =
  let name what = Printf.sprintf "%s: %s identical" label what in
  check_int (name "ops") expected.Runner.ops got.Runner.ops;
  check_bool (name "throughput") true
    (expected.Runner.throughput_mops = got.Runner.throughput_mops);
  check_int (name "steps") expected.Runner.host_steps got.Runner.host_steps;
  check_bool (name "metrics") true
    (Json.to_string (Export.metrics_json expected.Runner.metrics)
    = Json.to_string (Export.metrics_json got.Runner.metrics))

let test_runner_differential () =
  List.iter
    (fun (scheme, threads) ->
      check_runs_identical
        (Printf.sprintf "%s %dT" scheme threads)
        (Runner.run (spec ~fused:false scheme threads))
        (Runner.run (spec ~fused:true scheme threads)))
    [ ("oa-ver", 1); ("oa-ver", 4); ("nr", 2); ("hp", 2) ]

(* Every registered scheme at 1 and 4 threads on a 1,000-key update-only
   hash set over a 2M-cycle window: the default spec (fused, run-ahead
   parking on) against the slow path, at a scale where tenures, parking and
   reclamation all run many times per thread. *)
let test_runner_differential_all_schemes () =
  List.iter
    (fun scheme ->
      List.iter
        (fun threads ->
          let spec fused =
            {
              Runner.default_spec with
              Runner.scheme;
              threads;
              workload =
                Workload.make ~mix:Workload.update_only ~initial:1_000 ();
              horizon_cycles = 2_000_000;
              fused;
            }
          in
          check_runs_identical
            (Printf.sprintf "%s %dT" scheme threads)
            (Runner.run (spec false))
            (Runner.run (spec true)))
        [ 1; 4 ])
    Registry.names

(* IMR leans on the two conditional-access engine paths that have fused-tier
   fast copies — revocation posts (tenure teardown) and the squash latch on
   Store/Rmw commits — so its runs must be byte-identical across all three
   modes: slow path, fused tenure-only, fused + run-ahead parking. *)
let test_imr_tri_modal_identity () =
  let spec ~fused ~runahead =
    {
      Runner.default_spec with
      Runner.scheme = "imr";
      threads = 4;
      structure = Runner.Hash_set;
      workload = Workload.make ~mix:Workload.update_only ~initial:200 ();
      horizon_cycles = 60_000;
      threshold = 16;
      sb_pages = 4;
      fused;
      runahead;
    }
  in
  let slow = Runner.run (spec ~fused:false ~runahead:false) in
  let cond_fails = Metrics.find slow.Runner.metrics "scheme.cond_fails" in
  check_bool "the workload exercises conditional-access failures" true
    (cond_fails > 0);
  List.iter
    (fun (mode, r) -> check_runs_identical ("imr " ^ mode) slow r)
    [
      ("tenure-only", Runner.run (spec ~fused:true ~runahead:false));
      ("run-ahead", Runner.run (spec ~fused:true ~runahead:true));
    ]

(* --- tenure differentials -------------------------------------------------- *)

(* The leader-tenure and run-ahead parking tiers must be observationally
   invisible: every scenario below runs under the three engine modes —
   slow path, fused tenure-only, fused + run-ahead parking — and the
   simulated outcome (clocks, yields, fault accounting, cache/TLB state)
   must be byte-identical across all three. *)

let assert_sim_equal label ~nthreads (expected : Engine.t) (got : Engine.t) =
  for tid = 0 to nthreads - 1 do
    let n what = Printf.sprintf "%s: %s of thread %d" label what tid in
    check_int (n "clock") (Engine.clock expected ~tid) (Engine.clock got ~tid);
    let fe = Engine.fault_stats expected ~tid
    and fg = Engine.fault_stats got ~tid in
    check_int (n "yields") fe.Engine.yields fg.Engine.yields;
    check_int (n "stalls") fe.Engine.stalls_injected fg.Engine.stalls_injected;
    check_int (n "stall cycles") fe.Engine.stall_cycles fg.Engine.stall_cycles;
    check_int (n "neutralizations") fe.Engine.neutralized fg.Engine.neutralized
  done;
  let n what = Printf.sprintf "%s: %s" label what in
  check_int (n "steps") (Engine.steps expected) (Engine.steps got);
  let se = Engine.stats expected and sg = Engine.stats got in
  check_int (n "accesses") se.Engine.accesses sg.Engine.accesses;
  check_int (n "fences") se.Engine.fences sg.Engine.fences;
  check_int (n "faults") se.Engine.faults sg.Engine.faults;
  check_int (n "l1 hits") se.Engine.cache.Hierarchy.l1.Cache.hits
    sg.Engine.cache.Hierarchy.l1.Cache.hits;
  check_int (n "remote invalidations")
    se.Engine.cache.Hierarchy.remote_invalidations
    sg.Engine.cache.Hierarchy.remote_invalidations;
  check_int (n "tlb misses") se.Engine.tlb.Tlb.misses sg.Engine.tlb.Tlb.misses

(* [build ()] creates an engine and spawns its threads; each mode gets a
   fresh instance.  Returns the slow-path engine for scenario-specific
   assertions (e.g. that the fault being tested actually fired). *)
let tri_modal label ~nthreads build =
  let under ~fused ~runahead =
    let eng = build () in
    Engine.set_fused eng fused;
    Engine.set_runahead eng runahead;
    Engine.run eng;
    eng
  in
  let slow = under ~fused:false ~runahead:false in
  let tenure_only = under ~fused:true ~runahead:false in
  let full = under ~fused:true ~runahead:true in
  assert_sim_equal (label ^ " (tenure-only vs slow)") ~nthreads slow
    tenure_only;
  assert_sim_equal (label ^ " (run-ahead vs slow)") ~nthreads slow full;
  slow

(* A cheap streaming thread against an expensive rival: thread 0's clock
   repeatedly crosses its tenure bound (thread 1's suspension clock + 1),
   forcing mid-stream revalidation, parking and leadership handoff in both
   directions. *)
let test_leader_overtaken_mid_tenure () =
  let build () =
    let eng = Engine.create ~nthreads:2 () in
    Engine.spawn eng ~tid:0 (fun ctx ->
        for _ = 1 to 600 do
          Engine.Mem.access ctx ~vpage:(-1) ~paddr:8 ~kind:Engine.Load
        done);
    Engine.spawn eng ~tid:1 (fun ctx ->
        for i = 1 to 60 do
          Engine.Mem.access ctx ~vpage:(-1) ~paddr:(64 * i) ~kind:Engine.Rmw
        done);
    eng
  in
  ignore (tri_modal "overtake" ~nthreads:2 build)

(* A neutralization posted against a tenure-holding victim: the Posted
   branch may pull the victim's clock back, so every live tenure bound is
   stale and must be dropped.  Thread 2 is a cheap bystander whose tenures
   span the post. *)
let test_neutralize_breaks_tenure () =
  let build () =
    let eng = Engine.create ~nthreads:3 () in
    Engine.spawn eng ~tid:0 (fun ctx ->
        let n = ref 0 in
        Engine.Mem.checkpoint ctx
          ~recover:(fun () -> ())
          (fun () ->
            while !n < 2_000 do
              incr n;
              Engine.Mem.access ctx ~vpage:(-1) ~paddr:16 ~kind:Engine.Load
            done));
    Engine.spawn eng ~tid:1 (fun ctx ->
        for i = 1 to 40 do
          Engine.Mem.access ctx ~vpage:(-1) ~paddr:(64 * i) ~kind:Engine.Rmw;
          if i = 3 then
            check_bool "signal posted" true
              (Engine.Mem.neutralize ctx ~victim:0 = Engine.Posted)
        done);
    Engine.spawn eng ~tid:2 (fun ctx ->
        for _ = 1 to 2_000 do
          Engine.Mem.access ctx ~vpage:(-1) ~paddr:24 ~kind:Engine.Load
        done);
    eng
  in
  let slow = tri_modal "neutralize" ~nthreads:3 build in
  check_int "victim was neutralized once" 1
    (Engine.fault_stats slow ~tid:0).Engine.neutralized

(* An access revocation posted against a tenure-holding victim: revoke does
   not pull the victim's clock back, but it flips what the victim's
   subsequent Store/Rmw commits *do* (the squash latch), so every cached
   tenure bound must be dropped exactly like a posted neutralization — a
   victim inlining against a stale bound would commit unsquashed stores the
   slow path squashes.  Thread 2 is a cheap bystander whose tenures span
   the post. *)
let test_revoke_breaks_tenure () =
  let build () =
    let eng = Engine.create ~nthreads:3 () in
    Engine.spawn eng ~tid:0 (fun ctx ->
        for _ = 1 to 2_000 do
          Engine.Mem.access ctx ~vpage:(-1) ~paddr:16 ~kind:Engine.Store
        done;
        check_bool "victim's flag stays revoked" true
          (Engine.Mem.access_revoked ctx ~tid:0));
    Engine.spawn eng ~tid:1 (fun ctx ->
        for i = 1 to 40 do
          Engine.Mem.access ctx ~vpage:(-1) ~paddr:(64 * i) ~kind:Engine.Rmw;
          if i = 3 then
            check_bool "revocation posted" true
              (Engine.Mem.revoke ctx ~victim:0 = Engine.Posted)
        done);
    Engine.spawn eng ~tid:2 (fun ctx ->
        for _ = 1 to 2_000 do
          Engine.Mem.access ctx ~vpage:(-1) ~paddr:24 ~kind:Engine.Load
        done);
    eng
  in
  ignore (tri_modal "revoke" ~nthreads:3 build)

(* reset_clocks issued from inside a running thread, mid-tenure: bounds are
   absolute clock values, so a reset that zeroes the clocks but kept the
   bounds would leave thread 0 inlining against a stale future bound while
   every heap key restarts from zero. *)
let test_reset_clocks_mid_tenure () =
  let build () =
    let eng = Engine.create ~nthreads:2 () in
    Engine.spawn eng ~tid:0 (fun ctx ->
        for i = 1 to 300 do
          Engine.Mem.access ctx ~vpage:(-1) ~paddr:8 ~kind:Engine.Load;
          if i = 150 then Engine.reset_clocks eng
        done);
    Engine.spawn eng ~tid:1 (fun ctx ->
        for i = 1 to 30 do
          Engine.Mem.access ctx ~vpage:(-1) ~paddr:(64 * i) ~kind:Engine.Rmw
        done);
    eng
  in
  ignore (tri_modal "reset mid-tenure" ~nthreads:2 build)

(* A fault plan installed mid-run while the fused engine is deep in a
   tenure (and, under run-ahead, while a thread is parked): the flip must
   tear down the tenure and the parked thread must fall back to the
   scheduler without its bail counting as an extra yield, so the stall
   lands on exactly the same yield as on the slow path. *)
let test_plan_flip_mid_tenure () =
  let build () =
    let eng = Engine.create ~nthreads:2 () in
    Engine.spawn eng ~tid:0 (fun ctx ->
        for _ = 1 to 6_000 do
          Engine.Mem.access ctx ~vpage:(-1) ~paddr:8 ~kind:Engine.Load
        done);
    Engine.spawn eng ~tid:1 (fun ctx ->
        for i = 1 to 40 do
          Engine.Mem.access ctx ~vpage:(-1) ~paddr:(64 * i) ~kind:Engine.Rmw;
          if i = 2 then
            Engine.set_fault_plan eng
              (Fault_plan.make
                 [
                   Fault_plan.Stall
                     { tid = 0; at_yield = 4_000; cycles = 9_000 };
                 ])
        done);
    eng
  in
  let slow = tri_modal "plan flip" ~nthreads:2 build in
  let fs = Engine.fault_stats slow ~tid:0 in
  check_int "stall fired after the flip" 1 fs.Engine.stalls_injected;
  check_int "stall cycles charged" 9_000 fs.Engine.stall_cycles

(* --- measurement reset ----------------------------------------------------- *)

(* Mid-run clock reset must rebuild the scheduler heap: its keys are the
   suspension-time clocks, so zeroing the clocks without reindexing would
   leave the pre-reset ordering in force.  Thread 0 charges itself far
   ahead, so before the reset the scheduler favours thread 1; after the
   reset all clocks tie and the lowest tid must win the first pick. *)
let test_reset_clocks_rebuilds_heap () =
  let eng = Engine.create ~nthreads:2 () in
  let order = ref [] in
  let walker tid head_start =
    Engine.spawn eng ~tid (fun ctx ->
        if head_start > 0 then Engine.Mem.charge ctx head_start;
        for _ = 1 to 40 do
          order := tid :: !order;
          Engine.Mem.access ctx ~vpage:(-1) ~paddr:tid ~kind:Engine.Load
        done)
  in
  walker 0 1_000_000;
  walker 1 0;
  (match Engine.run ~max_steps:20 eng with
  | () -> Alcotest.fail "expected the step limit to hit mid-run"
  | exception Engine.Step_limit_exceeded -> ());
  check_bool "thread 1 was leading before the reset" true
    (Engine.clock eng ~tid:0 > Engine.clock eng ~tid:1);
  Engine.reset_clocks eng;
  order := [];
  Engine.run eng;
  (match List.rev !order with
  | first :: _ -> check_int "lowest tid resumes first after reset" 0 first
  | [] -> Alcotest.fail "no post-reset steps");
  check_int "both threads finished" 0
    (List.length (List.filter (fun t -> t <> 0 && t <> 1) !order))

let mapped_addr vm ctx =
  let addr = Vmem.reserve vm ~npages:1 in
  Vmem.map_anon vm ctx ~vpage:(Geometry.page_of_addr Geometry.default addr)
    ~npages:1;
  addr

let test_flush_forces_refill () =
  let vm = Vmem.create ~max_pages:64 Geometry.default in
  let ctx = Engine.external_ctx () in
  let addr = mapped_addr vm ctx in
  Vmem.store vm ctx addr 7;
  (* the store's own fill is stale by design: its epoch was captured before
     the fault-in bumped the page table's, so the next access re-fills *)
  ignore (Vmem.load vm ctx addr);
  let fills = Vmem.tc_fills vm in
  let hits = Vmem.tc_hits vm in
  ignore (Vmem.load vm ctx addr);
  check_int "load hits the translation cache" (hits + 1) (Vmem.tc_hits vm);
  check_int "no refill on a hit" fills (Vmem.tc_fills vm);
  Vmem.flush_translation_cache vm;
  ignore (Vmem.load vm ctx addr);
  check_int "flush forces a refill" (fills + 1) (Vmem.tc_fills vm)

(* Remap under a permanent tenure: with one thread the fused engine holds
   an unbounded tenure, so the unmap/map_anon pair and the reload all run
   inline.  The page-table epoch bump must still invalidate the thread's
   translation-cache entry — the reload has to see the fresh zero mapping
   (and take its fault), not the dead frame the cache translated to. *)
let test_tc_epoch_bump_mid_tenure () =
  let run ~fused =
    let vm = Vmem.create ~max_pages:64 Geometry.default in
    let eng = Engine.create ~nthreads:1 () in
    Engine.set_fused eng fused;
    Vmem.set_translation_cache vm fused;
    let seen = ref [] in
    Engine.spawn eng ~tid:0 (fun ctx ->
        let addr = mapped_addr vm ctx in
        let vpage = Geometry.page_of_addr Geometry.default addr in
        Vmem.store vm ctx addr 7;
        seen := Vmem.load vm ctx addr :: !seen;
        (* warm the translation-cache entry so the stale path is reachable *)
        ignore (Vmem.load vm ctx addr);
        Vmem.unmap vm ctx ~vpage ~npages:1;
        Vmem.map_anon vm ctx ~vpage ~npages:1;
        seen := Vmem.load vm ctx addr :: !seen);
    Engine.run eng;
    (List.rev !seen, Vmem.minor_faults vm, Engine.clock eng ~tid:0,
     Engine.steps eng)
  in
  let fv, ffaults, fclock, fsteps = run ~fused:true in
  let sv, sfaults, sclock, ssteps = run ~fused:false in
  check_bool "remap is visible mid-tenure" true (fv = [ 7; 0 ]);
  check_bool "loaded values identical" true (fv = sv);
  check_int "minor faults identical" sfaults ffaults;
  check_int "clock identical" sclock fclock;
  check_int "steps identical" ssteps fsteps

let test_reset_measurement_flushes_translation_cache () =
  let sys =
    System.create
      (System.Config.make ~nthreads:2 ~scheme:"oa-ver"
         ~max_pages:(1 lsl 14)
         ~scheme_cfg:
           {
             Scheme.default_config with
             Scheme.threshold = 8;
             slots_per_thread = Hm_list.slots_needed;
           }
         ())
  in
  System.run_on_thread0 sys (fun ctx ->
      let s = System.list_set sys ctx in
      for k = 0 to 31 do
        ignore (Hm_list.insert s ctx k)
      done;
      for k = 0 to 31 do
        ignore (Hm_list.contains s ctx k)
      done);
  let vm = System.vmem sys in
  check_bool "warmup populated the translation cache" true
    (Vmem.tc_hits vm > 0);
  System.reset_measurement sys;
  check_int "hit counter cleared" 0 (Vmem.tc_hits vm);
  check_int "fill counter cleared" 0 (Vmem.tc_fills vm);
  (* the cache itself must be flushed, not just its counters: the first
     post-reset access must miss and refill *)
  System.run_on_thread0 sys (fun ctx ->
      let s = System.list_set sys ctx in
      ignore (Hm_list.contains s ctx 0));
  check_bool "first post-reset access refills" true (Vmem.tc_fills vm > 0)

(* --- allocation-free fast path --------------------------------------------- *)

let test_fused_access_allocates_nothing () =
  let eng = Engine.create ~nthreads:1 () in
  let words = ref 0.0 in
  Engine.spawn eng ~tid:0 (fun ctx ->
      (* warm the caches, then measure the steady-state inline path *)
      Engine.Mem.access ctx ~vpage:0 ~paddr:42 ~kind:Engine.Load;
      let before = Gc.minor_words () in
      for _ = 1 to 10_000 do
        Engine.Mem.access ctx ~vpage:0 ~paddr:42 ~kind:Engine.Load
      done;
      words := Gc.minor_words () -. before);
  Engine.run eng;
  check_bool
    (Printf.sprintf "inline access path allocates nothing (%.0f words)" !words)
    true (!words = 0.0)

(* The inline path must stay allocation-free under a *finite* tenure too:
   thread 1 charges itself far ahead, so thread 0 holds a long bounded
   tenure (non-empty heap) rather than the single-thread unbounded one.
   Only the inline tier is measured — the parked-commit path inherently
   allocates on the *other* threads' side (their suspensions capture
   continuations), which is why the warm-up does two accesses: the second
   one triggers the park/drain dance that establishes the long tenure. *)
let test_finite_tenure_inline_allocates_nothing () =
  let eng = Engine.create ~nthreads:2 () in
  let words = ref 0.0 in
  Engine.spawn eng ~tid:0 (fun ctx ->
      Engine.Mem.access ctx ~vpage:0 ~paddr:42 ~kind:Engine.Load;
      Engine.Mem.access ctx ~vpage:0 ~paddr:42 ~kind:Engine.Load;
      let before = Gc.minor_words () in
      for _ = 1 to 10_000 do
        Engine.Mem.access ctx ~vpage:0 ~paddr:42 ~kind:Engine.Load
      done;
      words := Gc.minor_words () -. before);
  Engine.spawn eng ~tid:1 (fun ctx ->
      Engine.Mem.charge ctx 10_000_000;
      Engine.Mem.access ctx ~vpage:0 ~paddr:7 ~kind:Engine.Load);
  Engine.run eng;
  check_bool
    (Printf.sprintf "finite-tenure inline path allocates nothing (%.0f words)"
       !words)
    true (!words = 0.0)

let test_vmem_hit_path_allocates_nothing () =
  let vm = Vmem.create ~max_pages:64 Geometry.default in
  let eng = Engine.create ~nthreads:1 () in
  let words = ref 0.0 in
  Engine.spawn eng ~tid:0 (fun ctx ->
      let addr = mapped_addr vm ctx in
      Vmem.store vm ctx addr 1;
      ignore (Vmem.load vm ctx addr);
      let before = Gc.minor_words () in
      for _ = 1 to 10_000 do
        ignore (Vmem.load vm ctx addr)
      done;
      words := Gc.minor_words () -. before);
  Engine.run eng;
  check_bool
    (Printf.sprintf "vmem L1-hit load path allocates nothing (%.0f words)"
       !words)
    true (!words = 0.0)

let () =
  Alcotest.run "fused"
    [
      ( "differential",
        [
          Alcotest.test_case "engine: fused = slow path" `Quick
            test_engine_differential;
          Alcotest.test_case "runner: fused = slow path" `Quick
            test_runner_differential;
          Alcotest.test_case "runner: every scheme, 2M cycles, fused = slow"
            `Slow test_runner_differential_all_schemes;
          Alcotest.test_case "runner: imr identical across all three modes"
            `Quick test_imr_tri_modal_identity;
        ] );
      ( "tenure",
        [
          Alcotest.test_case "leader overtaken mid-tenure" `Quick
            test_leader_overtaken_mid_tenure;
          Alcotest.test_case "neutralize breaks a tenure" `Quick
            test_neutralize_breaks_tenure;
          Alcotest.test_case "revoke breaks a tenure" `Quick
            test_revoke_breaks_tenure;
          Alcotest.test_case "reset_clocks mid-tenure" `Quick
            test_reset_clocks_mid_tenure;
          Alcotest.test_case "plan flip mid-tenure (run-ahead rollback)"
            `Quick test_plan_flip_mid_tenure;
          Alcotest.test_case "translation-cache epoch bump mid-tenure" `Quick
            test_tc_epoch_bump_mid_tenure;
          Alcotest.test_case "finite-tenure inline allocates nothing" `Quick
            test_finite_tenure_inline_allocates_nothing;
        ] );
      ( "reset",
        [
          Alcotest.test_case "reset_clocks rebuilds the heap" `Quick
            test_reset_clocks_rebuilds_heap;
          Alcotest.test_case "flush forces refill" `Quick
            test_flush_forces_refill;
          Alcotest.test_case "reset_measurement flushes the cache" `Quick
            test_reset_measurement_flushes_translation_cache;
        ] );
      ( "fast-path",
        [
          Alcotest.test_case "fused access allocates nothing" `Quick
            test_fused_access_allocates_nothing;
          Alcotest.test_case "vmem hit path allocates nothing" `Quick
            test_vmem_hit_path_allocates_nothing;
        ] );
    ]
