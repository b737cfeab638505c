(* perfbench: the repository's benchmark, on both clocks.

   One command runs one workload from a single process on one OCaml domain:

     bench.exe --workload list-1t|hash-4t|service|all --seed N --seconds S
               --trace 0|1

   Every cell (one reclamation scheme) is driven from outside the library:
   list-1t and hash-4t by this file's own closed loop over
   Runner.make_system / System.*_set / System.spawn / System.run, following
   Runner.run's prefill -> warmup churn -> System.reset_measurement ->
   measured-window protocol; service by Service.run.  The op streams come
   from the seed.  A pass runs every cell of the workload once; passes
   repeat until S seconds are spent and host times, scaled to a reference
   host speed (see Calib and run_pass), are reported as medians over
   passes.  Simulated results are deterministic per seed, so every
   pass must reproduce the first one's simulated fingerprint exactly.

   --trace 0 prints the end-to-end metrics; --trace 1 adds a traced pass
   and the layer probes and prints the per-layer metrics instead (see
   perfbench/README.md).  The last line of standard output is one JSON
   object; the exit code is 1 when any correctness check failed.

   --self-test runs the gate's positive control and the failure-accounting
   live case and exits 0 only if both behave. *)

open Oamem_engine
open Oamem_core
open Oamem_harness
open Oamem_lockfree
module Vmem = Oamem_vmem.Vmem
module Frames = Oamem_vmem.Frames
module Lrmalloc = Oamem_lrmalloc.Lrmalloc
module Registry = Oamem_reclaim.Registry
module Metrics = Oamem_obs.Metrics
module Profile = Oamem_obs.Profile
module Timeline = Oamem_obs.Timeline
module Trace = Oamem_obs.Trace

(* --- Workloads ---------------------------------------------------------- *)

type closed = {
  structure : Runner.structure;
  initial : int;
  threads : int;
  horizon : int;  (** measured window, simulated cycles *)
  warmup_ops : int;
  hazard_padded : bool;
  mix : Workload.mix;
  distribution : Workload.distribution;
}

type kind = Closed of closed | Service of int  (** horizon, cycles *)

type workload = {
  name : string;
  kind : kind;
  check : closed;
      (** the cell shape whose short prefix the fused-vs-slow check runs *)
}

(* Why each workload (also recorded in perfbench/README.md):
   - list-1t is traversal-bound (about 2,000 simulated steps per op, all
     on the single leader's inline path): cache, TLB, vmem
     translation and per-node read checks do the work; the scheduler,
     lrmalloc and obs do almost none.
   - hash-4t has short ops (about 15 steps) whose leadership changes
     constantly, so scheduler effect round-trips dominate, and every update
     does one malloc or one retire: the scheduler, lrmalloc and
     retire/scan workload.
   - service is the E14 Zipfian session store: read-mostly phases beside
     update-only and insert-heavy ones, a frame quota that drives vmem
     release and lrmalloc pressure recovery, and a timeline that forces
     trace and profile on — the only workload where obs does work. *)
let list_1t =
  let c =
    {
      structure = Runner.List_set;
      initial = 1000;
      threads = 1;
      horizon = 6_000_000;
      warmup_ops = 3000;
      hazard_padded = true;
      mix = Workload.update_only;
      distribution = Workload.Uniform;
    }
  in
  {
    name = "list-1t";
    kind = Closed c;
    check = { c with horizon = 300_000; warmup_ops = 100 };
  }

let hash_4t =
  let c =
    {
      structure = Runner.Hash_set;
      initial = 10_000;
      threads = 4;
      horizon = 2_000_000;
      warmup_ops = 30_000;
      hazard_padded = true;
      mix = Workload.update_only;
      distribution = Workload.Uniform;
    }
  in
  {
    name = "hash-4t";
    kind = Closed c;
    check = { c with horizon = 200_000; warmup_ops = 2000 };
  }

(* 600K cycles: no operation may fail, and nr raises Lrmalloc.Out_of_memory
   on some seeds from 750K cycles (seed 301; 1 of seeds 1-400), on 6 of 92
   seeds tried at 1M and on the default seed from 1.5M.  At 600K nr
   completed on each of 880 seeds tried and every scheme passed the service
   checks on seeds 1-40, while the profiler's contention bookkeeping already
   costs oa/oa-bit/oa-ver/hp several times ebr's host time per op.
   Service.run builds its system internally, so the fused-vs-slow check
   runs a closed-loop prefix of the same shape: the session store's hash
   set, steady-phase mix and skew, unpadded hazard slots. *)
let service =
  {
    name = "service";
    kind = Service 600_000;
    check =
      {
        structure = Runner.Hash_set;
        initial = Service.default_spec.Service.initial;
        threads = Service.default_spec.Service.threads;
        horizon = 200_000;
        warmup_ops = 2000;
        hazard_padded = false;
        mix = Workload.mix ~search:90 ~insert:5 ~delete:5;
        distribution = Workload.Zipf 0.8;
      };
  }

let workloads = [ list_1t; hash_4t; service ]
let schemes = Registry.names

(* --- Host helpers ------------------------------------------------------- *)

let now_ns = Tracer.now_ns
let secs ns = float_of_int ns /. 1e9

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

let geomean = function
  | [] -> 0.
  | xs ->
      if List.exists (fun x -> x <= 0.) xs then 0.
      else
        exp
          (List.fold_left (fun a x -> a +. log x) 0. xs
          /. float_of_int (List.length xs))

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.

(* VmHWM never goes down by itself: writing 5 to clear_refs resets it to
   the current RSS, so that a workload run after another in the same
   process reports its own peak. *)
let reset_peak_rss () =
  let oc = open_out "/proc/self/clear_refs" in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5")

let errors = ref []
let fail msg = errors := msg :: !errors

let check_result ~what = function
  | Ok () -> ()
  | Error e -> fail (what ^ ": " ^ e)

(* Exact nearest-rank percentile of a sorted sample. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* --- Cell results ------------------------------------------------------- *)

type cell = {
  scheme : string;
  ops : int;  (** measured-window ops *)
  create_s : float;
  prefill_s : float;
  warmup_s : float;
  setup_s : float;
  window_s : float;  (** host time of the measured window *)
  mops : float;
  p50 : float;
  p99 : float;
  lat_samples : int;
  peak_frames : int;
  record : Gate.sim_record;
  layers : (string * float * string) list;
      (** name, value, unit; traced passes only *)
  factor : float;  (** host-speed scale applied to the host times (Calib) *)
}

type outcome =
  | Done of cell
  | Raised of { scheme : string; attempted : int; reason : string }

let host_ns_per_op c = c.window_s *. 1e9 /. float_of_int (max 1 c.ops)

(* The failures a cell may raise and the benchmark counts as failed ops
   instead of aborting; any other exception is a bug and ends the run. *)
let counted_failure = function
  | Lrmalloc.Out_of_memory -> Some "Lrmalloc.Out_of_memory"
  | Frames.Out_of_frames -> Some "Frames.Out_of_frames"
  | Vmem.Segfault a -> Some (Printf.sprintf "Vmem.Segfault %d" a)
  | _ -> None

(* --- Layer accounting shared by both drivers ---------------------------- *)

let metric snap name =
  float_of_int (Option.value (Metrics.find_opt snap name) ~default:0)

let ratio a b = if b > 0. then a /. b else 0.

(* Per-layer counters of one finished measured window: the metrics
   snapshot, the engine's step count and cache/TLB stats, and the vmem
   translation cache.  None of these costs host time while the window runs. *)
let counter_layers sys ~ops ~steps ~window_ns =
  let snap = System.metrics sys in
  let eng = System.engine sys and vmem = System.vmem sys in
  let fi = float_of_int in
  let ops_f = fi (max 1 ops) in
  let st = Engine.stats eng in
  let l1 = st.Engine.cache.Hierarchy.l1 and tlb = st.Engine.tlb in
  let restarts = metric snap "scheme.restarts" in
  let per_kop name = 1000. *. metric snap name /. ops_f in
  [
    ("engine.steps_per_op", fi steps /. ops_f, "1/op");
    ("engine.host_ns_per_step", ratio (fi window_ns) (fi steps), "ns");
    ("cache.accesses_per_op", metric snap "engine.accesses" /. ops_f, "1/op");
    ( "cache.l1_miss_ratio",
      ratio (fi l1.Cache.misses) (fi (l1.Cache.hits + l1.Cache.misses)),
      "ratio" );
    ( "cache.l3_misses_per_op",
      metric snap "engine.cache.l3_misses" /. ops_f,
      "1/op" );
    ( "cache.remote_inval_per_op",
      metric snap "engine.cache.remote_invalidations" /. ops_f,
      "1/op" );
    ( "tlb.miss_ratio",
      ratio (fi tlb.Tlb.misses) (fi (tlb.Tlb.hits + tlb.Tlb.misses)),
      "ratio" );
    ( "vmem.tc_hit_ratio",
      (let hits = fi (Vmem.tc_hits vmem) in
       ratio hits (hits +. fi (Vmem.tc_fills vmem))),
      "ratio" );
    ("vmem.minor_faults_per_kop", per_kop "vmem.minor_faults", "1/kop");
    ("vmem.frames_released", metric snap "vmem.frames_released", "count");
    ( "lrmalloc.pressure_recoveries",
      metric snap "alloc.pressure_recoveries",
      "count" );
    ( "lrmalloc.pressure_failures",
      metric snap "alloc.pressure_failures",
      "count" );
    ("reclaim.useful_ratio", ops_f /. (ops_f +. restarts), "ratio");
    ( "reclaim.freed_per_retired",
      ratio (metric snap "scheme.freed") (metric snap "scheme.retired"),
      "ratio" );
    ("reclaim.warnings_per_kop", per_kop "scheme.warnings_fired", "1/kop");
    ("reclaim.cond_fails_per_kop", per_kop "scheme.cond_fails", "1/kop");
  ]

(* Per-layer readings that need the profiler on: simulated self-cycles per
   layer (by the leaf frame's prefix), allocator calls, the contention
   table, and the event trace. *)
let profile_layers sys ~ops =
  let fi = float_of_int in
  let ops_f = fi (max 1 ops) in
  let spans = Profile.spans (System.profile sys) in
  let sum f =
    List.fold_left
      (fun acc (s : Profile.span) ->
        match List.rev s.Profile.path with f0 :: _ -> acc + f f0 s | [] -> acc)
      0 spans
  in
  let self prefixes =
    sum (fun f s ->
        let n = Profile.frame_name f in
        if List.exists (fun prefix -> String.starts_with ~prefix n) prefixes
        then s.Profile.self_cycles
        else 0)
  in
  let hot = Profile.hot_addrs ~top:max_int (System.profile sys) in
  let contention =
    List.fold_left
      (fun acc (h : Profile.hot_addr) ->
        acc + h.Profile.invalidations + h.Profile.cas_failures)
      0 hot
  in
  let trace = System.trace sys in
  [
    ("vmem.sim_cycles_per_op", fi (self [ "vmem." ]) /. ops_f, "cycles/op");
    ( "lrmalloc.calls_per_op",
      fi
        (sum (fun f s ->
             if f = Profile.Alloc_malloc || f = Profile.Alloc_free then
               s.Profile.calls
             else 0))
      /. ops_f,
      "1/op" );
    ( "lrmalloc.sim_cycles_per_op",
      fi (self [ "alloc." ]) /. ops_f,
      "cycles/op" );
    ( "reclaim.sim_cycles_per_op",
      fi (self [ "reclaim." ]) /. ops_f,
      "cycles/op" );
    ( "lockfree.sim_cycles_per_op",
      fi (self [ "op."; "restart"; "neutralized" ]) /. ops_f,
      "cycles/op" );
    ( "obs.trace_events_per_op",
      fi (Trace.recorded trace + Trace.dropped trace) /. ops_f,
      "1/op" );
    ("obs.hot_addrs", fi (List.length hot), "count");
    ("obs.contention_events_per_op", fi contention /. ops_f, "1/op");
  ]

(* --- The closed-loop driver --------------------------------------------- *)

type target = {
  insert : Engine.ctx -> int -> bool;
  delete : Engine.ctx -> int -> bool;
  contains : Engine.ctx -> int -> bool;
  contents : unit -> int list;
  sorted : bool;
}

let build_target sys (wl : closed) workload ctx keys =
  match wl.structure with
  | Runner.List_set ->
      let l = System.list_set sys ctx in
      Hm_list.build_sorted l ctx keys;
      {
        insert = Hm_list.insert l;
        delete = Hm_list.delete l;
        contains = Hm_list.contains l;
        contents = (fun () -> Hm_list.to_list l);
        sorted = true;
      }
  | Runner.Hash_set ->
      let h =
        System.hash_set sys ctx ~expected_size:workload.Workload.initial
      in
      Michael_hash.prefill h ctx keys;
      {
        insert = Michael_hash.insert h;
        delete = Michael_hash.delete h;
        contains = Michael_hash.contains h;
        contents = (fun () -> Michael_hash.to_list h);
        sorted = false;
      }

(* Span bookkeeping of a traced measured window.  Op spans are the calls
   into the structure; lrmalloc spans come from Lrmalloc.set_lifecycle's
   enter/leave (outermost nesting level only) and are children of the op
   their thread is running. *)
type spans = {
  tr : Tracer.t;
  parent : int;
  interleaved : bool;
  cur_op : int array;
  op_child : int array;  (** host ns of lrmalloc spans inside the op *)
  depth : int array;
  lr_id : int array;
  lr_h0 : int array;
  lr_s0 : int array;
}

let lifecycle sp =
  let enter ctx =
    let tid = Engine.Mem.tid ctx in
    if sp.depth.(tid) = 0 then begin
      sp.lr_id.(tid) <- Tracer.fresh_id sp.tr;
      sp.lr_s0.(tid) <- Engine.Mem.now ctx;
      sp.lr_h0.(tid) <- now_ns ()
    end;
    sp.depth.(tid) <- sp.depth.(tid) + 1
  in
  let leave ctx =
    let tid = Engine.Mem.tid ctx in
    sp.depth.(tid) <- sp.depth.(tid) - 1;
    if sp.depth.(tid) = 0 then begin
      let h1 = now_ns () in
      let op = sp.cur_op.(tid) in
      Tracer.record sp.tr ~id:sp.lr_id.(tid) ~name:"lrmalloc"
        ~parent:(if op >= 0 then op else sp.parent)
        ~op ~tid ~interleaved:sp.interleaved ~host_start:sp.lr_h0.(tid)
        ~host_end:h1 ~sim_start:sp.lr_s0.(tid) ~sim_end:(Engine.Mem.now ctx)
        ~child_host:0;
      sp.op_child.(tid) <- sp.op_child.(tid) + (h1 - sp.lr_h0.(tid))
    end
  in
  {
    Lrmalloc.block_alloc = (fun _ ~addr:_ ~words:_ ~persistent:_ -> ());
    block_free = (fun _ ~addr:_ ~words:_ -> ());
    enter;
    leave;
  }

(* One call into the structure, as a span when traced. *)
let call sp ctx ~name f =
  match sp with
  | None -> f ()
  | Some sp ->
      let tid = Engine.Mem.tid ctx in
      let id = Tracer.fresh_id sp.tr in
      sp.cur_op.(tid) <- id;
      sp.op_child.(tid) <- 0;
      let s0 = Engine.Mem.now ctx and h0 = now_ns () in
      let r = f () in
      let h1 = now_ns () in
      Tracer.record sp.tr ~id ~name ~parent:sp.parent ~op:id ~tid
        ~interleaved:sp.interleaved ~host_start:h0 ~host_end:h1 ~sim_start:s0
        ~sim_end:(Engine.Mem.now ctx) ~child_host:sp.op_child.(tid);
      sp.cur_op.(tid) <- -1;
      r

type loop = {
  mutable attempted : int;
  mutable updates : int;
  mutable succeeded : int;
  mutable lats : int array;
  mutable nlat : int;
  mutable lat_hash : int;
  mutable peak_frames : int;
}

let push_lat st v =
  if st.nlat = Array.length st.lats then begin
    let a = Array.make (2 * st.nlat) 0 in
    Array.blit st.lats 0 a 0 st.nlat;
    st.lats <- a
  end;
  st.lats.(st.nlat) <- v;
  st.nlat <- st.nlat + 1;
  st.lat_hash <- (st.lat_hash * 1_000_003) + v

(* One phase of the closed loop: every simulated thread issues its next op
   when the last one returns, until its clock passes [`Cycles] or a shared
   quota of [`Ops] is spent.  Only the measured window ([record]) samples
   latency and frames.  Each cell draws its own op stream from (seed,
   scheme): the structure's size drifts with the stream, and independent
   drifts average out in the workload's geomeans instead of moving every
   cell together. *)
let run_phase sys (wl : closed) workload target oracle st ?spans ~seed ~scheme
    ~phase ~record stop =
  let op_base = (Engine.cost_model (System.engine sys)).Cost_model.op_base in
  let vmem = System.vmem sys in
  let quota = ref (match stop with `Ops n -> n | `Cycles _ -> 0) in
  for tid = 0 to wl.threads - 1 do
    System.spawn sys ~tid (fun ctx ->
        let rng = Prng.create (Hashtbl.hash (seed, scheme, phase, tid)) in
        let continue () =
          match stop with
          | `Cycles h -> Engine.Mem.now ctx < h
          | `Ops _ ->
              !quota > 0
              && begin
                   decr quota;
                   true
                 end
        in
        while continue () do
          Engine.Mem.charge ctx op_base;
          let op = Workload.next_op workload rng in
          st.attempted <- st.attempted + 1;
          let t0 = Engine.Mem.now ctx in
          let update ~insert name f k =
            let ok = call spans ctx ~name (fun () -> f ctx k) in
            Gate.record oracle ~key:k ~insert ~ok;
            st.updates <- st.updates + 1;
            if ok then st.succeeded <- st.succeeded + 1
          in
          (match op with
          | Workload.Search k ->
              ignore
                (call spans ctx ~name:"op.search" (fun () ->
                     target.contains ctx k))
          | Workload.Insert k -> update ~insert:true "op.insert" target.insert k
          | Workload.Delete k ->
              update ~insert:false "op.delete" target.delete k);
          if record then begin
            push_lat st (Engine.Mem.now ctx - t0);
            st.peak_frames <- max st.peak_frames (Vmem.frames_live vmem)
          end
        done)
  done;
  System.run sys

(* A post-window membership sweep on one simulated thread: [contains] on a
   seeded sample of keys must agree with the oracle.  Traced passes time
   these calls: update-only workloads issue no searches in the window. *)
let membership_sweep sys target oracle spans ~seed ~universe =
  let rng = Prng.create (Hashtbl.hash (seed, "sweep")) in
  let keys = List.init (min universe 1024) (fun _ -> Prng.int rng universe) in
  System.spawn sys ~tid:0 (fun ctx ->
      List.iter
        (fun k ->
          let r =
            call (Some spans) ctx ~name:"op.search" (fun () ->
                target.contains ctx k)
          in
          if r <> (oracle.Gate.count.(k) = 1) then
            fail (Printf.sprintf "contains %d returned %b, the oracle not" k r))
        keys);
  System.run sys

(* One cell: create, prefill, warmup, reset, measure; then the oracle
   check.  [fused] = false runs the engine's and vmem's slow paths. *)
let run_closed ?tracer ?(profile = false) ?(fused = true) ~what (wl : closed)
    ~scheme ~seed =
  let workload =
    Workload.make ~distribution:wl.distribution ~mix:wl.mix ~initial:wl.initial ()
  in
  let universe = workload.Workload.universe in
  let keys = Workload.prefill_keys workload in
  let oracle = Gate.oracle ~universe ~initial_keys:keys in
  let st =
    {
      attempted = 0;
      updates = 0;
      succeeded = 0;
      lats = Array.make 4096 0;
      nlat = 0;
      lat_hash = 0;
      peak_frames = 0;
    }
  in
  let span ~name ~parent ~sim f =
    match tracer with
    | None -> f (-1)
    | Some tr -> Tracer.around tr ~name ~parent ~sim f
  in
  let no_sim () = 0 in
  try
    span ~name:("cell." ^ scheme) ~parent:(-1) ~sim:no_sim @@ fun cell_id ->
    let t0 = now_ns () in
    let spec =
      {
        Runner.default_spec with
        Runner.scheme;
        threads = wl.threads;
        structure = wl.structure;
        workload;
        horizon_cycles = wl.horizon;
        sb_pages = 8;
        hazard_padded = wl.hazard_padded;
        seed;
        profile;
      }
    in
    let sys = span ~name:"setup.create" ~parent:cell_id ~sim:no_sim (fun _ ->
        Runner.make_system spec)
    in
    let eng = System.engine sys and vmem = System.vmem sys in
    let sim () = Engine.elapsed eng in
    Engine.set_fused eng fused;
    Engine.set_runahead eng fused;
    Vmem.set_translation_cache vmem fused;
    let t1 = now_ns () in
    let target =
      span ~name:"setup.prefill" ~parent:cell_id ~sim (fun _ ->
          let t = build_target sys wl workload (Engine.external_ctx ()) keys in
          System.reset_measurement sys;
          t)
    in
    let t2 = now_ns () in
    span ~name:"setup.warmup" ~parent:cell_id ~sim (fun _ ->
        run_phase sys wl workload target oracle st ~seed ~scheme ~phase:"warmup"
          ~record:false (`Ops wl.warmup_ops);
        System.reset_measurement sys);
    let t3 = now_ns () in
    st.attempted <- 0;
    st.updates <- 0;
    st.succeeded <- 0;
    let steps0 = Engine.steps eng in
    let spans, vmem_accesses =
      match tracer with
      | None -> (None, ref 0)
      | Some tr ->
          let n = wl.threads in
          let mk () = Array.make n 0 in
          let sp =
            {
              tr;
              parent = cell_id;
              interleaved = n > 1;
              cur_op = Array.make n (-1);
              op_child = mk ();
              depth = mk ();
              lr_id = mk ();
              lr_h0 = mk ();
              lr_s0 = mk ();
            }
          in
          let count = ref 0 in
          Tracer.clear_aggs tr;
          Vmem.set_access_hook vmem (Some (fun _ ~addr:_ ~kind:_ -> incr count));
          Lrmalloc.set_lifecycle (System.alloc sys) (Some (lifecycle sp));
          (Some sp, count)
    in
    span ~name:"measure" ~parent:cell_id ~sim (fun _ ->
        run_phase sys wl workload target oracle st ?spans ~seed ~scheme
          ~phase:"measure" ~record:true (`Cycles wl.horizon));
    let t4 = now_ns () in
    let ops = st.attempted and steps = Engine.steps eng - steps0 in
    Vmem.set_access_hook vmem None;
    Lrmalloc.set_lifecycle (System.alloc sys) None;
    let snap = System.metrics sys in
    let elapsed = Engine.elapsed eng in
    let record =
      [
        ("ops", ops);
        ("updates", st.updates);
        ("succeeded", st.succeeded);
        ("elapsed", elapsed);
        ("steps", steps);
        ("lat_hash", st.lat_hash);
        ("peak_frames", st.peak_frames);
      ]
      @ List.map (fun (n, _, v) -> (n, v)) snap.Metrics.values
    in
    let layers =
      (if profile then profile_layers sys ~ops else [])
      @
      match (tracer, spans) with
      | Some tr, Some sp ->
          let fi = float_of_int in
          let agg name =
            match Tracer.find tr name with
            | Some a -> (a.Tracer.calls, a.Tracer.host_total, a.Tracer.host_self)
            | None -> (0, 0, 0)
          in
          let per_call name =
            let calls, _, self = agg name in
            ratio (fi self) (fi calls)
          in
          let lr_calls, lr_host, _ = agg "lrmalloc" in
          let window =
            counter_layers sys ~ops ~steps ~window_ns:(t4 - t3)
            @ [
                ( "vmem.accesses_per_op",
                  fi !vmem_accesses /. fi (max 1 ops),
                  "1/op" );
                ( "lockfree.update_success_ratio",
                  ratio (fi st.succeeded) (fi st.updates),
                  "ratio" );
                ( "lrmalloc.host_ns_per_call",
                  ratio (fi lr_host) (fi lr_calls),
                  "ns" );
                ("lockfree.insert.host_ns", per_call "op.insert", "ns");
                ("lockfree.delete.host_ns", per_call "op.delete", "ns");
              ]
          in
          (* searches are timed in the sweep, on one simulated thread *)
          let c0, _, s0 = agg "op.search" in
          membership_sweep sys target oracle
            { sp with interleaved = false }
            ~seed ~universe;
          let c1, _, s1 = agg "op.search" in
          window
          @ [
              ( "lockfree.search.host_ns",
                ratio (fi (s1 - s0)) (fi (c1 - c0)),
                "ns" );
            ]
      | _ -> []
    in
    let final = target.contents () in
    check_result ~what:(what ^ " " ^ scheme)
      (Gate.check oracle ~sorted:target.sorted final);
    let lats = Array.sub st.lats 0 st.nlat in
    Array.sort compare lats;
    let cell =
      {
        scheme;
        ops;
        create_s = secs (t1 - t0);
        prefill_s = secs (t2 - t1);
        warmup_s = secs (t3 - t2);
        setup_s = secs (t3 - t0);
        window_s = secs (t4 - t3);
        mops = float_of_int ops /. Engine.elapsed_seconds eng /. 1e6;
        p50 = float_of_int (percentile lats 0.50);
        p99 = float_of_int (percentile lats 0.99);
        lat_samples = Array.length lats;
        peak_frames = st.peak_frames;
        record;
        layers;
        factor = 1.;
      }
    in
    (Done cell, Some (oracle, target.sorted, final))
  with e -> (
    match counted_failure e with
    | Some reason ->
        (Raised { scheme; attempted = max 1 st.attempted; reason }, None)
    | None -> raise e)

(* --- The service driver ------------------------------------------------- *)

let service_spec ~horizon ~scheme ~seed =
  {
    Service.default_spec with
    Service.scheme;
    seed;
    phases = Service.default_phases ~horizon_cycles:horizon;
  }

let run_service ?tracer ~horizon ~scheme ~seed () =
  let go () =
    let t0 = now_ns () in
    let r = Service.run (service_spec ~horizon ~scheme ~seed) in
    (r, now_ns () - t0)
  in
  match
    match tracer with
    | None -> go ()
    | Some tr ->
        Tracer.around tr ~name:("cell." ^ scheme) ~parent:(-1)
          ~sim:(fun () -> 0)
          (fun _ -> go ())
  with
  | exception e -> (
      match counted_failure e with
      (* Service.run returns no op count when it raises: count the one op
         that raised *)
      | Some reason -> Raised { scheme; attempted = 1; reason }
      | None -> raise e)
  | r, total_ns ->
      let sys = r.Service.system in
      let eng = System.engine sys in
      List.iter
        (fun (p : Service.phase_stats) ->
          let phase = p.Service.phase in
          let what = Printf.sprintf "service %s: phase %s" scheme phase in
          if p.Service.ops <= 0 then fail (what ^ " recorded no ops");
          if phase = "pressure_wave" && p.Service.pressure_recoveries < 1 then
            fail (what ^ " recorded no pressure recovery"))
        r.Service.per_phase;
      let tl = r.Service.timeline in
      let frames_gauge =
        let rec index i = function
          | [] -> -1
          | g :: rest -> if g = "vmem.frames_live" then i else index (i + 1) rest
        in
        index 0 (Timeline.gauges tl)
      in
      let peak_frames =
        List.fold_left
          (fun m (_, agg) ->
            match Timeline.agg_gauge agg frames_gauge with
            | Some (_, gmax) -> max m gmax
            | None -> m)
          0 (Timeline.phase_aggs tl)
      in
      let o = r.Service.overall in
      let ops = o.Service.ops in
      let stats_fields (p : Service.phase_stats) =
        let k f = p.Service.phase ^ "." ^ f in
        [
          (k "ops", p.Service.ops);
          (k "p50", p.Service.p50);
          (k "p99", p.Service.p99);
          (k "max", p.Service.max_cycles);
          (k "restarts", p.Service.restarts);
          (k "warnings", p.Service.warnings);
          (k "neutralized", p.Service.neutralized);
          (k "frames_released", p.Service.frames_released);
          (k "peak_unreclaimed", p.Service.peak_unreclaimed);
          (k "pressure", p.Service.pressure_recoveries);
        ]
      in
      let record =
        (("elapsed", Engine.elapsed eng) :: ("peak_frames", peak_frames)
         :: List.concat_map stats_fields (r.Service.per_phase @ [ o ]))
        @ List.map (fun (n, _, v) -> (n, v)) r.Service.metrics.Metrics.values
      in
      let layers =
        match tracer with
        | None -> []
        | Some _ ->
            (* steps cover the whole Service.run (set-up included): the
               engine's step counter is not split at the window *)
            counter_layers sys ~ops ~steps:(Engine.steps eng)
              ~window_ns:total_ns
            @ profile_layers sys ~ops
            (* not observable through Service.run: see README.md *)
            @ [
                ("lrmalloc.host_ns_per_call", 0., "ns");
                ("lockfree.update_success_ratio", 0., "ratio");
                ("lockfree.search.host_ns", 0., "ns");
                ("lockfree.insert.host_ns", 0., "ns");
                ("lockfree.delete.host_ns", 0., "ns");
                ("vmem.accesses_per_op", 0., "1/op");
              ]
      in
      Done
        {
          scheme;
          ops;
          create_s = 0.;
          prefill_s = 0.;
          warmup_s = 0.;
          setup_s = secs total_ns -. r.Service.host_seconds;
          window_s = r.Service.host_seconds;
          mops = r.Service.throughput_mops;
          p50 = float_of_int o.Service.p50;
          p99 =
            float_of_int
              (List.fold_left
                 (fun m (p : Service.phase_stats) -> max m p.Service.p99)
                 0 r.Service.per_phase);
          lat_samples = ops;
          peak_frames;
          record;
          layers;
          factor = 1.;
        }

(* --- Passes ------------------------------------------------------------- *)

type pass = {
  wall_s : float;  (** host time of the pass less its readings, scaled *)
  elapsed_s : float;  (** unscaled, everything included *)
  calib : float list;
      (** host-speed readings, one before each cell and one after the last *)
  outcomes : outcome list;
}

(* Express a cell's host times at the reference host speed. *)
let scale_cell f c =
  {
    c with
    create_s = c.create_s *. f;
    prefill_s = c.prefill_s *. f;
    warmup_s = c.warmup_s *. f;
    setup_s = c.setup_s *. f;
    window_s = c.window_s *. f;
    layers =
      List.map
        (fun (n, v, u) -> (n, (if u = "ns" then v *. f else v), u))
        c.layers;
    factor = f;
  }

(* One pass over every cell.  Each cell starts on a collected heap, so it
   pays for none of the previous cell's garbage and the process's peak RSS
   is one cell's footprint, not an accident of GC timing.  The host's speed
   is read on that collected heap before each cell and after the last, and
   every host time of the pass is scaled by the mean over those readings
   of [reference_ns / reading]: the host's mean speed over the pass
   relative to the reference.  The host switches between a fast and a
   slow state every few seconds; the mean follows the share of the pass
   spent in each, where the median of the readings snaps to one of them
   (scaled by the median, passes spread two to four times as much: see
   README.md). *)
let run_pass ?tracer ?profile wl ~seed =
  let start = now_ns () in
  let readings = ref [] and reading_ns = ref 0 in
  let read () =
    Gc.full_major ();
    let t0 = now_ns () in
    readings := Calib.reading () :: !readings;
    reading_ns := !reading_ns + (now_ns () - t0)
  in
  read ();
  let outcomes =
    List.map
      (fun scheme ->
        let o =
          match wl.kind with
          | Closed c ->
              fst (run_closed ?tracer ?profile ~what:wl.name c ~scheme ~seed)
          | Service horizon -> run_service ?tracer ~horizon ~scheme ~seed ()
        in
        read ();
        o)
      schemes
  in
  let elapsed = now_ns () - start in
  let calib = List.rev !readings in
  let f = mean (List.map (fun r -> Calib.reference_ns /. r) calib) in
  {
    wall_s = secs (elapsed - !reading_ns) *. f;
    elapsed_s = secs elapsed;
    calib;
    outcomes =
      List.map
        (function Done c -> Done (scale_cell f c) | Raised _ as o -> o)
        outcomes;
  }

let done_cells p =
  List.filter_map (function Done c -> Some c | Raised _ -> None) p.outcomes

(* Every pass of one seed must reproduce the reference pass's simulated
   fingerprints exactly (and fail the same cells). *)
let check_same ~what reference p =
  List.iter2
    (fun a b ->
      match (a, b) with
      | Done a, Done b ->
          check_result ~what:(what ^ " " ^ a.scheme)
            (Gate.same ~what a.record b.record)
      | Raised _, Raised _ -> ()
      | _ -> fail (what ^ ": a cell raised in one pass but not the other"))
    reference.outcomes p.outcomes

(* The fused-vs-slow check and, on its passing oracle and fingerprint, the
   gate's positive control.  The scheme rotates with the seed. *)
let fused_check wl ~seed =
  let scheme = List.nth schemes (abs seed mod List.length schemes) in
  let what = wl.name ^ " fused-vs-slow " ^ scheme in
  match
    ( run_closed ~fused:true ~what wl.check ~scheme ~seed,
      run_closed ~fused:false ~what wl.check ~scheme ~seed )
  with
  | (Done a, Some (oracle, sorted, final)), (Done b, _) ->
      check_result ~what (Gate.same ~what a.record b.record);
      check_result ~what (Gate.self_test oracle ~sorted final a.record)
  | _ -> fail (what ^ ": the check's prefix raised")

(* --- Output ------------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let emit ~attempted ~failed metrics =
  let correct = !errors = [] in
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) (List.rev !errors);
  List.iter (fun (n, v, u) -> Printf.printf "%-40s %18.6f %s\n" n v u) metrics;
  Printf.printf "correct=%b attempted=%d failed=%d\n" correct attempted failed;
  let body =
    String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body;
  if not correct then exit 1

let print_cells wl p =
  Printf.printf "== %s: %d cells, pass wall %.3f s (unscaled %.3f s)\n"
    wl.name (List.length p.outcomes) p.wall_s p.elapsed_s;
  Printf.printf "  host-speed readings (ns/iter): %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.1f") p.calib));
  List.iter
    (function
      | Raised r ->
          Printf.printf "  %-7s FAILED (%s): %d ops counted failed\n" r.scheme
            r.reason r.attempted
      | Done c ->
          Printf.printf
            "  %-7s ops=%-7d host=%9.1f ns/op (unscaled %9.1f)  sim=%8.3f \
             Mops/s  p50=%6.0f p99=%7.0f cycles (n=%d)  peak_frames=%d  \
             setup=%.3f s\n"
            c.scheme c.ops (host_ns_per_op c)
            (host_ns_per_op c /. c.factor)
            c.mops c.p50 c.p99 c.lat_samples c.peak_frames c.setup_s)
    p.outcomes

let counts passes =
  List.fold_left
    (fun (att, fl) p ->
      List.fold_left
        (fun (att, fl) -> function
          | Done c -> (att + c.ops, fl)
          | Raised r -> (att + r.attempted, fl + r.attempted))
        (att, fl) p.outcomes)
    (0, 0) passes

(* Median over passes of [f] of one scheme's cell. *)
let cell_median passes scheme f =
  median
    (List.concat_map
       (fun p ->
         List.filter_map
           (fun c -> if c.scheme = scheme then Some (f c) else None)
           (done_cells p))
       passes)

let sum_cells f p = List.fold_left (fun a c -> a +. f c) 0. (done_cells p)

(* The end-to-end host figures; [raw] gives them unscaled, as measured
   (wall_s then is the real elapsed time of a pass). *)
let host_figures passes ~raw =
  let cells = done_cells (List.hd passes) in
  let unscale c v = if raw then v /. c.factor else v in
  [
    ( "host_ns_per_op",
      geomean
        (List.map
           (fun c ->
             cell_median passes c.scheme (fun d ->
                 unscale d (host_ns_per_op d)))
           cells),
      "ns" );
    ( "wall_s",
      median (List.map (fun p -> if raw then p.elapsed_s else p.wall_s) passes),
      "s" );
    ( "setup_s",
      median (List.map (sum_cells (fun c -> unscale c c.setup_s)) passes),
      "s" );
  ]

let calib_median passes = median (List.concat_map (fun p -> p.calib) passes)

let end_to_end passes ~rss =
  let cells = done_cells (List.hd passes) in
  let g f = geomean (List.map f cells) in
  host_figures passes ~raw:false
  @ [
    ("host_peak_rss_mb", rss, "MB");
    ("sim_mops", g (fun c -> c.mops), "Mops/s");
    ("sim_op_p50_cycles", g (fun c -> c.p50), "cycles");
    ("sim_op_p99_cycles", g (fun c -> c.p99), "cycles");
    ("sim_peak_frames", g (fun c -> float_of_int c.peak_frames), "frames");
  ]

(* [spans] is the traced pass with the benchmark's spans and counting
   hooks; [profiled] the closed-loop pass with the profiler on (service
   forces the profiler on in every pass, so its traced pass is both). *)
let per_layer passes ~spans ~profiled probes =
  let untraced_cells = done_cells (List.hd passes) in
  let traced = spans :: Option.to_list profiled in
  let layers_of scheme =
    List.concat_map
      (fun p ->
        List.concat_map
          (fun c -> if c.scheme = scheme then c.layers else [])
          (done_cells p))
      traced
  in
  let tcells = List.map (fun c -> layers_of c.scheme) (done_cells spans) in
  (* How a reading combines over the cells of a workload: counts add up,
     everything else (per-op figures and ratios) is averaged. *)
  let layer (name, _, unit) =
    let value l =
      List.fold_left (fun acc (n, v, _) -> if n = name then v else acc) 0. l
    in
    let vs = List.map value tcells in
    let v = if unit = "count" then List.fold_left ( +. ) 0. vs else mean vs in
    (name, v, unit)
  in
  let setup f = median (List.map (sum_cells f) passes) in
  let window = sum_cells (fun c -> c.window_s) in
  let untraced_window = median (List.map window passes) in
  let cells =
    List.concat_map
      (fun s ->
        let host, mops =
          match List.find_opt (fun c -> c.scheme = s) untraced_cells with
          | Some c -> (cell_median passes s host_ns_per_op, c.mops)
          | None -> (0., 0.)
        in
        [
          ("cell." ^ s ^ ".host_ns_per_op", host, "ns");
          ("cell." ^ s ^ ".sim_mops", mops, "Mops/s");
        ])
      schemes
  in
  (match tcells with l :: _ -> List.map layer l | [] -> [])
  @ [
      ("setup.create_s", setup (fun c -> c.create_s), "s");
      ("setup.prefill_s", setup (fun c -> c.prefill_s), "s");
      ("setup.warmup_s", setup (fun c -> c.warmup_s), "s");
      ("trace.overhead_s", window spans -. untraced_window, "s");
      ("host.calib_ns_per_iter", calib_median passes, "ns");
      ( "host.raw_ns_per_op",
        (match host_figures passes ~raw:true with
        | (_, v, _) :: _ -> v
        | [] -> 0.),
        "ns" );
      ( "obs.profile_overhead_s",
        (match profiled with
        | Some p -> window p -. untraced_window
        | None -> 0.),
        "s" );
    ]
  @ cells
  @ List.map (fun (n, v) -> (n, v, "ns")) probes

(* --- Main --------------------------------------------------------------- *)

(* The first pass runs before anything else the workload does, and the
   peak RSS is read right after it: later passes repeat the same work, and
   how many fit in the time budget must not move the figure; the
   fused-vs-slow check, the probes and the traced passes come after the
   reading, so they are not part of it. *)
let measure wl ~seed ~seconds ~trace =
  let start = now_ns () in
  let first = run_pass wl ~seed in
  let rss = peak_rss_mb () in
  print_cells wl first;
  let rec loop acc last =
    if secs (now_ns () - start) +. last.elapsed_s > seconds then List.rev acc
    else begin
      let p = run_pass wl ~seed in
      check_same ~what:(wl.name ^ " repeat") first p;
      print_cells wl p;
      loop (p :: acc) p
    end
  in
  let passes = loop [ first ] first in
  Printf.printf "unscaled: %s calib_ns_per_iter=%.17g\n"
    (String.concat " "
       (List.map
          (fun (n, v, _) -> Printf.sprintf "%s=%.17g" n v)
          (host_figures passes ~raw:true)))
    (calib_median passes);
  fused_check wl ~seed;
  let attempted, failed = counts passes in
  if not trace then (attempted, failed, end_to_end passes ~rss)
  else begin
    let probes = Probes.all () in
    let tr = Tracer.create () in
    let spans = run_pass ~tracer:tr wl ~seed in
    print_cells wl spans;
    check_same ~what:(wl.name ^ " traced-vs-untraced") first spans;
    let profiled =
      match wl.kind with
      | Service _ -> None
      | Closed _ ->
          let p = run_pass ~profile:true wl ~seed in
          print_cells wl p;
          check_same ~what:(wl.name ^ " profiled-vs-untraced") first p;
          Some p
    in
    let dir = Filename.concat "perfbench" "out" in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    let path = Filename.concat dir (Printf.sprintf "spans-%s.csv" wl.name) in
    Tracer.write tr path;
    Printf.printf "spans written to %s\n" path;
    let attempted, failed =
      counts (passes @ (spans :: Option.to_list profiled))
    in
    (attempted, failed, per_layer passes ~spans ~profiled probes)
  end

(* The benchmark's own test: the gate's positive control on a real cell,
   and failure accounting's live case — service's nr cell at a 2M-cycle
   horizon raises Lrmalloc.Out_of_memory, which must be counted as failed
   ops while the next cell still runs. *)
let self_test () =
  let ok = ref true in
  let expect what b =
    Printf.printf "%s: %s\n%!" (if b then "ok  " else "FAIL") what;
    if not b then ok := false
  in
  (match run_closed ~what:"self-test" list_1t.check ~scheme:"oa-ver" ~seed:1 with
  | Done cell, Some (oracle, sorted, final) ->
      expect "honest cell passes the oracle"
        (Gate.check oracle ~sorted final = Ok ());
      expect
        "positive control trips on a forged op result and a tampered \
         fingerprint"
        (Gate.self_test oracle ~sorted final cell.record = Ok ())
  | _ -> expect "self-test cell completes" false);
  let raised = run_service ~horizon:2_000_000 ~scheme:"nr" ~seed:42 () in
  expect "service nr at 2M cycles raises Out_of_memory and is counted failed"
    (match raised with Raised r -> r.attempted >= 1 | Done _ -> false);
  let next = run_service ~horizon:200_000 ~scheme:"ebr" ~seed:42 () in
  expect "the run continues with the next cell"
    (match next with Done _ -> true | Raised _ -> false);
  let p =
    { wall_s = 0.; elapsed_s = 0.; calib = []; outcomes = [ raised; next ] }
  in
  let att, fl = counts [ p ] in
  expect "failed ops are part of the attempted count" (fl >= 1 && att > fl);
  expect "no correctness check failed" (!errors = []);
  exit (if !ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and self = ref false in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME list-1t | hash-4t | service | all" );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measure for about S seconds");
      ( "--trace",
        Arg.Set_int trace,
        "0|1 end-to-end metrics (0) or traced per-layer metrics (1)" );
      ( "--self-test",
        Arg.Set self,
        " run the gate's positive control and the failure-accounting case" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !self then self_test ();
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  let run wl = measure wl ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
  if !workload = "all" then begin
    (* every workload in turn; metric names gain the workload's prefix *)
    let results =
      List.mapi
        (fun i wl ->
          (if i > 0 then
             try reset_peak_rss ()
             with Sys_error e ->
               fail
                 ("cannot reset the peak RSS between workloads (" ^ e
                ^ "): run one workload per process"));
          let a, f, ms = run wl in
          (a, f, List.map (fun (n, v, u) -> (wl.name ^ "." ^ n, v, u)) ms))
        workloads
    in
    emit
      ~attempted:(List.fold_left (fun acc (a, _, _) -> acc + a) 0 results)
      ~failed:(List.fold_left (fun acc (_, f, _) -> acc + f) 0 results)
      (List.concat_map (fun (_, _, ms) -> ms) results)
  end
  else
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
    | Some wl ->
        let attempted, failed, metrics = run wl in
        emit ~attempted ~failed metrics
