(* E14: a Zipfian-key session store under scripted, phase-shifting traffic.

   One system lives through every phase (structures, caches and superblock
   layout carry over — the point is how each reclamation scheme behaves
   when the traffic shape moves under it), with a Timeline recording
   windowed and per-phase behaviour.  Thread slot [threads] is a dedicated
   gauge sampler ([System.observe]): it charges only its sampling
   interval, so under Min_clock its samples interleave deterministically
   with the workload.

   The memory-pressure wave installs a live-frame quota relative to the
   frame count at the phase boundary (so the script is independent of the
   absolute store size) and removes it when the phase ends; allocations
   beyond the quota fault into lrmalloc's pressure-recovery path. *)

open Oamem_engine
open Oamem_core
open Oamem_lockfree
open Oamem_reclaim
open Oamem_lrmalloc
module Vmem = Oamem_vmem.Vmem
module Obs = Oamem_obs
module Timeline = Obs.Timeline
module Profile = Obs.Profile

type phase_spec = {
  pname : string;
  mix : Workload.mix;
  distribution : Workload.distribution;
  horizon : int;
  quota_headroom : int option;
}

let default_phases ~horizon_cycles =
  let part pct = max 1 (horizon_cycles * pct / 100) in
  [
    {
      pname = "steady";
      mix = Workload.mix ~search:90 ~insert:5 ~delete:5;
      distribution = Workload.Zipf 0.8;
      horizon = part 30;
      quota_headroom = None;
    };
    {
      pname = "flash_crowd";
      mix = Workload.mix ~search:98 ~insert:1 ~delete:1;
      distribution = Workload.Zipf 1.2;
      horizon = part 20;
      quota_headroom = None;
    };
    {
      pname = "churn_storm";
      mix = Workload.update_only;
      distribution = Workload.Uniform;
      horizon = part 25;
      quota_headroom = None;
    };
    {
      pname = "pressure_wave";
      mix = Workload.mix ~search:10 ~insert:70 ~delete:20;
      distribution = Workload.Uniform;
      horizon = part 25;
      quota_headroom = Some 16;
    };
  ]

type spec = {
  scheme : string;
  threads : int;
  initial : int;
  window : int;
  sample_interval : int;
  seed : int;
  phases : phase_spec list;
}

let default_spec =
  {
    scheme = "oa-ver";
    threads = 4;
    initial = 2048;
    window = 10_000;
    sample_interval = 2_000;
    seed = 42;
    phases = default_phases ~horizon_cycles:200_000;
  }

type phase_stats = {
  phase : string;
  ops : int;
  p50 : int;
  p99 : int;
  max_cycles : int;
  restarts : int;
  warnings : int;
  neutralized : int;
  frames_released : int;
  peak_unreclaimed : int;
  pressure_recoveries : int;
}

type result = {
  rspec : spec;
  per_phase : phase_stats list;
  overall : phase_stats;
  throughput_mops : float;
  sim_seconds : float;
  host_seconds : float;
  metrics : Obs.Metrics.snapshot;
  timeline : Timeline.t;
  system : System.t;
}

let make_system spec =
  (* two extra engine slots: the gauge sampler and the pressure ballast *)
  let nthreads = spec.threads + 2 in
  let threshold = 64 in
  let pool_nodes = (2 * spec.initial) + max 512 (2 * nthreads * threshold) in
  System.create
    (System.Config.make ~nthreads ~scheme:spec.scheme ~max_pages:(1 lsl 16)
       (* small superblocks: the pressure wave's ballast rounds and the
          recovery's release granularity are a few pages each, so a bound
          quota recovers instead of dying on one 64-page carve *)
       ~alloc_cfg:{ Config.default with Config.sb_pages = 8 }
       ~scheme_cfg:
         {
           Scheme.threshold;
           slots_per_thread = Hm_list.slots_needed;
           pool_nodes;
           node_words = Node.words;
           hazard_padded = false;
           neutralize = true;
         }
       ~timeline:spec.window ())

(* The driver's "scheme.unreclaimed" gauge registers first; SLA views read
   its per-phase maximum by this id. *)
let gauge_unreclaimed = 0

let stats_of_agg ~phase ~pressure agg =
  let lat = Timeline.agg_latency_merged agg Profile.op_frames in
  let p q = match lat with None -> 0 | Some l -> Profile.percentile l q in
  {
    phase;
    ops = (match lat with None -> 0 | Some l -> l.Profile.count);
    p50 = p 0.50;
    p99 = p 0.99;
    max_cycles = (match lat with None -> 0 | Some l -> l.Profile.max_cycles);
    restarts = Timeline.agg_count agg Timeline.Restarts;
    warnings = Timeline.agg_count agg Timeline.Warnings;
    neutralized = Timeline.agg_count agg Timeline.Neutralized;
    frames_released = Timeline.agg_count agg Timeline.Frames_released;
    peak_unreclaimed =
      (match Timeline.agg_gauge agg gauge_unreclaimed with
      | Some (_, gmax) -> gmax
      | None -> 0);
    pressure_recoveries = pressure;
  }

(* Whole-run op latency: bucket-wise merge of the profiler's [op.*] frame
   histograms (the same data the BENCH baselines distil). *)
let merged_op_latency profile =
  let ops =
    List.filter
      (fun (l : Profile.latency) -> List.mem l.Profile.lframe Profile.op_frames)
      (Profile.latencies profile)
  in
  match ops with
  | [] -> None
  | first :: _ ->
      let merge_buckets a b =
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun (le, n) ->
            Hashtbl.replace tbl le
              (n + Option.value (Hashtbl.find_opt tbl le) ~default:0))
          (a @ b);
        Hashtbl.fold (fun le n acc -> (le, n) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      Some
        (List.fold_left
           (fun (acc : Profile.latency) (l : Profile.latency) ->
             {
               acc with
               Profile.count = acc.Profile.count + l.Profile.count;
               sum = acc.Profile.sum + l.Profile.sum;
               max_cycles = max acc.Profile.max_cycles l.Profile.max_cycles;
               buckets = merge_buckets acc.Profile.buckets l.Profile.buckets;
             })
           { first with Profile.count = 0; sum = 0; max_cycles = 0; buckets = [] }
           ops)

let run spec =
  if spec.phases = [] then invalid_arg "Service.run: no phases";
  let sys = make_system spec in
  let eng = System.engine sys in
  let vmem = System.vmem sys in
  let alloc = System.alloc sys in
  let heap = Lrmalloc.heap alloc in
  let sstats = (System.scheme sys).Scheme.stats in
  let tl = System.timeline sys in
  let g_unreclaimed = Timeline.register_gauge tl "scheme.unreclaimed" in
  let g_frames = Timeline.register_gauge tl "vmem.frames_live" in
  assert (g_unreclaimed = gauge_unreclaimed && g_frames = 1);
  let op_base = (Engine.cost_model eng).Cost_model.op_base in
  (* prefill keys depend only on (initial, universe) and are shared by
     every phase workload *)
  let churn_wl =
    Workload.make ~mix:Workload.update_only ~initial:spec.initial ()
  in
  let setup_ctx = Engine.external_ctx () in
  let store = System.hash_set sys setup_ctx ~expected_size:spec.initial in
  Michael_hash.prefill store setup_ctx (Workload.prefill_keys churn_wl);
  (* Warmup churn to a steady-state memory layout, then start measuring. *)
  let warmup_ops = min (3 * spec.initial) 30_000 in
  let quota = ref warmup_ops in
  for tid = 0 to spec.threads - 1 do
    System.spawn sys ~tid (fun ctx ->
        let rng = Prng.create (spec.seed + 17 + (1000 * tid)) in
        let keep_going () =
          if !quota > 0 then begin
            decr quota;
            true
          end
          else false
        in
        while keep_going () do
          Engine.Mem.charge ctx op_base;
          match Workload.next_op churn_wl rng with
          | Workload.Search k -> ignore (Michael_hash.contains store ctx k)
          | Workload.Insert k -> ignore (Michael_hash.insert store ctx k)
          | Workload.Delete k -> ignore (Michael_hash.delete store ctx k)
        done)
  done;
  System.run sys;
  System.reset_measurement sys;
  (* The scripted phases: one spawn generation per phase, cumulative
     horizons (reset_measurement zeroed the clocks; each phase's threads
     run until the shared simulated deadline). *)
  let ops_count = Array.make spec.threads 0 in
  let host_t0 = Unix.gettimeofday () in
  let pressure_per_phase = ref [] in
  let _ =
    List.fold_left
      (fun (k, t_start) ph ->
        let t_end = t_start + ph.horizon in
        Timeline.phase tl ~at:t_start ph.pname;
        let quota_installed =
          match ph.quota_headroom with
          | Some h ->
              Vmem.set_frame_quota vmem (Some (Vmem.frames_live vmem + h));
              true
          | None -> false
        in
        let recoveries0 = (Heap.stats heap).Heap.pressure_recoveries in
        let wl =
          Workload.make ~distribution:ph.distribution ~mix:ph.mix
            ~initial:spec.initial ()
        in
        let under_quota = ph.quota_headroom <> None in
        for tid = 0 to spec.threads - 1 do
          System.spawn sys ~tid (fun ctx ->
              let rng = Prng.create (spec.seed + (1000 * tid) + (7919 * k)) in
              let exec op =
                match op with
                | Workload.Search key ->
                    ignore (Michael_hash.contains store ctx key)
                | Workload.Insert key ->
                    ignore (Michael_hash.insert store ctx key)
                | Workload.Delete key ->
                    ignore (Michael_hash.delete store ctx key)
              in
              while Engine.Mem.now ctx < t_end do
                Engine.Mem.charge ctx op_base;
                let op = Workload.next_op wl rng in
                (* under a quota the request loop carries the allocator's
                   recovery net: a node write that faults past the cap
                   flushes-and-retries the whole (idempotent) operation,
                   like the Pressure experiment's touches *)
                if under_quota then
                  Lrmalloc.with_pressure_recovery alloc ctx (fun () ->
                      exec op)
                else exec op;
                ops_count.(tid) <- ops_count.(tid) + 1
              done)
        done;
        (* The sampler is an observer: it charges only its interval, so the
           unreclaimed/frames curves are a faithful simulated time series. *)
        System.spawn sys ~tid:spec.threads (fun ctx ->
            System.observe ctx ~until:t_end ~interval:spec.sample_interval
              (fun now ->
                Timeline.sample_gauge tl ~at:now g_unreclaimed
                  (Scheme.unreclaimed sstats);
                Timeline.sample_gauge tl ~at:now g_frames
                  (Vmem.frames_live vmem)));
        (* Pressure ballast (quota phases): a co-tenant thread grabbing
           persistent memory in its own size classes, Pressure-experiment
           style — each round carves fresh superblocks and touches every
           block, so frame demand is real no matter how much slack the
           store's own superblocks hold.  Rounds free into the thread cache
           (resident but reclaimable), which is exactly what the recovery
           flush can give back.  The thread parks through non-quota phases
           so its clock tracks simulated time. *)
        System.spawn sys ~tid:(spec.threads + 1) (fun ctx ->
            if ph.quota_headroom <> None then begin
              (* equal 4-page rounds: once the quota binds, the frames a
                 recovery releases from round N's emptied superblocks cover
                 round N+1's demand, so the wave recovers instead of dying *)
              List.iter
                (fun (size, blocks) ->
                  let addrs =
                    List.init blocks (fun _ -> Lrmalloc.palloc alloc ctx size)
                  in
                  List.iter
                    (fun addr ->
                      Lrmalloc.with_pressure_recovery alloc ctx (fun () ->
                          Vmem.store vmem ctx addr (addr lxor 0x5a5a)))
                    addrs;
                  List.iter (Lrmalloc.free alloc ctx) addrs)
                [ (8, 256); (16, 128); (32, 64) ];
              Lrmalloc.with_pressure_recovery alloc ctx (fun () ->
                  Lrmalloc.flush_thread_cache alloc ctx)
            end;
            System.observe ctx ~until:t_end ~interval:spec.sample_interval
              ignore);
        System.run sys;
        if quota_installed then Vmem.set_frame_quota vmem None;
        let recovered =
          (Heap.stats heap).Heap.pressure_recoveries - recoveries0
        in
        pressure_per_phase := (ph.pname, recovered) :: !pressure_per_phase;
        (k + 1, t_end))
      (0, 0) spec.phases
  in
  let host_seconds = Unix.gettimeofday () -. host_t0 in
  (* per-phase pressure deltas, accumulated over re-marked phase names *)
  let pressure_of name =
    List.fold_left
      (fun acc (n, r) -> if String.equal n name then acc + r else acc)
      0 !pressure_per_phase
  in
  let phase_aggs = Timeline.phase_aggs tl in
  let per_phase =
    let seen = Hashtbl.create 8 in
    List.filter_map
      (fun ph ->
        if Hashtbl.mem seen ph.pname then None
        else begin
          Hashtbl.add seen ph.pname ();
          List.assoc_opt ph.pname phase_aggs
          |> Option.map
               (stats_of_agg ~phase:ph.pname ~pressure:(pressure_of ph.pname))
        end)
      spec.phases
  in
  let ops = Array.fold_left ( + ) 0 ops_count in
  let sim_seconds = Engine.elapsed_seconds eng in
  let overall_lat = merged_op_latency (System.profile sys) in
  let p q =
    match overall_lat with None -> 0 | Some l -> Profile.percentile l q
  in
  let snapshot = System.metrics sys in
  let counter name =
    Option.value (Obs.Metrics.find_opt snapshot name) ~default:0
  in
  let overall =
    {
      phase = "overall";
      ops;
      p50 = p 0.50;
      p99 = p 0.99;
      max_cycles =
        (match overall_lat with None -> 0 | Some l -> l.Profile.max_cycles);
      restarts = counter "scheme.restarts";
      warnings = counter "scheme.warnings_fired";
      neutralized = counter "scheme.neutralized";
      frames_released = counter "vmem.frames_released";
      peak_unreclaimed =
        List.fold_left (fun m s -> max m s.peak_unreclaimed) 0 per_phase;
      pressure_recoveries = counter "alloc.pressure_recoveries";
    }
  in
  {
    rspec = spec;
    per_phase;
    overall;
    throughput_mops = float_of_int ops /. sim_seconds /. 1e6;
    sim_seconds;
    host_seconds;
    metrics = snapshot;
    timeline = tl;
    system = sys;
  }

let pp_phase_stats ppf s =
  Format.fprintf ppf
    "%-13s ops=%-8d p50=%-5d p99=%-5d max=%-6d restarts=%-4d warn=%-4d \
     neut=%-4d rel=%-4d peak_unreclaimed=%-5d pressure=%d"
    s.phase s.ops s.p50 s.p99 s.max_cycles s.restarts s.warnings s.neutralized
    s.frames_released s.peak_unreclaimed s.pressure_recoveries
