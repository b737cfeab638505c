(* The experiment registry: one entry per table/figure of the paper's
   evaluation (§5) plus the mechanism experiments (§3.2) and our ablations.

   An experiment is data: its independent cells (seeded runs that share
   nothing) and a pure render from the cells' results to a Report.doc —
   tables, ASCII charts of the throughput figures, the paper's expected
   shape stated next to the measured one, and CSV/JSON artifacts for
   external plotting.  Nothing here prints or shards: [run] pools the
   cells of every selected experiment on one set of worker domains, hands
   each render its results in cell order and returns the docs in
   canonical order, so output is byte-identical at any job count. *)

open Oamem_engine
open Oamem_vmem
open Oamem_lrmalloc
open Oamem_reclaim
open Oamem_core
open Oamem_lockfree
(* the allocator's Config is shadowed by the experiment Config builder *)
module Aconfig = Oamem_lrmalloc.Config
module Metrics = Oamem_obs.Metrics
module Export = Oamem_obs.Export
module Json = Oamem_obs.Json

type config = {
  threads : int list;
  horizon_cycles : int;
  fig4_size : int;  (** paper uses 5K list nodes; scaled for runtime *)
  fig6_size : int;  (** paper uses 1M; scaled by default for CI time *)
  schemes : string list;
  seed : int;
  csv_dir : string option;
  trace_out : string option;
  metrics_out : string option;
  sanitize : bool;
}

module Config = struct
  type t = config

  let make ?(threads = [ 1; 2; 4; 8; 16; 32 ]) ?(horizon_cycles = 400_000)
      ?(fig4_size = 1_000) ?(fig6_size = 100_000)
      ?(schemes = Registry.paper_methods) ?(seed = 7) ?csv_dir ?trace_out
      ?metrics_out ?(sanitize = false) () =
    {
      threads;
      horizon_cycles;
      fig4_size;
      fig6_size;
      schemes;
      seed;
      csv_dir;
      trace_out;
      metrics_out;
      sanitize;
    }
end

let default_config = Config.make ()

(* A faster preset for smoke runs. *)
let quick_config =
  Config.make ~threads:[ 1; 4; 16 ] ~horizon_cycles:200_000 ~fig4_size:500
    ~fig6_size:20_000 ()

(* --- cells ------------------------------------------------------------------- *)

(* Independent jobs whose results, in job order, [finish] turns into an
   ['a].  The job result type is hidden so experiments with different cell
   types share one pool. *)
type 'a cells = Cells : (unit -> 'r) list * ('r list -> 'a) -> 'a cells

let grid keys f = Cells (List.map (fun k () -> (k, f k)) keys, Fun.id)
let map f (Cells (jobs, finish)) = Cells (jobs, fun rs -> f (finish rs))

let both (Cells (ja, fa)) (Cells (jb, fb)) =
  Cells
    ( List.map (fun j () -> Either.Left (j ())) ja
      @ List.map (fun j () -> Either.Right (j ())) jb,
      fun rs ->
        ( fa (List.filter_map Either.find_left rs),
          fb (List.filter_map Either.find_right rs) ) )

type t = {
  id : string;
  title : string;
  paper_ref : string;
  expected : string;
  plan : config -> Report.doc cells;
}

(* The driver.  Each experiment's cells write their results into slots of
   a private array (one writer per slot), so its render sees them in cell
   order whatever order the domains finished in.  The last cell to finish
   (counted by an atomic, which publishes the other slots to it) renders
   the doc and drops the results, so only docs outlive their experiment;
   [Pool.map]'s [Domain.join] publishes the docs to the caller. *)
let run ~jobs cfg exps =
  let error ex = Error (Printexc.to_string ex) in
  let stage e =
    let doc = ref (Error "not rendered") in
    let jobs =
      match e.plan cfg with
      | exception ex ->
          doc := error ex;
          []
      | Cells (cells, finish) -> (
          let out = Array.make (List.length cells) (Error "not run") in
          let render () =
            (doc :=
               match
                 Array.find_map
                   (function Error msg -> Some msg | Ok _ -> None)
                   out
               with
               | Some msg -> Error msg
               | None -> (
                   try Ok (finish (List.map Result.get_ok (Array.to_list out)))
                   with ex -> error ex));
            Array.fill out 0 (Array.length out) (Error "rendered")
          in
          match cells with
          | [] ->
              render ();
              []
          | _ ->
              let pending = Atomic.make (Array.length out) in
              List.mapi
                (fun i cell () ->
                  out.(i) <- (try Ok (cell ()) with ex -> error ex);
                  if Atomic.fetch_and_add pending (-1) = 1 then render ())
                cells)
    in
    (jobs, doc)
  in
  let staged = List.map stage exps in
  ignore (Pool.map ~jobs (fun job -> job ()) (List.concat_map fst staged));
  List.map2 (fun e (_, doc) -> (e.id, !doc)) exps staged

(* Doc accumulator: renders emit items in order and return the doc. *)
let doc_of build =
  let items = ref [] in
  let emit it = items := it :: !items in
  build emit;
  List.rev !items

let fmt_mops v = Printf.sprintf "%.3f" v
let max_threads cfg = List.fold_left max 1 cfg.threads

(* --- the figure workloads and the Runner grid -------------------------------- *)

(* One row per throughput figure (E1-E6): every Runner grid below starts
   from one of these workloads. *)
type workload = {
  fig : string;
  structure : Runner.structure;
  initial : int;
  mix : Workload.mix;
  threshold : int;
  horizon_mult : int;  (** of [cfg.horizon_cycles] *)
}

let figure_workloads cfg =
  let w fig structure initial mix threshold horizon_mult =
    { fig; structure; initial; mix; threshold; horizon_mult }
  in
  [
    w "fig4a" Runner.List_set cfg.fig4_size Workload.update_only 16 8;
    w "fig4b" Runner.List_set cfg.fig4_size Workload.balanced 16 8;
    w "fig5a" Runner.Hash_set 10_000 Workload.update_only 64 2;
    w "fig5b" Runner.Hash_set 10_000 Workload.balanced 64 2;
    w "fig6a" Runner.Hash_set cfg.fig6_size Workload.update_only 64 2;
    w "fig6b" Runner.Hash_set cfg.fig6_size Workload.balanced 64 2;
  ]

let figure_workload cfg fig =
  List.find (fun w -> w.fig = fig) (figure_workloads cfg)

(* The mechanism studies' hash workload: fig5a's, over one base horizon. *)
let hash10k cfg = { (figure_workload cfg "fig5a") with horizon_mult = 1 }

let spec cfg w ~scheme ~threads =
  {
    Runner.default_spec with
    Runner.scheme;
    threads;
    structure = w.structure;
    workload = Workload.make ~mix:w.mix ~initial:w.initial ();
    horizon_cycles = w.horizon_mult * cfg.horizon_cycles;
    threshold = w.threshold;
    seed = cfg.seed;
  }

(* One Runner cell per key; with [trials] > 1 a cell reports its median
   trial (lists are noisy at small scale). *)
let runner_grid ?(trials = 1) keys spec_of =
  grid keys (fun k ->
      let s = Runner.run_trials ~trials (spec_of k) in
      List.find
        (fun r -> r.Runner.throughput_mops = s.Runner.median_mops)
        s.Runner.trials)

(* --- throughput figures (Figs. 4, 5, 6) ------------------------------------- *)

let throughput_figure ~id ~title ~paper_ref ~expected ?(trials = 1) () =
  let plan cfg =
    let w = figure_workload cfg id in
    (* the designated run for --trace/--metrics export: the last scheme at
       the highest thread count *)
    let max_threads = max_threads cfg in
    let export_scheme =
      match List.rev cfg.schemes with s :: _ -> s | [] -> ""
    in
    let cells =
      List.concat_map
        (fun scheme -> List.map (fun threads -> (scheme, threads)) cfg.threads)
        cfg.schemes
    in
    runner_grid ~trials cells (fun (scheme, threads) ->
        {
          (spec cfg w ~scheme ~threads) with
          Runner.trace =
            cfg.trace_out <> None && scheme = export_scheme
            && threads = max_threads;
        })
    |> map @@ fun results ->
       doc_of @@ fun emit ->
       emit (Report.section (Printf.sprintf "%s — %s" id title));
       emit (Report.textf "Paper: %s\nExpected shape: %s\n\n" paper_ref expected);
       let at scheme threads = List.assoc (scheme, threads) results in
       let series =
         List.map
           (fun scheme ->
             (scheme, List.map (fun t -> (at scheme t).Runner.throughput_mops) cfg.threads))
           cfg.schemes
       in
       let header = "threads" :: List.map string_of_int cfg.threads in
       let rows =
         List.map (fun (scheme, ys) -> scheme :: List.map fmt_mops ys) series
       in
       emit (Report.table ~header rows);
       emit
         (Report.chart ~title:(Printf.sprintf "%s (%s)" id title)
            ~xlabel:"threads" ~ylabel:"Mops/s" ~xs:cfg.threads series);
       (* reclamation diagnostics at the highest thread count *)
       emit (Report.textf "Diagnostics at %d threads:\n" max_threads);
       emit
         (Report.table
            ~header:
              [ "scheme"; "restarts"; "warnings"; "piggyback"; "phases";
                "frames-peak" ]
            (List.map
               (fun scheme ->
                 let m = (at scheme max_threads).Runner.metrics in
                 [
                   scheme;
                   string_of_int (Metrics.find m "scheme.restarts");
                   string_of_int (Metrics.find m "scheme.warnings_fired");
                   string_of_int (Metrics.find m "scheme.warnings_piggybacked");
                   string_of_int (Metrics.find m "scheme.reclaim_phases");
                   string_of_int (Metrics.find m "vmem.frames_peak");
                 ])
               cfg.schemes));
       emit
         (Report.csv ~filename:(id ^ ".csv")
            ~header:("scheme" :: List.map string_of_int cfg.threads)
            rows);
       match List.assoc_opt (export_scheme, max_threads) results with
       | None -> ()
       | Some r ->
           (match cfg.trace_out with
           | Some path ->
               emit
                 (Report.json_artifact ~in_dir:false ~filename:path
                    (Export.chrome_trace r.Runner.trace));
               emit
                 (Report.textf "Chrome trace (%s, %d threads) -> %s\n"
                    export_scheme max_threads path)
           | None -> ());
           (match cfg.metrics_out with
           | Some path ->
               emit
                 (Report.json_artifact ~in_dir:false ~filename:path
                    (Export.metrics_json r.Runner.metrics
                       ~extra:
                         [
                           ("experiment", Json.String id);
                           ("scheme", Json.String export_scheme);
                           ("threads", Json.Int max_threads);
                           ( "throughput_mops",
                             Json.Float r.Runner.throughput_mops );
                         ]));
               emit
                 (Report.textf "Metrics JSON (%s, %d threads) -> %s\n"
                    export_scheme max_threads path)
           | None -> ())
  in
  { id; title; paper_ref; expected; plan }

let fig4a =
  throughput_figure ~id:"fig4a"
    ~title:"linked list (paper: 5K nodes, scaled), 50%ins/50%del"
    ~paper_ref:"Figure 4a" ~trials:3
    ~expected:
      "OA-VER above OA-BIT (fewer warnings on long chains); OA-BIT/OA-VER \
       beat OA and NR at low thread counts; NR/OA recover at high counts"
    ()

let fig4b =
  throughput_figure ~id:"fig4b"
    ~title:"linked list (paper: 5K nodes, scaled), 50%srch/25/25"
    ~paper_ref:"Figure 4b" ~trials:3
    ~expected:"same ordering as 4a with a smaller OA-VER/OA-BIT gap" ()

let fig5a =
  throughput_figure ~id:"fig5a" ~title:"hash table, 10K nodes, 50%ins/50%del"
    ~paper_ref:"Figure 5a"
    ~expected:
      "OA competitive at 1-2 threads but flattens with threads (shared \
       fixed pool); OA-BIT ~ OA-VER scale"
    ()

let fig5b =
  throughput_figure ~id:"fig5b" ~title:"hash table, 10K nodes, 50%srch/25/25"
    ~paper_ref:"Figure 5b" ~expected:"same shape as 5a" ()

let fig6a =
  throughput_figure ~id:"fig6a" ~title:"hash table, 1M nodes (scaled), 50/50"
    ~paper_ref:"Figure 6a"
    ~expected:"same ordering as 5a at a larger footprint" ()

let fig6b =
  throughput_figure ~id:"fig6b"
    ~title:"hash table, 1M nodes (scaled), 50%srch/25/25"
    ~paper_ref:"Figure 6b" ~expected:"same shape as 6a" ()

(* --- E7: remap strategies make no throughput difference (§5.1) -------------- *)

let remaps =
  [ Aconfig.Keep_resident; Aconfig.Madvise; Aconfig.Shared_map ]

let remap_strategies =
  {
    id = "remap-strategies";
    title = "OA-VER throughput across remap strategies";
    paper_ref = "Section 5.1 (final paragraph)";
    expected =
      "keep / madvise / shared within noise of each other (empties are rare)";
    plan =
      (fun cfg ->
        let keys =
          List.concat_map
            (fun remap -> List.map (fun threads -> (remap, threads)) cfg.threads)
            remaps
        in
        runner_grid keys (fun (remap, threads) ->
            { (spec cfg (hash10k cfg) ~scheme:"oa-ver" ~threads) with Runner.remap })
        |> map @@ fun results ->
           doc_of @@ fun emit ->
           emit (Report.section "remap-strategies — keep vs madvise vs shared");
           let rows =
             List.map
               (fun remap ->
                 Aconfig.remap_strategy_name remap
                 :: List.map
                      (fun threads ->
                        fmt_mops
                          (List.assoc (remap, threads) results)
                            .Runner.throughput_mops)
                      cfg.threads)
               remaps
           in
           let header = "strategy" :: List.map string_of_int cfg.threads in
           emit (Report.table ~header rows);
           emit (Report.csv ~filename:"remap-strategies.csv" ~header rows));
  }

(* --- E8: physical memory release (Fig. 3 mechanics) -------------------------- *)

let memory_release =
  {
    id = "memory-release";
    title = "frames released when a structure is torn down";
    paper_ref = "Section 3.2, Figure 3";
    expected =
      "keep: frames stay resident; madvise: frames drop, RSS drops; shared: \
       frames drop but Linux-style RSS stays inflated";
    plan =
      (fun cfg ->
        grid remaps (fun remap ->
            let sys =
              Runner.make_system
                {
                  (spec cfg (hash10k cfg) ~scheme:"oa-ver" ~threads:2) with
                  Runner.horizon_cycles = 1;
                  remap;
                  sb_pages = 8;
                  threshold = 32;
                }
            in
            let setup = Engine.external_ctx () in
            let h = System.hash_set sys setup ~expected_size:10_000 in
            let keys = List.init 10_000 (fun i -> 2 * i) in
            Michael_hash.prefill h setup keys;
            let peak = Metrics.find (System.metrics sys) "vmem.frames_live" in
            (* delete every key from a simulated thread, then drain *)
            System.run_on_thread0 sys (fun ctx ->
                List.iter (fun k -> ignore (Michael_hash.delete h ctx k)) keys);
            System.drain sys;
            let m = System.metrics sys in
            [
              Aconfig.remap_strategy_name remap;
              string_of_int peak;
              string_of_int (Metrics.find m "vmem.frames_live");
              string_of_int (Metrics.find m "vmem.resident_pages");
              string_of_int (Metrics.find m "vmem.linux_rss_pages");
              string_of_int (Metrics.find m "engine.syscalls");
            ])
        |> map @@ fun results ->
           let rows = List.map snd results in
           [
             Report.section "memory-release — frames and RSS after teardown";
             Report.table
               ~header:
                 [ "strategy"; "frames-peak"; "frames-after"; "resident-pages";
                   "linux-rss-pages"; "syscalls" ]
               rows;
             Report.csv ~filename:"memory-release.csv"
               ~header:
                 [ "strategy"; "frames_peak"; "frames_after"; "resident_pages";
                   "linux_rss_pages"; "syscalls" ]
               rows;
           ]);
  }

(* --- E9: VBR-style DWCAS leak (§3.2 footnote 2) ------------------------------ *)

let dwcas_leak =
  {
    id = "dwcas-leak";
    title = "failed DWCAS on reclaimed memory: madvise leaks, shared does not";
    paper_ref = "Section 3.2, footnote 2";
    expected = "madvise: one frame faulted per touched page; shared: none";
    plan =
      (fun _cfg ->
        grid [ Aconfig.Madvise; Aconfig.Shared_map ] (fun remap ->
            let g = Geometry.default in
            let vm = Vmem.create ~max_pages:65536 g in
            let meta = Cell.heap g in
            let acfg = { Aconfig.default with Aconfig.sb_pages = 8; remap } in
            let alloc =
              Lrmalloc.create ~cfg:acfg ~vmem:vm ~meta ~nthreads:1 ()
            in
            let ctx = Engine.external_ctx () in
            let first = Lrmalloc.palloc alloc ctx 512 in
            let heap = Lrmalloc.heap alloc in
            let d = Heap.lookup_desc heap ctx first |> Option.get in
            let blocks =
              first
              :: List.init
                   (d.Descriptor.max_count - 1)
                   (fun _ -> Lrmalloc.palloc alloc ctx 512)
            in
            List.iter (fun b -> Lrmalloc.free alloc ctx b) blocks;
            Lrmalloc.flush_thread_cache alloc ctx;
            Heap.trim heap ctx;
            Vbr_probe.run vm ctx ~addrs:blocks)
        |> map @@ fun results ->
           [
             Report.section
               "dwcas-leak — VBR tagged DWCAS on released superblocks";
             Report.table
               ~header:
                 [ "strategy"; "dwcas"; "succeeded"; "frames-leaked";
                   "cas-faults" ]
               (List.map
                  (fun (remap, r) ->
                    [
                      Aconfig.remap_strategy_name remap;
                      string_of_int r.Vbr_probe.attempts;
                      string_of_int r.Vbr_probe.succeeded;
                      string_of_int r.Vbr_probe.frames_leaked;
                      string_of_int r.Vbr_probe.cow_cas_faults;
                    ])
                  results);
           ]);
  }

(* --- E10: per-node validation cost micro-benchmark (§2.4) -------------------- *)

let micro_validate =
  let measure scheme_name f =
    let sys =
      System.create (System.Config.make ~nthreads:1 ~scheme:scheme_name ())
    in
    let iters = 2_000 in
    System.run_on_thread0 sys (fun ctx ->
        (* warm-up *)
        f sys ctx 64);
    let sys =
      System.create (System.Config.make ~nthreads:1 ~scheme:scheme_name ())
    in
    let cycles = ref 0 in
    System.run_on_thread0 sys (fun ctx ->
        f sys ctx 64;
        (* warm caches *)
        let t0 = Engine.Mem.now ctx in
        f sys ctx iters;
        cycles := Engine.Mem.now ctx - t0);
    float_of_int !cycles /. float_of_int iters
  in
  let oa_check sys ctx n =
    let sch = System.scheme sys in
    for _ = 1 to n do
      sch.Scheme.read_check ctx
    done
  in
  let hp_protect sys ctx n =
    let sch = System.scheme sys in
    let vm = System.vmem sys in
    let node = sch.Scheme.alloc ctx 2 in
    let loc = sch.Scheme.alloc ctx 2 in
    Vmem.store vm ctx loc node;
    for _ = 1 to n do
      sch.Scheme.traverse_protect ctx ~slot:0 ~addr:node
        ~verify:(fun () -> Vmem.load vm ctx loc = node)
    done
  in
  {
    id = "micro-validate";
    title = "per-node cost: OA warning check vs HP publish+fence+verify";
    paper_ref = "Section 2.4 cost argument";
    expected = "OA read_check cycles well below HP traverse_protect cycles";
    plan =
      (fun _cfg ->
        grid
          [
            ("oa-ver read_check", "oa-ver", oa_check);
            ("oa-bit read_check", "oa-bit", oa_check);
            ("hp traverse_protect", "hp", hp_protect);
          ]
          (fun (_, scheme, f) -> measure scheme f)
        |> map @@ fun results ->
           [
             Report.section "micro-validate — simulated cycles per primitive";
             Report.table ~header:[ "primitive"; "cycles/op" ]
               (List.map
                  (fun ((label, _, _), cycles) -> [ label; fmt_mops cycles ])
                  results);
           ]);
  }

(* --- E11: warnings fired, OA-BIT vs OA-VER (Alg. 2 ablation) ----------------- *)

let warnings_ablation =
  {
    id = "warnings-ablation";
    title = "warning traffic and restarts: OA-BIT vs OA-VER on lists";
    paper_ref = "Section 3.1 / Figure 4a explanation";
    expected =
      "OA-VER fires fewer warnings per reclaim (piggy-backing) and restarts \
       readers less";
    plan =
      (fun cfg ->
        (* mid-range thread count and the list-figure workload: the regime
           where warning frequency drives restart losses *)
        let threads = min 8 (max_threads cfg) in
        runner_grid [ "oa-bit"; "oa-ver" ] (fun scheme ->
            spec cfg (figure_workload cfg "fig4a") ~scheme ~threads)
        |> map @@ fun results ->
           [
             Report.section "warnings-ablation — OA-BIT vs OA-VER";
             Report.table
               ~header:
                 [ "scheme"; "Mops/s"; "warnings"; "piggyback"; "restarts";
                   "phases" ]
               (List.map
                  (fun (scheme, r) ->
                    let m = r.Runner.metrics in
                    [
                      scheme;
                      fmt_mops r.Runner.throughput_mops;
                      string_of_int (Metrics.find m "scheme.warnings_fired");
                      string_of_int
                        (Metrics.find m "scheme.warnings_piggybacked");
                      string_of_int (Metrics.find m "scheme.restarts");
                      string_of_int (Metrics.find m "scheme.reclaim_phases");
                    ])
                  results);
           ]);
  }

(* --- ablations beyond the paper ---------------------------------------------- *)

let limbo_sweep =
  {
    id = "limbo-sweep";
    title = "limbo-list threshold sweep (OA-VER, hash 10K)";
    paper_ref = "design choice in Alg. 1/2 (threshold X)";
    expected = "throughput rises then plateaus; tiny thresholds thrash";
    plan =
      (fun cfg ->
        runner_grid [ 4; 16; 64; 256; 1024 ] (fun threshold ->
            {
              (spec cfg (hash10k cfg) ~scheme:"oa-ver" ~threads:(max_threads cfg))
              with
              Runner.threshold;
            })
        |> map @@ fun results ->
           [
             Report.section "limbo-sweep — reclamation threshold";
             Report.table
               ~header:[ "threshold"; "Mops/s"; "phases"; "frames-peak" ]
               (List.map
                  (fun (threshold, r) ->
                    [
                      string_of_int threshold;
                      fmt_mops r.Runner.throughput_mops;
                      string_of_int
                        (Metrics.find r.Runner.metrics "scheme.reclaim_phases");
                      string_of_int
                        (Metrics.find r.Runner.metrics "vmem.frames_peak");
                    ])
                  results);
           ]);
  }

let padding_ablation =
  {
    id = "padding-ablation";
    title = "hazard-slot cache-line padding on vs off";
    paper_ref = "implementation detail (false sharing)";
    expected = "unpadded slots cost throughput via false sharing";
    plan =
      (fun cfg ->
        runner_grid [ true; false ] (fun hazard_padded ->
            {
              (spec cfg (hash10k cfg) ~scheme:"hp" ~threads:(max_threads cfg))
              with
              Runner.hazard_padded;
            })
        |> map @@ fun results ->
           [
             Report.section "padding-ablation — hazard slot false sharing";
             Report.table ~header:[ "slots"; "Mops/s"; "remote-invalidations" ]
               (List.map
                  (fun (padded, r) ->
                    [
                      (if padded then "padded" else "unpadded");
                      fmt_mops r.Runner.throughput_mops;
                      string_of_int
                        (Metrics.find r.Runner.metrics
                           "engine.cache.remote_invalidations");
                    ])
                  results);
           ]);
  }

let cache_sweep =
  {
    id = "cache-sweep";
    title = "cache-geometry sensitivity (OA-VER vs NR, hash 10K)";
    paper_ref = "locality discussion in §5.2";
    expected =
      "a small L1 amplifies the footprint advantage of reclaiming schemes";
    plan =
      (fun cfg ->
        (* the list is where footprint-vs-L1 matters: OA-VER's compact
           reuse fits the default L1, NR's scattered leak does not *)
        let threads = min 8 (max_threads cfg) in
        let l1 sets =
          Some { Hierarchy.opteron_6274_config with Hierarchy.l1_sets = sets }
        in
        let keys =
          List.concat_map
            (fun geom -> List.map (fun scheme -> (geom, scheme)) [ "oa-ver"; "nr" ])
            [ ("opteron", None); ("small-l1", l1 8); ("big-l1", l1 1024) ]
        in
        runner_grid keys (fun ((_, cache_cfg), scheme) ->
            {
              (spec cfg (figure_workload cfg "fig4a") ~scheme ~threads) with
              Runner.cache_cfg;
            })
        |> map @@ fun results ->
           [
             Report.section "cache-sweep — cache geometry";
             Report.table ~header:[ "cache"; "scheme"; "Mops/s" ]
               (List.map
                  (fun (((name, _), scheme), r) ->
                    [ name; scheme; fmt_mops r.Runner.throughput_mops ])
                  results);
           ]);
  }

(* --- §6 future work: VBR over the extended allocator -------------------------- *)

let vbr_stack =
  {
    id = "vbr-stack";
    title = "VBR stack (immediate free) vs OA-VER stack (limbo + warnings)";
    paper_ref = "Section 6 (future work) + Section 3.2 footnote 2";
    expected =
      "VBR frees every popped node immediately with competitive throughput; \
       memory returns with no drain";
    plan =
      (fun cfg ->
        let nthreads = min 8 (max_threads cfg) in
        let ops_per_thread = 2_000 in
        grid
          [ ("vbr (immediate)", `Vbr); ("oa-ver (limbo)", `Oa) ]
          (fun (_, which) ->
            let sys =
              System.create
                (System.Config.make ~nthreads ~scheme:"oa-ver"
                   ~alloc_cfg:{ Aconfig.default with Aconfig.sb_pages = 8 }
                   ~scheme_cfg:
                     {
                       Scheme.default_config with
                       Scheme.threshold = 64;
                       slots_per_thread = Hm_list.slots_needed;
                     }
                   ())
            in
            let setup = Engine.external_ctx () in
            let push, pop, frees_after =
              match which with
              | `Vbr ->
                  let s = Vbr_stack.create setup ~alloc:(System.alloc sys) in
                  ( Vbr_stack.push s,
                    (fun ctx -> ignore (Vbr_stack.pop s ctx)),
                    fun () -> Vbr_stack.immediate_frees s )
              | `Oa ->
                  let s =
                    Treiber_stack.create setup ~scheme:(System.scheme sys)
                      ~vmem:(System.vmem sys)
                  in
                  ( Treiber_stack.push s,
                    (fun ctx -> ignore (Treiber_stack.pop s ctx)),
                    fun () -> (System.scheme sys).Scheme.stats.Scheme.freed )
            in
            for tid = 0 to nthreads - 1 do
              System.spawn sys ~tid (fun ctx ->
                  let rng = Prng.create (cfg.seed + tid) in
                  for i = 1 to ops_per_thread do
                    if Prng.bool rng then push ctx i else pop ctx
                  done)
            done;
            System.run sys;
            let mops =
              float_of_int (nthreads * ops_per_thread)
              /. Engine.elapsed_seconds (System.engine sys)
              /. 1e6
            in
            [
              fmt_mops mops;
              string_of_int (frees_after ());
              string_of_int (Metrics.find (System.metrics sys) "vmem.frames_live");
            ])
        |> map @@ fun results ->
           [
             Report.section "vbr-stack — the paper's future-work combination";
             Report.table
               ~header:[ "stack"; "Mops/s"; "frees"; "frames-live" ]
               (List.map (fun ((label, _), row) -> label :: row) results);
           ]);
  }

(* --- E13: fault injection and graceful degradation --------------------------- *)

let robustness =
  {
    id = "robustness";
    title =
      "Fault matrix: garbage growth under stalled/crashed threads + \
       frame-pool exhaustion recovery";
    paper_ref = "Section 1 (robustness motivation) + Section 5 (memory release)";
    expected =
      "EBR garbage grows with the healthy threads' work once one thread \
       stalls mid-operation; HP and the OA schemes stay under a constant \
       bound; DEBRA neutralizes the laggard and stays bounded too (and \
       seizes a crashed thread's bags), degenerating to EBR with \
       neutralization off; under a frame quota the releasing remap \
       strategies recover while Keep_resident ends in a typed Out_of_memory";
    plan =
      (fun cfg ->
        let spec =
          {
            Robustness.default_spec with
            Robustness.horizon_cycles = cfg.horizon_cycles;
            sample_interval = max 1 (cfg.horizon_cycles / 40);
            seed = cfg.seed;
            sanitize = cfg.sanitize;
          }
        in
        (* Matrix membership comes from the capability record, not a name
           list: every registered scheme runs except the ones that recycle
           retired blocks in-place (the original OA pools), whose reuse the
           unreclaimed samples cannot attribute. *)
        let schemes =
          List.filter_map
            (fun (e : Registry.entry) ->
              if e.Registry.caps.Scheme.recycles_retired then None
              else Some e.Registry.name)
            Registry.all
        in
        (* The labelled stall rows include the DEBRA ablation with
           neutralization disabled, which must degenerate to EBR's curve. *)
        let labelled =
          List.map (fun scheme -> (scheme, { spec with Robustness.scheme })) schemes
          @ [
              ( "debra (no-neut)",
                { spec with Robustness.scheme = "debra"; neutralize = false } );
            ]
        in
        (* one cell per (label, fault) leg: stalled and control for every
           labelled row, then a crash leg per scheme *)
        let legs =
          List.concat_map
            (fun (label, sp) ->
              [ (label, sp); (label, { sp with Robustness.fault = No_fault }) ])
            labelled
          @ List.map
              (fun scheme ->
                (scheme, { spec with Robustness.scheme; fault = Crash }))
              schemes
        in
        both
          (grid legs (fun (_, sp) -> Robustness.run sp))
          (grid
             [ Aconfig.Madvise; Aconfig.Shared_map; Aconfig.Keep_resident ]
             (fun remap -> Oamem_faults.Pressure.run ~remap ()))
        |> map @@ fun (legs, pressure) ->
           doc_of @@ fun emit ->
           let leg label fault =
             snd
               (List.find
                  (fun ((l, (sp : Robustness.spec)), _) ->
                    l = label && sp.Robustness.fault = fault)
                  legs)
           in
           let pairs =
             List.map
               (fun (label, _) ->
                 (label, (leg label Robustness.Stall, leg label No_fault)))
               labelled
           in
           emit
             (Report.section
                "robustness — stalled-thread garbage growth (stalled vs control)");
           let bound = Robustness.robust_bound spec in
           emit
             (Report.textf
                "Thread 0 stalls at its %d-th yield for longer than the run; %d \
                 healthy workers keep updating a hash set.  Robust bound: %d \
                 nodes.%s\n\n"
                spec.Robustness.stall_at_yield spec.Robustness.workers bound
                (if cfg.sanitize then "  Lifecycle sanitizer: on." else ""));
           let verdict label (s : Robustness.result) (c : Robustness.result) =
             if Registry.mem label && (Registry.caps label).Scheme.leaks_by_design
             then "leaks in both (by design)"
             else if
               s.Robustness.final_unreclaimed > 2 * bound
               && s.Robustness.final_unreclaimed
                  > 2 * max 1 c.Robustness.final_unreclaimed
             then "grows with healthy work"
             else if s.Robustness.max_unreclaimed <= bound then "bounded"
             else if
               s.Robustness.final_unreclaimed
               <= 2 * max 1 c.Robustness.final_unreclaimed
             then "bounded (within 2x control)"
             else "bounded by live-at-stall"
           in
           emit
             (Report.table
                ~header:
                  [
                    "scheme"; "stalled max"; "stalled final"; "control final";
                    "bound"; "neutral."; "verdict";
                  ]
                (List.map
                   (fun (label, (s, c)) ->
                     [
                       label;
                       string_of_int s.Robustness.max_unreclaimed;
                       string_of_int s.Robustness.final_unreclaimed;
                       string_of_int c.Robustness.final_unreclaimed;
                       string_of_int bound;
                       string_of_int s.Robustness.neutralized;
                       verdict label s c;
                     ])
                   pairs));
           (* Garbage-over-time chart for the stalled variant (leak-by-design
              schemes excluded: their monotone leak would flatten every other
              series). *)
           let charted =
             List.filter
               (fun (label, _) ->
                 not
                   (Registry.mem label
                   && (Registry.caps label).Scheme.leaks_by_design))
               pairs
           in
           let series =
             List.map
               (fun (label, ((s : Robustness.result), _)) ->
                 ( label,
                   List.map
                     (fun smp -> float_of_int smp.Robustness.unreclaimed)
                     s.Robustness.samples ))
               charted
           in
           let npoints =
             List.fold_left (fun acc (_, ys) -> min acc (List.length ys))
               max_int series
           in
           let truncate n l = List.filteri (fun i _ -> i < n) l in
           let xs =
             match charted with
             | (_, (s, _)) :: _ ->
                 truncate npoints
                   (List.map
                      (fun smp -> smp.Robustness.at_cycles / 1000)
                      s.Robustness.samples)
             | [] -> []
           in
           emit
             (Report.chart ~title:"unreclaimed nodes over time (stalled thread 0)"
                ~xlabel:"kcycles" ~ylabel:"unreclaimed nodes" ~xs
                (List.map (fun (name, ys) -> (name, truncate npoints ys)) series));
           emit
             (Report.csv ~filename:"robustness.csv"
                ~header:[ "scheme"; "variant"; "at_cycles"; "unreclaimed" ]
                (List.concat_map
                   (fun (label, (s, c)) ->
                     List.concat_map
                       (fun (variant, (r : Robustness.result)) ->
                         List.map
                           (fun smp ->
                             [
                               label; variant;
                               string_of_int smp.Robustness.at_cycles;
                               string_of_int smp.Robustness.unreclaimed;
                             ])
                           r.Robustness.samples)
                       [ ("stalled", s); ("control", c) ])
                   pairs));
           (* Fault matrix: every scheme under {no-fault, stall, crash}.
              Seized vs pinned separates what a dead thread's bag still
              holds from what a live thread already took over. *)
           emit
             (Report.section
                "robustness — fault matrix (no-fault / stall / crash)");
           let matrix =
             List.concat_map
               (fun scheme ->
                 List.map
                   (fun fault -> (scheme, leg scheme fault))
                   [ Robustness.No_fault; Stall; Crash ])
               schemes
           in
           emit
             (Report.table
                ~header:
                  [
                    "scheme"; "fault"; "final unreclaimed"; "final pinned";
                    "seized"; "neutral."; "ops";
                  ]
                (List.map
                   (fun (scheme, (r : Robustness.result)) ->
                     [
                       scheme;
                       Robustness.fault_name r.Robustness.spec.Robustness.fault;
                       string_of_int r.Robustness.final_unreclaimed;
                       string_of_int r.Robustness.final_pinned;
                       string_of_int r.Robustness.seized;
                       string_of_int r.Robustness.neutralized;
                       string_of_int r.Robustness.ops;
                     ])
                   matrix));
           emit
             (Report.csv ~filename:"robustness_matrix.csv"
                ~header:
                  [
                    "scheme"; "fault"; "final_unreclaimed"; "final_pinned";
                    "seized"; "neutralized"; "ops"; "max_unreclaimed";
                  ]
                (List.map
                   (fun (scheme, (r : Robustness.result)) ->
                     [
                       scheme;
                       Robustness.fault_name r.Robustness.spec.Robustness.fault;
                       string_of_int r.Robustness.final_unreclaimed;
                       string_of_int r.Robustness.final_pinned;
                       string_of_int r.Robustness.seized;
                       string_of_int r.Robustness.neutralized;
                       string_of_int r.Robustness.ops;
                       string_of_int r.Robustness.max_unreclaimed;
                     ])
                   matrix));
           (* Per-scheme garbage-curve JSON, one artifact per (scheme, fault)
              leg — the CI fault-matrix artifacts. *)
           List.iter
             (fun (scheme, (r : Robustness.result)) ->
               let fault =
                 Robustness.fault_name r.Robustness.spec.Robustness.fault
               in
               let doc =
                 Json.Obj
                   [
                     ("scheme", Json.String scheme);
                     ("fault", Json.String fault);
                     ( "neutralize",
                       Json.Bool r.Robustness.spec.Robustness.neutralize );
                     ("final_unreclaimed",
                      Json.Int r.Robustness.final_unreclaimed);
                     ("final_pinned", Json.Int r.Robustness.final_pinned);
                     ("seized", Json.Int r.Robustness.seized);
                     ("neutralized", Json.Int r.Robustness.neutralized);
                     ("ops", Json.Int r.Robustness.ops);
                     ( "samples",
                       Json.List
                         (List.map
                            (fun smp ->
                              Json.Obj
                                [
                                  ("at_cycles", Json.Int smp.Robustness.at_cycles);
                                  ( "unreclaimed",
                                    Json.Int smp.Robustness.unreclaimed );
                                ])
                            r.Robustness.samples) );
                   ]
               in
               emit
                 (Report.json_artifact
                    ~filename:(Printf.sprintf "garbage_%s_%s.json" scheme fault)
                    doc))
             matrix;
           emit (Report.section "robustness — frame-pool exhaustion under a quota");
           emit
             (Report.text
                "Persistent-allocation churn under a live-frame quota: recovery \
                 flushes the thread cache and releases empty persistent \
                 superblocks before retrying.\n\n");
           emit
             (Report.table
                ~header:
                  [
                    "remap"; "rounds"; "oom"; "recoveries"; "failures";
                    "sb released"; "frames peak";
                  ]
                (List.map
                   (fun (remap, (r : Oamem_faults.Pressure.result)) ->
                     [
                       Aconfig.remap_strategy_name remap;
                       Printf.sprintf "%d" r.Oamem_faults.Pressure.rounds_completed;
                       (if r.Oamem_faults.Pressure.oom then "yes" else "no");
                       string_of_int r.Oamem_faults.Pressure.recoveries;
                       string_of_int r.Oamem_faults.Pressure.failures;
                       string_of_int r.Oamem_faults.Pressure.sb_remapped;
                       string_of_int r.Oamem_faults.Pressure.frames_peak;
                     ])
                   pressure)));
  }

(* --- E14: phase-scoped service SLA ------------------------------------------ *)

let service =
  {
    id = "service";
    title = "Zipfian service scenario: per-phase SLA across schemes";
    paper_ref = "library extension (E14)";
    expected =
      "Phase-level p99 orderings differ from the whole-run ordering: schemes \
       that win on average lose in specific phases (restart-prone schemes in \
       the flash crowd, quota-pressured ones in the memory wave).";
    plan =
      (fun cfg ->
        (* the scenario's point is the full scheme comparison; an explicit
           -s narrows it, the CLI's default (the paper methods) widens to
           every registered scheme *)
        let schemes =
          if cfg.schemes = Registry.paper_methods then Registry.names
          else cfg.schemes
        in
        let threads = min 8 (max_threads cfg) in
        let initial = max 256 (cfg.fig6_size / 50) in
        let window = max 1_000 (cfg.horizon_cycles / 40) in
        let phases = Service.default_phases ~horizon_cycles:cfg.horizon_cycles in
        grid schemes (fun scheme ->
            Service.run
              {
                Service.scheme;
                threads;
                initial;
                window;
                sample_interval = max 200 (window / 5);
                seed = cfg.seed;
                phases;
              })
        |> map @@ fun results ->
           doc_of @@ fun emit ->
           emit
             (Report.section
                "E14 — Zipfian service scenario: per-phase SLA across schemes");
           emit
             (Report.textf
                "One store (%d keys, %d worker threads) lives through %s; \
                 timeline windows of %d cycles slice per-phase latency and \
                 reclamation behaviour.\n\n"
                initial threads
                (String.concat " -> "
                   (List.map
                      (fun (p : Service.phase_spec) -> p.Service.pname)
                      phases))
                window);
           let row scheme (s : Service.phase_stats) =
             [
               scheme;
               s.Service.phase;
               string_of_int s.Service.ops;
               string_of_int s.Service.p50;
               string_of_int s.Service.p99;
               string_of_int s.Service.max_cycles;
               string_of_int s.Service.restarts;
               string_of_int s.Service.warnings;
               string_of_int s.Service.neutralized;
               string_of_int s.Service.frames_released;
               string_of_int s.Service.peak_unreclaimed;
               string_of_int s.Service.pressure_recoveries;
             ]
           in
           let header =
             [
               "scheme"; "phase"; "ops"; "p50"; "p99"; "max"; "restarts";
               "warnings"; "neutralized"; "released"; "peak unreclaimed";
               "pressure";
             ]
           in
           let sla_rows =
             List.concat_map
               (fun (scheme, (r : Service.result)) ->
                 List.map (row scheme)
                   (r.Service.per_phase @ [ r.Service.overall ]))
               results
           in
           emit (Report.table ~header sla_rows);
           emit
             (Report.table
                ~header:[ "scheme"; "Mops/s"; "ops"; "sim ms" ]
                (List.map
                   (fun (scheme, (r : Service.result)) ->
                     [
                       scheme;
                       fmt_mops r.Service.throughput_mops;
                       string_of_int r.Service.overall.Service.ops;
                       Printf.sprintf "%.2f" (r.Service.sim_seconds *. 1e3);
                     ])
                   results));
           (* The SLA punchline: scheme pairs whose per-phase p99 order
              contradicts their whole-run p99 order. *)
           let p99_in (r : Service.result) name =
             List.find_opt
               (fun s -> String.equal s.Service.phase name)
               r.Service.per_phase
             |> Option.map (fun s -> s.Service.p99)
           in
           let phase_names =
             match results with
             | (_, r) :: _ ->
                 List.map (fun s -> s.Service.phase) r.Service.per_phase
             | [] -> []
           in
           let rec pairs = function
             | [] -> []
             | x :: tl -> List.map (fun y -> (x, y)) tl @ pairs tl
           in
           let inversions =
             List.concat_map
               (fun ((s1, (r1 : Service.result)), (s2, (r2 : Service.result))) ->
                 let o1 = r1.Service.overall.Service.p99
                 and o2 = r2.Service.overall.Service.p99 in
                 if o1 = o2 then []
                 else
                   List.filter_map
                     (fun ph ->
                       match (p99_in r1 ph, p99_in r2 ph) with
                       | Some a, Some b
                         when a <> b && compare a b <> compare o1 o2 ->
                           Some
                             (Printf.sprintf
                                "  %-13s %s p99 %d vs %s %d — whole-run order \
                                 is %d vs %d"
                                ph s1 a s2 b o1 o2)
                       | _ -> None)
                     phase_names)
               (pairs results)
           in
           emit
             (Report.text
                (match inversions with
                | [] ->
                    "No phase-level p99 ordering inversions at this scale.\n\n"
                | inv ->
                    Printf.sprintf
                      "Phase-level p99 orderings that contradict the whole-run \
                       ordering (%d):\n%s\n\n"
                      (List.length inv)
                      (String.concat "\n" inv)));
           emit (Report.csv ~filename:"service_sla.csv" ~header sla_rows);
           List.iter
             (fun (scheme, (r : Service.result)) ->
               emit
                 (Report.json_artifact
                    ~filename:(Printf.sprintf "timeline_%s.json" scheme)
                    (Export.timeline_json r.Service.timeline));
               let theader, trows = Export.timeline_csv r.Service.timeline in
               emit
                 (Report.csv
                    ~filename:(Printf.sprintf "timeline_%s.csv" scheme)
                    ~header:theader trows))
             results);
  }

(* --- E15: conditional-access immediate reclamation --------------------------- *)

let immediate =
  {
    id = "immediate";
    title =
      "IMR (conditional-access immediate reclamation) vs OA-BIT / OA-VER \
       across the figure workloads";
    paper_ref = "Section 6 (hardware-supported variants) — E15 extension";
    expected =
      "IMR stays within the OA envelope on every figure workload while \
       freeing each retired node immediately (unreclaimed ~0, no limbo \
       drain); its costs are one revocation broadcast per victim per retire \
       and the conditional-access failures that surface as restarts";
    plan =
      (fun cfg ->
        let threads = min 8 (max_threads cfg) in
        (* the six figure workloads (E1-E6), one cell per (figure, scheme) *)
        let cells =
          List.concat_map
            (fun w -> List.map (fun scheme -> (w, scheme)) [ "oa-bit"; "oa-ver"; "imr" ])
            (figure_workloads cfg)
        in
        runner_grid cells (fun (w, scheme) -> spec cfg w ~scheme ~threads)
        |> map @@ fun results ->
           doc_of @@ fun emit ->
           emit
             (Report.section
                "E15 — immediate reclamation under simulated conditional access");
           (* The simulated-hardware cost assumptions, side by side: what the
              coherence directory charges for each primitive the compared
              schemes lean on.  Printed from the model the cells run under, so
              the table cannot drift from the measurement. *)
           let cm = Cost_model.opteron_6274 in
           emit
             (Report.table
                ~header:[ "cost-model parameter"; "cycles"; "charged when" ]
                [
                  [
                    "l1_hit";
                    string_of_int cm.Cost_model.l1_hit;
                    "every access, incl. the OA warning check";
                  ];
                  [
                    "fence_full";
                    string_of_int cm.Cost_model.fence_full;
                    "IMR validate and retire; OA reclaim-phase fences";
                  ];
                  [
                    "invalidation";
                    string_of_int cm.Cost_model.invalidation;
                    "remote store to a cached line (flag lines included)";
                  ];
                  [
                    "cond_access_extra";
                    string_of_int cm.Cost_model.cond_access_extra;
                    "each conditional access: directory check beyond the \
                     flag-line load";
                  ];
                  [
                    "revoke_broadcast";
                    string_of_int cm.Cost_model.revoke_broadcast;
                    "each IMR retire: one revocation post per victim thread";
                  ];
                  [
                    "neutralize_post";
                    string_of_int cm.Cost_model.neutralize_post;
                    "DEBRA-style signal post (software baseline for the same \
                     job)";
                  ];
                ]);
           let header =
             [
               "figure"; "scheme"; "Mops/s"; "restarts"; "cond-fails"; "freed";
               "retired-freed";
             ]
           in
           let rows =
             List.map
               (fun ((w, scheme), r) ->
                 let m = r.Runner.metrics in
                 let retired = Metrics.find m "scheme.retired"
                 and freed = Metrics.find m "scheme.freed" in
                 [
                   w.fig;
                   scheme;
                   fmt_mops r.Runner.throughput_mops;
                   string_of_int (Metrics.find m "scheme.restarts");
                   string_of_int (Metrics.find m "scheme.cond_fails");
                   string_of_int freed;
                   string_of_int (retired - freed);
                 ])
               results
           in
           emit (Report.table ~header rows);
           (* The punchline, per figure: how much throughput the
              immediate-free property costs against each hazard-pointer OA
              flavour. *)
           let ratio w a b =
             let mops scheme =
               (List.assoc (w, scheme) results).Runner.throughput_mops
             in
             let a = mops a and b = mops b in
             if b > 0. then Printf.sprintf "%.2f" (a /. b) else "-"
           in
           emit
             (Report.table
                ~header:[ "figure"; "imr / oa-bit"; "imr / oa-ver" ]
                (List.map
                   (fun w -> [ w.fig; ratio w "imr" "oa-bit"; ratio w "imr" "oa-ver" ])
                   (figure_workloads cfg)));
           emit (Report.csv ~filename:"immediate.csv" ~header rows));
  }

let all =
  [
    fig4a;
    fig4b;
    fig5a;
    fig5b;
    fig6a;
    fig6b;
    remap_strategies;
    memory_release;
    dwcas_leak;
    micro_validate;
    warnings_ablation;
    limbo_sweep;
    padding_ablation;
    cache_sweep;
    vbr_stack;
    robustness;
    service;
    immediate;
  ]

let find id =
  match List.find_opt (fun e -> e.id = id) all with
  | Some e -> e
  | None ->
      invalid_arg
        (Printf.sprintf "unknown experiment %S (known: %s)" id
           (String.concat ", " (List.map (fun e -> e.id) all)))
