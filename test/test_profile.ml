(* Tests for the cycle-attribution profiler: exact percentile math on known
   inputs, reconciliation of the profile's cycle total against the engine's
   thread clocks, deterministic (byte-identical) export for a fixed seed,
   exporter round-trips, measurement reset, the allocation-free disabled
   path, and the perf-regression gate (library verdicts and the binary's
   exit code on a synthetically regressed baseline). *)

open Oamem_engine
open Oamem_core
open Oamem_lockfree
open Oamem_reclaim
open Oamem_harness
module Profile = Oamem_obs.Profile
module Json = Oamem_obs.Json
module Export = Oamem_obs.Export

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- percentiles on known inputs ------------------------------------------ *)

let observe_duration p d =
  Profile.enter p ~tid:0 ~now:0 Profile.Op_insert;
  Profile.leave p ~tid:0 ~now:d

let the_latency p =
  match Profile.latencies p with
  | [ l ] -> l
  | ls -> Alcotest.failf "expected one latency entry, got %d" (List.length ls)

let test_percentile_uniform () =
  let p = Profile.create ~nthreads:1 () in
  Profile.set_enabled p true;
  for _ = 1 to 100 do
    observe_duration p 7
  done;
  let l = the_latency p in
  check_int "count" 100 l.Profile.count;
  check_int "sum" 700 l.Profile.sum;
  check_int "max" 7 l.Profile.max_cycles;
  (* a constant stream satisfies sum = count * max, which percentile
     recognises as "one distinct value": every percentile is exactly 7
     rather than an interpolated point inside the (3, 7] bucket *)
  check_int "p50" 7 (Profile.percentile l 0.50);
  check_int "p99" 7 (Profile.percentile l 0.99);
  check_int "p100" 7 (Profile.percentile l 1.0)

let test_percentile_outlier () =
  let p = Profile.create ~nthreads:1 () in
  Profile.set_enabled p true;
  for _ = 1 to 99 do
    observe_duration p 1
  done;
  observe_duration p 1000;
  let l = the_latency p in
  (* ranks 1..99 land in the le=1 bucket; only rank 100 reaches the
     outlier, whose bucket bound (1023) is clamped to the exact max *)
  check_int "p50 ignores outlier" 1 (Profile.percentile l 0.50);
  check_int "p99 ignores outlier" 1 (Profile.percentile l 0.99);
  check_int "p100 is exact max" 1000 (Profile.percentile l 1.0);
  check_int "max" 1000 l.Profile.max_cycles

let test_percentile_buckets () =
  let p = Profile.create ~nthreads:1 () in
  Profile.set_enabled p true;
  List.iter (observe_duration p) [ 0; 1; 2; 3 ];
  let l = the_latency p in
  check_bool "log2 buckets" true
    (l.Profile.buckets = [ (0, 1); (1, 1); (3, 2) ]);
  check_int "p25 -> le 0" 0 (Profile.percentile l 0.25);
  check_int "p50 -> le 1" 1 (Profile.percentile l 0.50);
  (* rank 3 falls on the (1, 3] bucket's first of two observations:
     interpolation gives lo + (hi - lo) * 1/2 = 2 — the exact order
     statistic, where pre-interpolation snapping said 3 *)
  check_int "p75 interpolates to 2" 2 (Profile.percentile l 0.75);
  check_int "empty percentile" 0
    (Profile.percentile
       {
         Profile.lframe = Profile.Op_insert;
         count = 0;
         sum = 0;
         max_cycles = 0;
         buckets = [];
       }
       0.5)

let test_percentile_interpolation () =
  (* 100 observations spread 0..99: interpolation recovers the exact order
     statistic at every rank here (ranks distribute evenly inside each
     bucket), where snapping to bucket upper bounds answered 63/127 *)
  let p = Profile.create ~nthreads:1 () in
  Profile.set_enabled p true;
  for v = 0 to 99 do
    observe_duration p v
  done;
  let l = the_latency p in
  check_int "p50" 49 (Profile.percentile l 0.50);
  check_int "p75" 74 (Profile.percentile l 0.75);
  check_int "p99" 98 (Profile.percentile l 0.99);
  check_int "p100 is exact max" 99 (Profile.percentile l 1.0)

let test_percentile_single_observation_bucket () =
  (* one observation per bucket: rank_in = n = 1, so interpolation lands on
     the bucket's clamped upper bound — exactly the pre-interpolation
     answer (the snapping path is a regression-pinned special case) *)
  let p = Profile.create ~nthreads:1 () in
  Profile.set_enabled p true;
  List.iter (observe_duration p) [ 4; 1000 ];
  let l = the_latency p in
  check_int "p50 snaps to bucket bound" 7 (Profile.percentile l 0.50);
  check_int "p100 clamps to exact max" 1000 (Profile.percentile l 1.0)

(* --- a real run: reconciliation and determinism --------------------------- *)

let mk ?(nthreads = 4) scheme =
  System.create
    (System.Config.make ~nthreads ~scheme
       ~max_pages:(1 lsl 16)
       ~scheme_cfg:
         {
           Scheme.default_config with
           Scheme.threshold = 8;
           slots_per_thread = Hm_list.slots_needed;
         }
       ~profile:true ())

let churn ?(nthreads = 4) sys =
  let set = ref None in
  System.run_on_thread0 sys (fun ctx ->
      let s = System.list_set sys ctx in
      for k = 0 to 31 do
        ignore (Hm_list.insert s ctx k)
      done;
      set := Some s);
  let s = Option.get !set in
  for tid = 0 to nthreads - 1 do
    System.spawn sys ~tid (fun ctx ->
        for k = 0 to 63 do
          ignore (Hm_list.delete s ctx ((16 * tid) + (k mod 16)));
          ignore (Hm_list.insert s ctx ((16 * tid) + (k mod 16)))
        done)
  done;
  System.run sys

let test_total_reconciles_with_clocks () =
  let sys = mk "oa-ver" in
  churn sys;
  let p = System.profile sys in
  let eng = System.engine sys in
  let clocks = ref 0 in
  for tid = 0 to System.nthreads sys - 1 do
    clocks := !clocks + Engine.clock eng ~tid
  done;
  (* every cycle added to a thread clock flows through the profiler's
     charge path, so the attributed+unattributed total is exactly the sum
     of the thread clocks *)
  check_int "total = sum of thread clocks" !clocks (Profile.total_cycles p);
  check_bool "something attributed" true
    (Profile.total_cycles p > Profile.unattributed_cycles p);
  let spans = Profile.spans p in
  check_bool "op spans present" true
    (List.exists
       (fun (s : Profile.span) -> s.Profile.path = [ Profile.Op_insert ])
       spans);
  List.iter
    (fun (s : Profile.span) ->
      check_bool "self <= total" true
        (s.Profile.self_cycles <= s.Profile.total_cycles))
    spans

let small_spec scheme =
  {
    Runner.default_spec with
    Runner.scheme;
    threads = 2;
    structure = Runner.Hash_set;
    workload = Workload.make ~mix:Workload.update_only ~initial:200 ();
    horizon_cycles = 5_000;
    profile = true;
  }

let test_same_seed_byte_identical () =
  let export () =
    let r = Runner.run (small_spec "oa-ver") in
    Json.to_string (Export.profile_json r.Runner.profile)
  in
  let a = export () and b = export () in
  check_bool "profile recorded" true (String.length a > 2);
  check_string "byte-identical across runs" a b

(* --- export round-trips ---------------------------------------------------- *)

let test_profile_json_roundtrip () =
  let r = Runner.run (small_spec "oa-ver") in
  let p = r.Runner.profile in
  let doc = Json.parse (Json.to_string (Export.profile_json p)) in
  check_int "total round-trips"
    (Profile.total_cycles p)
    Json.(to_int (member "total_cycles" doc));
  check_int "unattributed round-trips"
    (Profile.unattributed_cycles p)
    Json.(to_int (member "unattributed_cycles" doc));
  let spans = Json.(to_list (member "spans" doc)) in
  check_int "span count round-trips" (List.length (Profile.spans p))
    (List.length spans);
  (* the document's span totals must re-sum: self of every span plus the
     unattributed remainder is the run's cycle total *)
  let self_sum =
    List.fold_left
      (fun acc s -> acc + Json.(to_int (member "self_cycles" s)))
      0 spans
  in
  check_int "selves + unattributed = total"
    (Profile.total_cycles p)
    (self_sum + Json.(to_int (member "unattributed_cycles" doc)));
  List.iter
    (fun l ->
      check_bool "p50 <= p99" true
        Json.(to_int (member "p50" l) <= to_int (member "p99" l));
      check_bool "p99 <= max" true
        Json.(to_int (member "p99" l) <= to_int (member "max" l)))
    Json.(to_list (member "latencies" doc))

let test_collapsed_stacks_parse_back () =
  let r = Runner.run (small_spec "oa-ver") in
  let p = r.Runner.profile in
  let folded = Export.collapsed_stacks p in
  let lines = String.split_on_char '\n' folded in
  check_bool "has lines" true (lines <> []);
  let parsed =
    List.map
      (fun line ->
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "unparseable folded line: %S" line
        | Some i ->
            ( String.sub line 0 i,
              int_of_string
                (String.sub line (i + 1) (String.length line - i - 1)) ))
      lines
  in
  (* folded lines carry every span's self cycles (plus the unattributed
     pseudo-frame), so their sum reconstructs the cycle total exactly *)
  check_int "folded cycles re-sum to total"
    (Profile.total_cycles p)
    (List.fold_left (fun acc (_, c) -> acc + c) 0 parsed);
  check_bool "op frames present" true
    (List.exists
       (fun (path, _) -> String.length path >= 3 && String.sub path 0 3 = "op.")
       parsed);
  List.iter
    (fun (_, c) -> check_bool "cycles positive" true (c > 0))
    parsed

(* --- contention owner attribution --------------------------------------------- *)

(* One address charged once by frame B, then twice by frame A: A is the
   dominant owner.  Charging B first makes the order matter — an owner list
   that keyed entries by the physical identity of a freshly allocated
   [Some node] held three one-count entries and reported B. *)
let test_hot_addr_owner_attribution () =
  let p = Profile.create ~nthreads:2 () in
  Profile.set_enabled p true;
  Profile.enter p ~tid:0 ~now:0 Profile.Op_insert;
  Profile.enter p ~tid:1 ~now:0 Profile.Op_delete;
  Profile.note_invalidation p ~tid:1 ~addr:64;
  Profile.note_invalidation p ~tid:0 ~addr:64;
  Profile.note_cas_failure p ~tid:0 ~addr:64;
  match Profile.hot_addrs p with
  | [ h ] ->
      check_int "invalidations" 2 h.Profile.invalidations;
      check_int "cas failures" 1 h.Profile.cas_failures;
      Alcotest.(check (list string))
        "owner is the frame charged twice" [ "op.insert" ]
        (List.map Profile.frame_name h.Profile.owner)
  | hs -> Alcotest.failf "expected one hot address, got %d" (List.length hs)

(* --- reset and the disabled path ------------------------------------------- *)

let test_reset_measurement_clears_profiler () =
  let sys = mk "ebr" in
  churn sys;
  let p = System.profile sys in
  check_bool "profile recorded" true (Profile.total_cycles p > 0);
  System.reset_measurement sys;
  check_int "total cleared" 0 (Profile.total_cycles p);
  check_int "spans cleared" 0 (List.length (Profile.spans p));
  check_int "latencies cleared" 0 (List.length (Profile.latencies p));
  check_int "hot addrs cleared" 0 (List.length (Profile.hot_addrs p));
  check_bool "still enabled after reset" true (Profile.enabled p)

let test_disabled_profiler_allocates_nothing () =
  let p = Profile.create ~nthreads:1 () in
  let probe () =
    if Profile.enabled p then begin
      Profile.enter p ~tid:0 ~now:0 Profile.Op_insert;
      Profile.charge p ~tid:0 3;
      Profile.leave p ~tid:0 ~now:5
    end
  in
  probe ();
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    probe ()
  done;
  let allocated = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "no allocation when disabled (%.0f words)" allocated)
    true (allocated = 0.0)

(* --- the perf-regression gate ---------------------------------------------- *)

let bench_doc ~throughput ~p99 =
  Json.Obj
    [
      ("experiment", Json.String "E1");
      ( "results",
        Json.List
          [
            Json.Obj
              [
                ("scheme", Json.String "oa-ver");
                ("threads", Json.Int 1);
                ("throughput_mops", Json.Float throughput);
                ( "profile",
                  Json.Obj
                    [
                      ( "latencies",
                        Json.List
                          [
                            Json.Obj
                              [
                                ("frame", Json.String "op.insert");
                                ("p99", Json.Int p99);
                              ];
                            Json.Obj
                              [
                                (* non-op frames must not be gated *)
                                ("frame", Json.String "alloc.malloc");
                                ("p99", Json.Int (10 * p99));
                              ];
                          ] );
                    ] );
              ];
          ] );
    ]

let test_perfgate_verdicts () =
  let baseline = bench_doc ~throughput:10.0 ~p99:100 in
  let same =
    Perfgate.compare_results ~baseline ~current:(bench_doc ~throughput:10.0 ~p99:100) ()
  in
  check_bool "identical run passes" false (Perfgate.failed same);
  check_int "throughput + one op p99 check" 2 (List.length same);
  let slow =
    Perfgate.compare_results ~baseline
      ~current:(bench_doc ~throughput:8.0 ~p99:100)
      ()
  in
  check_bool "20% throughput drop fails" true (Perfgate.failed slow);
  let lat =
    Perfgate.compare_results ~baseline
      ~current:(bench_doc ~throughput:10.0 ~p99:200)
      ()
  in
  check_bool "2x p99 fails" true (Perfgate.failed lat);
  check_bool "the p99 verdict is the regressed one" true
    (List.exists
       (fun v -> v.Perfgate.regressed && v.Perfgate.metric = "p99:op.insert")
       lat);
  let within =
    Perfgate.compare_results ~baseline
      ~current:(bench_doc ~throughput:9.5 ~p99:110)
      ()
  in
  check_bool "small drift passes" false (Perfgate.failed within);
  let missing =
    Perfgate.compare_results ~baseline
      ~current:(Json.Obj [ ("results", Json.List []) ])
      ()
  in
  check_bool "vanished config fails" true (Perfgate.failed missing);
  check_bool "as a missing verdict" true
    (List.exists (fun v -> v.Perfgate.metric = "missing") missing)

let test_perfgate_tolerates_profileless_baseline () =
  let old_baseline =
    Json.Obj
      [
        ( "results",
          Json.List
            [
              Json.Obj
                [
                  ("scheme", Json.String "oa-ver");
                  ("threads", Json.Int 1);
                  ("throughput_mops", Json.Float 10.0);
                ];
            ] );
      ]
  in
  let verdicts =
    Perfgate.compare_results ~baseline:old_baseline
      ~current:(bench_doc ~throughput:10.0 ~p99:100)
      ()
  in
  check_bool "throughput-only gating" false (Perfgate.failed verdicts);
  check_int "no p99 checks without a baseline profile" 1
    (List.length verdicts)

(* The binary itself: regressed baseline => exit 1, --warn-only => exit 0.
   Tests run in _build/default/test, the gate builds next door. *)
let perfgate_exe = Filename.concat ".." (Filename.concat "bin" "perfgate.exe")

let test_perfgate_binary_exit_code () =
  if not (Sys.file_exists perfgate_exe) then
    Alcotest.skip ()
  else begin
    let dump name doc =
      let path = Filename.temp_file name ".json" in
      let oc = open_out path in
      output_string oc (Json.to_string doc);
      output_char oc '\n';
      close_out oc;
      path
    in
    let base = dump "pg-base" (bench_doc ~throughput:10.0 ~p99:100) in
    let bad = dump "pg-bad" (bench_doc ~throughput:5.0 ~p99:100) in
    let run args =
      Sys.command
        (Filename.quote_command perfgate_exe args ~stdout:Filename.null)
    in
    check_int "regressed baseline exits non-zero" 1 (run [ base; bad ]);
    check_int "warn-only exits zero" 0 (run [ base; bad; "--warn-only" ]);
    check_int "clean comparison exits zero" 0 (run [ base; base ]);
    Sys.remove base;
    Sys.remove bad
  end

let () =
  Alcotest.run "profile"
    [
      ( "percentiles",
        [
          Alcotest.test_case "uniform stream is exact" `Quick
            test_percentile_uniform;
          Alcotest.test_case "outlier only moves the max" `Quick
            test_percentile_outlier;
          Alcotest.test_case "log2 bucket boundaries" `Quick
            test_percentile_buckets;
          Alcotest.test_case "interpolation inside wide buckets" `Quick
            test_percentile_interpolation;
          Alcotest.test_case "single-observation buckets snap" `Quick
            test_percentile_single_observation_bucket;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "total reconciles with thread clocks" `Quick
            test_total_reconciles_with_clocks;
          Alcotest.test_case "same seed, byte-identical export" `Quick
            test_same_seed_byte_identical;
          Alcotest.test_case "hot address owner is the dominant frame" `Quick
            test_hot_addr_owner_attribution;
        ] );
      ( "export",
        [
          Alcotest.test_case "profile JSON round-trips" `Quick
            test_profile_json_roundtrip;
          Alcotest.test_case "collapsed stacks parse back" `Quick
            test_collapsed_stacks_parse_back;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "reset_measurement clears profiler" `Quick
            test_reset_measurement_clears_profiler;
          Alcotest.test_case "disabled path allocates nothing" `Quick
            test_disabled_profiler_allocates_nothing;
        ] );
      ( "perfgate",
        [
          Alcotest.test_case "verdicts" `Quick test_perfgate_verdicts;
          Alcotest.test_case "profile-less baseline" `Quick
            test_perfgate_tolerates_profileless_baseline;
          Alcotest.test_case "binary exit codes" `Quick
            test_perfgate_binary_exit_code;
        ] );
    ]
