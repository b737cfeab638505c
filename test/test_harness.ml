(* Tests for the experiment harness: workload mixes, the runner's accounting
   and warmup behaviour, report formatting and the experiment registry. *)

open Oamem_engine
open Oamem_harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- workload ----------------------------------------------------------------- *)

let test_mix_validation () =
  Alcotest.check_raises "must sum to 100"
    (Invalid_argument "Workload.mix: percentages must sum to 100") (fun () ->
      ignore (Workload.mix ~search:50 ~insert:30 ~delete:30))

let test_paper_mixes () =
  check_bool "update only" true
    (Workload.update_only = Workload.mix ~search:0 ~insert:50 ~delete:50);
  check_bool "balanced" true
    (Workload.balanced = Workload.mix ~search:50 ~insert:25 ~delete:25)

let test_mix_proportions () =
  let w = Workload.make ~mix:Workload.balanced ~initial:100 () in
  let rng = Prng.create 11 in
  let s = ref 0 and i = ref 0 and d = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    match Workload.next_op w rng with
    | Workload.Search _ -> incr s
    | Workload.Insert _ -> incr i
    | Workload.Delete _ -> incr d
  done;
  let pct x = 100 * x / n in
  check_bool "~50% searches" true (abs (pct !s - 50) <= 3);
  check_bool "~25% inserts" true (abs (pct !i - 25) <= 3);
  check_bool "~25% deletes" true (abs (pct !d - 25) <= 3)

let test_keys_in_universe () =
  let w = Workload.make ~mix:Workload.update_only ~initial:50 () in
  let rng = Prng.create 3 in
  for _ = 1 to 1000 do
    let k =
      match Workload.next_op w rng with
      | Workload.Search k | Workload.Insert k | Workload.Delete k -> k
    in
    check_bool "key in universe" true (k >= 0 && k < 100)
  done

let test_prefill_is_half_universe () =
  let w = Workload.make ~mix:Workload.update_only ~initial:10 () in
  let keys = Workload.prefill_keys w in
  check_int "count" 10 (List.length keys);
  check_bool "all even, in universe" true
    (List.for_all (fun k -> k land 1 = 0 && k < 20) keys)

let test_zipf_skew () =
  let w =
    Workload.make ~distribution:(Workload.Zipf 0.99) ~mix:Workload.update_only
      ~initial:500 ()
  in
  let rng = Prng.create 5 in
  let counts = Hashtbl.create 64 in
  let n = 20_000 in
  for _ = 1 to n do
    let k = Workload.next_key w rng in
    check_bool "in universe" true (k >= 0 && k < w.Workload.universe);
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  (* skew: the hottest 10 keys must take far more than 10/1000 of the mass *)
  let all = Hashtbl.fold (fun _ c acc -> c :: acc) counts [] in
  let sorted = List.sort (fun a b -> compare b a) all in
  let top10 = List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < 10) sorted) in
  check_bool "top-10 keys dominate" true (top10 * 100 / n > 15);
  (* uniform, by contrast, is flat *)
  let wu = Workload.make ~mix:Workload.update_only ~initial:500 () in
  let rngu = Prng.create 5 in
  let countsu = Hashtbl.create 64 in
  for _ = 1 to n do
    let k = Workload.next_key wu rngu in
    Hashtbl.replace countsu k (1 + Option.value ~default:0 (Hashtbl.find_opt countsu k))
  done;
  let allu = Hashtbl.fold (fun _ c acc -> c :: acc) countsu [] in
  let sortedu = List.sort (fun a b -> compare b a) allu in
  let top10u = List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < 10) sortedu) in
  check_bool "uniform top-10 is small" true (top10u * 100 / n < 5)

(* --- runner -------------------------------------------------------------------- *)

let small_spec scheme =
  {
    Runner.default_spec with
    Runner.scheme;
    threads = 2;
    structure = Runner.Hash_set;
    workload = Workload.make ~mix:Workload.update_only ~initial:200 ();
    horizon_cycles = 60_000;
    threshold = 16;
    sb_pages = 4;
  }

let test_runner_counts_ops () =
  let r = Runner.run (small_spec "oa-ver") in
  check_int "ops = searches+inserts+deletes" r.Runner.ops
    (r.Runner.searches + r.Runner.inserts + r.Runner.deletes);
  check_bool "did some work" true (r.Runner.ops > 10);
  check_bool "positive throughput" true (r.Runner.throughput_mops > 0.0);
  check_bool "elapsed covers horizon" true
    (r.Runner.sim_seconds
    >= Oamem_engine.Cost_model.seconds_of_cycles
         Oamem_engine.Cost_model.opteron_6274 60_000)

let test_runner_all_schemes_complete () =
  List.iter
    (fun scheme ->
      let r = Runner.run (small_spec scheme) in
      check_bool (scheme ^ " completes") true (r.Runner.ops > 0))
    Oamem_reclaim.Registry.names

let test_runner_deterministic () =
  let a = Runner.run (small_spec "oa-bit") in
  let b = Runner.run (small_spec "oa-bit") in
  check_int "same ops" a.Runner.ops b.Runner.ops;
  check_bool "same throughput" true
    (a.Runner.throughput_mops = b.Runner.throughput_mops)

let test_runner_warmup_resets_counters () =
  (* with warmup, the measured scheme stats must not include warmup work:
     a tiny horizon after a large warmup must show few retired nodes *)
  let r =
    Runner.run
      { (small_spec "oa-ver") with Runner.warmup_ops = 2_000; horizon_cycles = 2_000 }
  in
  check_bool "measured retires small" true
    (Oamem_obs.Metrics.find r.Runner.metrics "scheme.retired" < 200)

let test_runner_trials () =
  let s = Runner.run_trials ~trials:3 (small_spec "oa-ver") in
  check_int "three trials" 3 (List.length s.Runner.trials);
  check_bool "median within bounds" true
    (s.Runner.min_mops <= s.Runner.median_mops
    && s.Runner.median_mops <= s.Runner.max_mops)

let test_runner_more_threads_more_ops () =
  let r1 = Runner.run { (small_spec "nr") with Runner.threads = 1 } in
  let r4 = Runner.run { (small_spec "nr") with Runner.threads = 4 } in
  check_bool "parallel work scales" true
    (r4.Runner.ops > r1.Runner.ops)

(* --- report (value-level doc API) ----------------------------------------------- *)

let test_report_table_alignment () =
  let out =
    Report.to_string
      [
        Report.table ~header:[ "a"; "long-header" ]
          [ [ "xxxxxx"; "1" ]; [ "y"; "22" ] ];
      ]
  in
  let lines = String.split_on_char '\n' out in
  check_bool "has rows" true (List.length lines >= 4);
  (* all non-empty lines equally padded *)
  match lines with
  | h :: _ :: r1 :: _ ->
      check_bool "header padded to width" true (String.length h >= 6);
      check_bool "row contains value" true
        (String.length r1 > 0 && r1.[0] = 'x')
  | _ -> Alcotest.fail "unexpected table output"

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || go (i + 1)
  in
  nn = 0 || go 0

let test_report_chart_renders_series () =
  let out =
    Report.to_string
      [
        Report.chart ~title:"t" ~xlabel:"x" ~ylabel:"y" ~xs:[ 1; 2; 3 ]
          [ ("alpha", [ 1.0; 2.0; 3.0 ]); ("beta", [ 3.0; 2.0; 1.0 ]) ];
      ]
  in
  check_bool "mentions series A" true
    (String.length out > 0 && contains out "A = alpha" && contains out "B = beta")

let test_report_csv () =
  let doc =
    [ Report.csv ~filename:"t.csv" ~header:[ "a"; "b" ]
        [ [ "1"; "2" ]; [ "3"; "4" ] ] ]
  in
  (* the artifact is a value... *)
  (match Report.artifacts doc with
  | [ a ] ->
      check_bool "csv content" true (a.Report.content = "a,b\n1,2\n3,4\n");
      check_bool "csv is dir-relative" true a.Report.in_dir
  | _ -> Alcotest.fail "expected one artifact");
  (* ...rendered text ignores it... *)
  check_bool "not rendered inline" true (Report.to_string doc = "");
  (* ...and write_artifacts places it under the requested directory,
     dropping it when no directory is given *)
  let dir = Filename.temp_file "oamem" ".d" in
  Sys.remove dir;
  (match Report.write_artifacts ~dir doc with
  | [ path ] ->
      let ic = open_in path in
      let l1 = input_line ic and l2 = input_line ic and l3 = input_line ic in
      close_in ic;
      Sys.remove path;
      Unix.rmdir dir;
      check_bool "csv written" true (l1 = "a,b" && l2 = "1,2" && l3 = "3,4")
  | _ -> Alcotest.fail "expected one written file");
  check_bool "no dir, no write" true (Report.write_artifacts doc = [])

(* A ragged row would silently shift columns in the written file; the one
   CSV formatter rejects it for experiment artifacts as it does for
   Export.write_csv. *)
let test_report_csv_rejects_ragged_rows () =
  match
    Report.csv ~filename:"t.csv" ~header:[ "a"; "b" ]
      [ [ "1"; "2" ]; [ "3" ] ]
  with
  | _ -> Alcotest.fail "ragged row accepted"
  | exception Invalid_argument _ -> ()

(* --- experiments registry ------------------------------------------------------- *)

let test_experiments_registry () =
  let ids = List.map (fun e -> e.Experiments.id) Experiments.all in
  List.iter
    (fun id -> check_bool (id ^ " present") true (List.mem id ids))
    [
      "fig4a"; "fig4b"; "fig5a"; "fig5b"; "fig6a"; "fig6b"; "remap-strategies";
      "memory-release"; "dwcas-leak"; "micro-validate"; "warnings-ablation";
      "limbo-sweep"; "padding-ablation"; "cache-sweep";
    ];
  check_bool "find works" true
    ((Experiments.find "fig4a").Experiments.id = "fig4a");
  Alcotest.check_raises "unknown id"
    (Invalid_argument
       ("unknown experiment \"nope\" (known: "
       ^ String.concat ", " ids
       ^ ")"))
    (fun () -> ignore (Experiments.find "nope"))

let test_small_experiment_runs () =
  (* dwcas-leak is the cheapest full experiment: run it end to end *)
  match
    Experiments.run ~jobs:1 Experiments.quick_config
      [ Experiments.find "dwcas-leak" ]
  with
  | [ ("dwcas-leak", Ok doc) ] ->
      check_bool "returned a table" true
        (String.length (Report.to_string doc) > 100)
  | _ -> Alcotest.fail "expected one successful doc"

let test_config_builder () =
  check_bool "make () is the default" true
    (Experiments.Config.make () = Experiments.default_config);
  let c = Experiments.Config.make ~seed:42 ~csv_dir:"out" () in
  check_int "override seed" 42 c.Experiments.seed;
  check_bool "override csv_dir" true (c.Experiments.csv_dir = Some "out");
  check_bool "rest defaulted" true
    (c.Experiments.threads = Experiments.default_config.Experiments.threads)

(* --- DEBRA tracks EBR in the committed baseline ------------------------------ *)

module Json = Oamem_obs.Json

(* DEBRA is EBR with batched announcements and neutralization, and its
   no-fault throughput must stay within 10% of EBR's.  Returns each thread
   count of a BENCH_E1.json-shaped document where EBR has a result and
   DEBRA has none or falls below 0.90x of it. *)
let debra_lags_ebr doc =
  let rows =
    List.map
      (fun r ->
        Json.
          ( to_str (member "scheme" r),
            to_int (member "threads" r),
            to_float (member "throughput_mops" r) ))
      Json.(to_list (member "results" doc))
  in
  List.filter_map
    (fun (scheme, t, ebr) ->
      if scheme <> "ebr" then None
      else
        match List.find_opt (fun (s, t', _) -> s = "debra" && t' = t) rows with
        | Some (_, _, debra) when debra >= 0.90 *. ebr -> None
        | _ -> Some t)
    rows

(* The committed file, which the bench/ runtest diff pins to a fresh run;
   the path is relative to _build/default/test, where dune runs tests. *)
let test_debra_tracks_ebr () =
  let doc =
    Json.parse (In_channel.with_open_text "../BENCH_E1.json" In_channel.input_all)
  in
  let rows = Json.(to_list (member "results" doc)) in
  let scheme r = Json.(to_str (member "scheme" r)) in
  let ebr_rows = List.filter (fun r -> scheme r = "ebr") rows in
  check_bool "baseline has EBR results" true (ebr_rows <> []);
  check_bool "debra >= 0.90x ebr at every thread count" true
    (debra_lags_ebr doc = []);
  (* positive controls: DEBRA at 0.85x EBR, and DEBRA's rows removed *)
  let with_rows rows = Json.Obj [ ("results", Json.List rows) ] in
  let slowed =
    List.concat_map
      (fun e ->
        let debra =
          Json.Obj
            [
              ("scheme", Json.String "debra");
              ("threads", Json.member "threads" e);
              ( "throughput_mops",
                Json.Float (0.85 *. Json.(to_float (member "throughput_mops" e)))
              );
            ]
        in
        [ e; debra ])
      ebr_rows
  in
  check_bool "debra at 0.85x ebr fails" true
    (debra_lags_ebr (with_rows slowed) <> []);
  check_bool "missing debra rows fail" true
    (debra_lags_ebr (with_rows (List.filter (fun r -> scheme r <> "debra") rows))
    <> [])

let suite =
  [
    ("mix validation", `Quick, test_mix_validation);
    ("paper mixes", `Quick, test_paper_mixes);
    ("mix proportions", `Quick, test_mix_proportions);
    ("keys in universe", `Quick, test_keys_in_universe);
    ("prefill", `Quick, test_prefill_is_half_universe);
    ("zipf skew", `Quick, test_zipf_skew);
    ("runner counts ops", `Quick, test_runner_counts_ops);
    ("runner all schemes", `Quick, test_runner_all_schemes_complete);
    ("runner deterministic", `Quick, test_runner_deterministic);
    ("runner warmup resets", `Quick, test_runner_warmup_resets_counters);
    ("runner trials", `Quick, test_runner_trials);
    ("runner thread scaling", `Quick, test_runner_more_threads_more_ops);
    ("report table", `Quick, test_report_table_alignment);
    ("report chart", `Quick, test_report_chart_renders_series);
    ("report csv", `Quick, test_report_csv);
    ("report csv rejects ragged rows", `Quick, test_report_csv_rejects_ragged_rows);
    ("experiments registry", `Quick, test_experiments_registry);
    ("small experiment runs", `Quick, test_small_experiment_runs);
    ("config builder", `Quick, test_config_builder);
    ("debra tracks ebr in BENCH_E1.json", `Quick, test_debra_tracks_ebr);
  ]

let () = Alcotest.run "harness" [ ("harness", suite) ]
