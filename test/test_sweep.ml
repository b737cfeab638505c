(* Tests for domain sharding: the pool's ordering and error capture, the
   experiment driver's byte-identical docs and artifacts at -j 1 vs -j 4
   and its failing-experiment report, and identical fuzz findings for a
   fixed seed set. *)

open Oamem_harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || go (i + 1)
  in
  nn = 0 || go 0

(* --- the pool ------------------------------------------------------------------ *)

let test_pool_preserves_order () =
  let items = List.init 23 Fun.id in
  let results = Pool.map ~jobs:4 (fun i -> i * i) items in
  check_int "all results" 23 (List.length results);
  List.iteri
    (fun i r ->
      match r with
      | Ok v -> check_int "in input order" (i * i) v
      | Error e -> Alcotest.fail e)
    results

let test_pool_inline_matches_domains () =
  let items = List.init 9 Fun.id in
  let f i = Printf.sprintf "r%d" (i * 3) in
  check_bool "jobs:1 = jobs:4" true
    (Pool.map ~jobs:1 f items = Pool.map ~jobs:4 f items)

let test_pool_captures_exceptions () =
  let results =
    Pool.map ~jobs:4
      (fun i -> if i = 2 then failwith "boom" else i)
      [ 0; 1; 2; 3 ]
  in
  (match List.nth results 2 with
  | Error msg -> check_bool "error mentions boom" true
      (contains msg "boom")
  | Ok _ -> Alcotest.fail "job 2 should have failed");
  (* the other jobs still completed *)
  List.iteri
    (fun i r -> if i <> 2 then check_bool "ok" true (r = Ok i))
    results

let test_pool_map_exn_raises () =
  match
    Pool.map_exn ~jobs:2 (fun i -> if i = 1 then failwith "bad" else i)
      [ 0; 1 ]
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
      check_bool "names the job" true
        (contains msg "job 1")

(* --- the experiment driver: determinism ----------------------------------------- *)

(* A cheap config still broad enough to produce tables, charts and
   artifacts from every experiment. *)
let sweep_cfg =
  Experiments.Config.make ~threads:[ 1; 2 ] ~horizon_cycles:20_000
    ~fig4_size:60 ~fig6_size:500 ~schemes:[ "nr"; "oa-ver" ] ()

let rendered outcomes =
  String.concat ""
    (List.map
       (fun (id, doc) ->
         match doc with
         | Ok doc -> Report.to_string doc
         | Error msg -> Printf.sprintf "FAILED %s: %s\n" id msg)
       outcomes)

(* artifacts (CSV contents and filenames) are part of the contract too *)
let artifact_dump outcomes =
  String.concat ""
    (List.concat_map
       (fun (_, doc) ->
         match doc with
         | Ok doc ->
             List.map
               (fun (a : Report.artifact) -> a.Report.filename ^ a.Report.content)
               (Report.artifacts doc)
         | Error _ -> [])
       outcomes)

let check_identical_across_jobs ids =
  let run jobs =
    Experiments.run ~jobs sweep_cfg (List.map Experiments.find ids)
  in
  let seq = run 1 and par = run 4 in
  check_bool "same ids in the same slots" true
    (List.map fst seq = ids && List.map fst par = ids);
  List.iter
    (fun (id, doc) -> check_bool (id ^ " ok") true (Result.is_ok doc))
    seq;
  check_string "merged report byte-identical" (rendered seq) (rendered par);
  check_string "artifacts byte-identical" (artifact_dump seq)
    (artifact_dump par);
  seq

(* several experiments' cells interleaved in one pool *)
let test_sweep_docs_byte_identical () =
  ignore
    (check_identical_across_jobs
       [ "dwcas-leak"; "micro-validate"; "limbo-sweep" ])

(* Experiments with many cells of unequal cost, so that at -j 4 the cells
   finish out of order: the docs must still come out in cell order. *)
let test_sweep_internal_sharding_identical () =
  ignore (check_identical_across_jobs [ "limbo-sweep"; "fig5a"; "robustness" ])

let test_sweep_reports_failing_job () =
  let boom =
    {
      Experiments.id = "boom";
      title = "always fails";
      paper_ref = "-";
      expected = "-";
      plan =
        (fun _ ->
          Experiments.grid [ () ] (fun () -> failwith "deliberate failure")
          |> Experiments.map (fun _ -> []));
    }
  in
  match
    Experiments.run ~jobs:4 sweep_cfg
      [ Experiments.find "dwcas-leak"; boom; Experiments.find "micro-validate" ]
  with
  | [ (_, a); (id, b); (_, c) ] ->
      check_bool "first ok" true (Result.is_ok a);
      check_string "failing job id" "boom" id;
      (match b with
      | Error msg ->
          check_bool "error captured" true
            (contains msg "deliberate failure")
      | Ok _ -> Alcotest.fail "boom should fail");
      check_bool "later job still completes" true (Result.is_ok c)
  | _ -> Alcotest.fail "expected three outcomes"

(* The service experiment (E14) runs one cell per scheme and renders
   timelines per scheme; its doc and artifacts (timeline JSON/CSV) must be
   byte-identical at any -j. *)
let test_service_experiment_identical_across_jobs () =
  check_bool "service run produced timeline artifacts" true
    (artifact_dump (check_identical_across_jobs [ "service" ]) <> "")

(* --- fuzz matrix: determinism ----------------------------------------------------- *)

let fuzz_cells =
  [
    (Fuzz.find_scenario "list-insert-delete", "oa-ver");
    (Fuzz.find_scenario "buggy-counter", "nr");
    (Fuzz.find_scenario "ms-queue", "ebr");
  ]

let finding_repr = function
  | None -> "none"
  | Some (f : Fuzz.finding) ->
      Printf.sprintf "%s/%s seed=%d prefix=[%s] err=%s" f.Fuzz.scenario
        f.Fuzz.scheme f.Fuzz.seed
        (String.concat ";"
           (List.map string_of_int (Array.to_list f.Fuzz.prefix)))
        f.Fuzz.error

let test_fuzz_matrix_identical_across_jobs () =
  let run jobs = Sweep.fuzz_matrix ~jobs ~max_runs:60 ~seed:5 fuzz_cells in
  let seq = run 1 and par = run 4 in
  check_int "same cells" (List.length seq) (List.length par);
  List.iter2
    (fun (a : Sweep.fuzz_cell_result) (b : Sweep.fuzz_cell_result) ->
      check_string "same cell" (a.Sweep.scenario ^ "/" ^ a.Sweep.scheme)
        (b.Sweep.scenario ^ "/" ^ b.Sweep.scheme);
      check_int "same sampled schedules" a.Sweep.fuzz_runs b.Sweep.fuzz_runs;
      check_string "same finding" (finding_repr a.Sweep.finding)
        (finding_repr b.Sweep.finding))
    seq par

let test_fuzz_matrix_finds_seeded_bug () =
  let results =
    Sweep.fuzz_matrix ~jobs:4 ~max_runs:60 ~seed:5 fuzz_cells
  in
  let buggy =
    List.find (fun (r : Sweep.fuzz_cell_result) -> r.Sweep.scenario = "buggy-counter") results
  in
  match buggy.Sweep.finding with
  | None -> Alcotest.fail "seeded bug not found"
  | Some f ->
      (* shrunk on the coordinator, and the shrunk prefix must replay *)
      check_bool "shrink ran" true (buggy.Sweep.shrink_runs > 0);
      check_bool "shrunk repro replays" true (Fuzz.replay f <> None);
      (* clean cells stayed clean *)
      List.iter
        (fun (r : Sweep.fuzz_cell_result) ->
          if r.Sweep.scenario <> "buggy-counter" then
            check_bool (r.Sweep.scenario ^ " clean") true
              (r.Sweep.finding = None))
        results

let suite =
  [
    ("pool preserves order", `Quick, test_pool_preserves_order);
    ("pool inline = domains", `Quick, test_pool_inline_matches_domains);
    ("pool captures exceptions", `Quick, test_pool_captures_exceptions);
    ("pool map_exn raises", `Quick, test_pool_map_exn_raises);
    ("sweep docs byte-identical", `Quick, test_sweep_docs_byte_identical);
    ( "internal sharding identical",
      `Quick,
      test_sweep_internal_sharding_identical );
    ("sweep reports failing job", `Quick, test_sweep_reports_failing_job);
    ( "service experiment identical across jobs",
      `Quick,
      test_service_experiment_identical_across_jobs );
    ( "fuzz matrix identical across jobs",
      `Quick,
      test_fuzz_matrix_identical_across_jobs );
    ("fuzz matrix finds seeded bug", `Quick, test_fuzz_matrix_finds_seeded_bug);
  ]

let () = Alcotest.run "sweep" [ ("sweep", suite) ]
