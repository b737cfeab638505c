(* Simulated-baseline dumps: the committed BENCH_*.json documents.

     bench --profile [--out PATH]   small E1-style sweep  -> BENCH_E1.json
     bench --service [--out PATH]   E14 service scenario  -> BENCH_SERVICE.json

   Both documents hold simulated numbers only, so they are byte-identical
   for a given tree: `dune runtest` regenerates them and diffs them against
   the committed files (`dune build @bench/runtest && dune promote`
   refreshes them), so any changed number fails the tests.  Host time — how
   fast the simulator runs — is measured by perfbench/ alone; the paper
   reproduction itself is `bin/repro all`. *)

open Oamem_harness
module Json = Oamem_obs.Json
module Export = Oamem_obs.Export

let write_doc ~out doc =
  let oc = open_out out in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc

(* --- BENCH_E1.json ----------------------------------------------------------- *)

(* `bench --profile` runs a small E1-style sweep (hash set, update-only) with
   the cycle-attribution profiler on and writes one JSON document per run:
   the full metrics snapshot and the profile (spans, op latencies, hot
   addresses). *)

let run_metrics_dump ~out =
  (* the paper's four methods, the epoch pair test_harness compares
     (DEBRA's no-fault throughput must track EBR's), and IMR *)
  let schemes =
    Oamem_reclaim.Registry.paper_methods @ [ "ebr"; "debra"; "imr" ]
  in
  let threads = [ 1; 4 ] in
  let results =
    List.concat_map
      (fun scheme ->
        List.map
          (fun t ->
            let r =
              Runner.run
                {
                  Runner.default_spec with
                  Runner.scheme;
                  threads = t;
                  structure = Runner.Hash_set;
                  workload =
                    Workload.make ~mix:Workload.update_only ~initial:1_000 ();
                  horizon_cycles = 100_000;
                  profile = true;
                }
            in
            Json.Obj
              [
                ("scheme", Json.String scheme);
                ("threads", Json.Int t);
                ("throughput_mops", Json.Float r.Runner.throughput_mops);
                ("host_steps", Json.Int r.Runner.host_steps);
                ("metrics", Export.metrics_json r.Runner.metrics);
                ("profile", Export.profile_json r.Runner.profile);
              ])
          threads)
      schemes
  in
  write_doc ~out
    (Json.Obj
       [
         ("experiment", Json.String "E1");
         ("structure", Json.String "hash-set");
         ("results", Json.List results);
       ]);
  Printf.printf "wrote %s (%d runs)\n%!" out (List.length results)

(* --- BENCH_SERVICE.json -------------------------------------------------------- *)

(* `bench --service` runs the E14 service scenario (Zipfian session store,
   four scripted phases ending in a memory-pressure wave) once per scheme
   and writes a document in the same results shape whose entries
   additionally embed a "phases" array: per-phase op p99 and peak
   unreclaimed nodes — the SLA view a whole-run p99 can hide (see
   EXPERIMENTS.md E14). *)

let run_service_dump ~out =
  let schemes = Oamem_reclaim.Registry.names in
  let results =
    List.map
      (fun scheme ->
        let r = Service.run { Service.default_spec with Service.scheme } in
        let phase_json (p : Service.phase_stats) =
          Json.Obj
            [
              ("phase", Json.String p.Service.phase);
              ("ops", Json.Int p.Service.ops);
              ("p50", Json.Int p.Service.p50);
              ("p99", Json.Int p.Service.p99);
              ("peak_unreclaimed", Json.Int p.Service.peak_unreclaimed);
              ( "pressure_recoveries",
                Json.Int p.Service.pressure_recoveries );
            ]
        in
        Printf.printf "%-7s %2dT  %.3f Mops  (%d phases)\n%!" scheme
          r.Service.rspec.Service.threads r.Service.throughput_mops
          (List.length r.Service.per_phase);
        Json.Obj
          [
            ("scheme", Json.String scheme);
            ("threads", Json.Int r.Service.rspec.Service.threads);
            ("throughput_mops", Json.Float r.Service.throughput_mops);
            ( "phases",
              Json.List
                (List.map phase_json
                   (r.Service.per_phase @ [ r.Service.overall ])) );
          ])
      schemes
  in
  write_doc ~out
    (Json.Obj
       [
         ("experiment", Json.String "E14");
         ("structure", Json.String "service(hash-set)");
         ("results", Json.List results);
       ]);
  Printf.printf "wrote %s (%d schemes)\n%!" out (List.length results)

let () =
  let argv = Array.to_list Sys.argv in
  let rec out_arg = function
    | "--out" :: v :: _ -> Some v
    | _ :: rest -> out_arg rest
    | [] -> None
  in
  let out dfl = Option.value (out_arg argv) ~default:dfl in
  if List.mem "--profile" argv then
    run_metrics_dump ~out:(out "BENCH_E1.json")
  else if List.mem "--service" argv then
    run_service_dump ~out:(out "BENCH_SERVICE.json")
  else begin
    prerr_endline "usage: bench (--profile | --service) [--out PATH]";
    exit 2
  end
