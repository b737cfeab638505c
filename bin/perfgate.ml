(* CI perf-regression gate: compare a fresh bench --profile / --service
   dump against a committed baseline and exit non-zero on regression.

     perfgate BASELINE CURRENT [--warn-only] [--max-drop F] [--max-p99 F]
              [--max-unreclaimed F] [--relative SCHEME:REF]...

   Every dimension (throughput, op p99, phase p99, phase unreclaimed) is
   simulated and deterministic, so a regression is a real cost-model change
   and gates hard.  --warn-only reports everything but exits 0
   (baseline-refresh mode, and the IMR-vs-OA-BIT tracking leg). *)

open Cmdliner
module Json = Oamem_obs.Json
module Perfgate = Oamem_harness.Perfgate

let read_json path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Json.parse s

let baseline_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"BASELINE" ~doc:"Committed baseline JSON (BENCH_E1.json).")

let current_arg =
  Arg.(
    required
    & pos 1 (some file) None
    & info [] ~docv:"CURRENT" ~doc:"Freshly produced bench JSON to gate.")

let warn_only_arg =
  Arg.(
    value & flag
    & info [ "warn-only" ]
        ~doc:"Report regressions but exit 0 (first-run / baseline-refresh mode).")

let max_drop_arg =
  Arg.(
    value
    & opt float Perfgate.default_thresholds.Perfgate.max_throughput_drop
    & info [ "max-drop" ] ~docv:"FRACTION"
        ~doc:"Maximum tolerated relative throughput drop.")

let max_p99_arg =
  Arg.(
    value
    & opt float Perfgate.default_thresholds.Perfgate.max_p99_increase
    & info [ "max-p99" ] ~docv:"FRACTION"
        ~doc:"Maximum tolerated relative p99 latency increase.")

let max_unreclaimed_arg =
  Arg.(
    value
    & opt float
        Perfgate.default_thresholds.Perfgate.max_unreclaimed_increase
    & info [ "max-unreclaimed" ] ~docv:"FRACTION"
        ~doc:
          "Maximum tolerated relative increase in a service phase's peak \
           unreclaimed nodes; checked per phase of results carrying a \
           'phases' array (BENCH_SERVICE.json).")

let relative_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "relative" ] ~docv:"SCHEME:REF"
        ~doc:
          "Also gate SCHEME's throughput against REF's within the CURRENT \
           document (within --max-drop at every thread count REF ran); \
           gates schemes too new to appear in the committed baseline. \
           Repeatable.")

let parse_relative spec =
  match String.index_opt spec ':' with
  | Some i when i > 0 && i < String.length spec - 1 ->
      ( String.sub spec 0 i,
        String.sub spec (i + 1) (String.length spec - i - 1) )
  | _ ->
      Fmt.epr "perfgate: bad --relative %S (expected SCHEME:REF)@." spec;
      exit 2

let run baseline current warn_only max_drop max_p99 max_unreclaimed relative =
  let thresholds =
    {
      Perfgate.max_throughput_drop = max_drop;
      max_p99_increase = max_p99;
      max_unreclaimed_increase = max_unreclaimed;
    }
  in
  let current_doc = read_json current in
  let verdicts =
    Perfgate.compare_results ~thresholds ~baseline:(read_json baseline)
      ~current:current_doc ()
    @ List.concat_map
        (fun spec ->
          let scheme, reference = parse_relative spec in
          Perfgate.compare_relative ~max_gap:max_drop ~current:current_doc
            ~scheme ~reference ())
        relative
  in
  List.iter
    (fun v ->
      Fmt.pr "%a%s@." Perfgate.pp_verdict v
        (if v.Perfgate.regressed && warn_only then " [warn-only]" else ""))
    verdicts;
  let regressed =
    List.length (List.filter (fun v -> v.Perfgate.regressed) verdicts)
  in
  Fmt.pr "perfgate: %d checks, %d regressed%s@." (List.length verdicts)
    regressed
    (if warn_only then " (warn-only)" else "");
  if regressed > 0 && not warn_only then exit 1

let () =
  let doc =
    "Fail when a bench --profile run regresses against a committed baseline."
  in
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "perfgate" ~doc)
          Term.(
            const run $ baseline_arg $ current_arg $ warn_only_arg
            $ max_drop_arg $ max_p99_arg $ max_unreclaimed_arg
            $ relative_arg)))
