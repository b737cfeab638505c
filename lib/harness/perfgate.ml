(* The CI performance-regression gate.

   Compares two BENCH_E1.json-style documents — a committed baseline and a
   freshly produced current run — configuration by configuration (keyed by
   scheme x threads) and flags:

   - throughput drops beyond [max_throughput_drop];
   - per-operation p99 latency increases beyond [max_p99_increase], read
     from the embedded profile's latency table (op.* frames only — the
     allocator/reclaimer frames are implementation detail whose latency
     shifts legitimately with batching changes);
   - configurations present in the baseline but missing from the current
     run (a silently shrunk sweep must not pass the gate).

   Both runs are deterministic simulations, so thresholds guard against
   real cost-model regressions, not machine noise; the defaults still leave
   headroom for intentional small shifts.  Baselines produced before
   profiles existed simply have no "profile" field and get throughput-only
   gating. *)

module Json = Oamem_obs.Json

type thresholds = {
  max_throughput_drop : float;  (* fraction of baseline, e.g. 0.10 *)
  max_p99_increase : float;  (* fraction of baseline, e.g. 0.25 *)
  max_unreclaimed_increase : float;
      (* fraction of baseline per-phase peak unreclaimed nodes, e.g. 0.25;
         checked per service phase where both documents carry a positive
         baseline *)
}

let default_thresholds =
  {
    max_throughput_drop = 0.10;
    max_p99_increase = 0.25;
    max_unreclaimed_increase = 0.25;
  }

type verdict = {
  scheme : string;
  threads : int;
  metric : string;  (* "throughput", "p99:op.insert", "missing" *)
  baseline : float;
  current : float;
  change : float;  (* signed relative change vs baseline *)
  regressed : bool;
}

(* --- document access ------------------------------------------------------- *)

let results doc =
  List.map
    (fun r ->
      ( ( Json.(to_str (member "scheme" r)),
          Json.(to_int (member "threads" r)) ),
        r ))
    Json.(to_list (member "results" doc))

let throughput r = Json.(to_float (member "throughput_mops" r))

(* (phase, p99, peak_unreclaimed) per entry of a result's embedded "phases"
   array (BENCH_SERVICE.json documents); [] elsewhere. *)
let phases r =
  match Json.member "phases" r with
  | Json.Null -> []
  | j ->
      List.map
        (fun p ->
          ( Json.(to_str (member "phase" p)),
            ( Json.(to_int (member "p99" p)),
              Json.(to_int (member "peak_unreclaimed" p)) ) ))
        (Json.to_list j)

(* (frame, count, p99) for every op.* latency entry of a result's embedded
   profile; [] when the document predates profiles. *)
let op_p99s r =
  match Json.member "profile" r with
  | Json.Null -> []
  | profile ->
      List.filter_map
        (fun l ->
          let frame = Json.(to_str (member "frame" l)) in
          if String.length frame >= 3 && String.sub frame 0 3 = "op." then
            Some (frame, Json.(to_int (member "p99" l)))
          else None)
        Json.(to_list (member "latencies" profile))

(* --- comparison ------------------------------------------------------------ *)

let rel_change ~baseline ~current =
  if baseline = 0.0 then 0.0 else (current -. baseline) /. baseline

let compare_results ?(thresholds = default_thresholds) ~baseline ~current () =
  let base = results baseline and cur = results current in
  List.concat_map
    (fun (((scheme, threads) as key), br) ->
      match List.assoc_opt key cur with
      | None ->
          [
            {
              scheme;
              threads;
              metric = "missing";
              baseline = throughput br;
              current = 0.0;
              change = -1.0;
              regressed = true;
            };
          ]
      | Some cr ->
          let bt = throughput br and ct = throughput cr in
          let tchange = rel_change ~baseline:bt ~current:ct in
          let tput =
            {
              scheme;
              threads;
              metric = "throughput";
              baseline = bt;
              current = ct;
              change = tchange;
              regressed = tchange < -.thresholds.max_throughput_drop;
            }
          in
          let cur_p99s = op_p99s cr in
          let lat =
            List.filter_map
              (fun (frame, bp99) ->
                match List.assoc_opt frame cur_p99s with
                | None -> None  (* frame absent now: nothing to gate *)
                | Some cp99 ->
                    let b = float_of_int bp99 and c = float_of_int cp99 in
                    let change = rel_change ~baseline:b ~current:c in
                    Some
                      {
                        scheme;
                        threads;
                        metric = "p99:" ^ frame;
                        baseline = b;
                        current = c;
                        change;
                        regressed =
                          bp99 > 0 && change > thresholds.max_p99_increase;
                      })
              (op_p99s br)
          in
          let cur_phases = phases cr in
          let phase =
            List.concat_map
              (fun (name, (bp99, bunr)) ->
                match List.assoc_opt name cur_phases with
                | None -> []  (* phase absent now: nothing to gate *)
                | Some (cp99, cunr) ->
                    let p99 =
                      let b = float_of_int bp99 and c = float_of_int cp99 in
                      let change = rel_change ~baseline:b ~current:c in
                      {
                        scheme;
                        threads;
                        metric = "phase_p99:" ^ name;
                        baseline = b;
                        current = c;
                        change;
                        regressed =
                          bp99 > 0 && change > thresholds.max_p99_increase;
                      }
                    in
                    let unr =
                      let b = float_of_int bunr and c = float_of_int cunr in
                      let change = rel_change ~baseline:b ~current:c in
                      {
                        scheme;
                        threads;
                        metric = "phase_unreclaimed:" ^ name;
                        baseline = b;
                        current = c;
                        change;
                        regressed =
                          bunr > 0
                          && change > thresholds.max_unreclaimed_increase;
                      }
                    in
                    [ p99; unr ])
              (phases br)
          in
          (tput :: lat) @ phase)
    base

(* Relative gate *within* the current document: [scheme]'s throughput must
   stay within [max_gap] of [reference]'s at every thread count both ran.
   This is how a new scheme is gated before any committed baseline carries
   it (the absolute comparison above simply never sees a baseline-missing
   key): e.g. DEBRA's no-fault throughput must track EBR's, since its whole
   claim is robustness at epoch-level speed. *)
let compare_relative ?(max_gap = 0.10) ~current ~scheme ~reference () =
  let cur = results current in
  List.filter_map
    (fun ((s, threads), rr) ->
      if s <> reference then None
      else
        match List.assoc_opt (scheme, threads) cur with
        | None ->
            Some
              {
                scheme;
                threads;
                metric = "missing-vs:" ^ reference;
                baseline = throughput rr;
                current = 0.0;
                change = -1.0;
                regressed = true;
              }
        | Some sr ->
            let rt = throughput rr and st = throughput sr in
            let change = rel_change ~baseline:rt ~current:st in
            Some
              {
                scheme;
                threads;
                metric = "throughput-vs:" ^ reference;
                baseline = rt;
                current = st;
                change;
                regressed = change < -.max_gap;
              })
    cur

let failed verdicts = List.exists (fun v -> v.regressed) verdicts

let pp_verdict ppf v =
  Fmt.pf ppf "%s %-7s %2dT %-16s %10.3f -> %10.3f (%+.1f%%)"
    (if v.regressed then "FAIL" else "ok  ")
    v.scheme v.threads v.metric v.baseline v.current (100.0 *. v.change)
