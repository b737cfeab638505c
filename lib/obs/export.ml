let args_of_kind (k : Trace.kind) : (string * Json.t) list =
  match k with
  | Alloc { addr; words } -> [ ("addr", Int addr); ("words", Int words) ]
  | Free { addr } | Retire { addr } -> [ ("addr", Int addr) ]
  | Reclaim_phase { freed } -> [ ("freed", Int freed) ]
  | Warning { piggybacked } -> [ ("piggybacked", Bool piggybacked) ]
  | Fault_in { vpage } -> [ ("vpage", Int vpage) ]
  | Frames_released { count } -> [ ("count", Int count) ]
  | Superblock_transition { desc; state } ->
      [ ("desc", Int desc); ("state", String state) ]
  | Stall { cycles } -> [ ("cycles", Int cycles) ]
  | Neutralize_post { victim } | Revoke_post { victim } ->
      [ ("victim", Int victim) ]
  | Restart | Crash | Neutralized | Cond_fail -> []

let category_of_kind (k : Trace.kind) =
  match k with
  | Alloc _ | Free _ -> "alloc"
  | Retire _ | Reclaim_phase _ | Warning _ | Restart -> "reclaim"
  | Fault_in _ | Frames_released _ -> "vmem"
  | Superblock_transition _ -> "superblock"
  | Stall _ | Crash | Neutralize_post _ | Neutralized -> "fault"
  | Revoke_post _ | Cond_fail -> "reclaim"

let chrome_event (e : Trace.event) : Json.t =
  let common =
    [
      ("name", Json.String (Trace.kind_name e.kind));
      ("cat", Json.String (category_of_kind e.kind));
      ("pid", Json.Int 1);
      ("tid", Json.Int e.tid);
      ("ts", Json.Int e.at);
    ]
  in
  let shape =
    match e.kind with
    | Stall { cycles } ->
        [ ("ph", Json.String "X"); ("dur", Json.Int cycles) ]
    | _ -> [ ("ph", Json.String "i"); ("s", Json.String "t") ]
  in
  let args = args_of_kind e.kind in
  Json.Obj
    (common @ shape
    @ if args = [] then [] else [ ("args", Json.Obj args) ])

(* Ring overwrites mean the exported document is missing events; say so in
   the document itself instead of leaving consumers to notice a counter. *)
let drop_warning n =
  Printf.sprintf
    "%d trace event(s) dropped by ring overwrite; raise trace_capacity" n

(* --- timelines ------------------------------------------------------------- *)

let op_frames = Profile.op_frames

let latency_summary (l : Profile.latency) =
  [
    ("count", Json.Int l.count);
    ("p50", Json.Int (Profile.percentile l 0.50));
    ("p99", Json.Int (Profile.percentile l 0.99));
    ("max", Json.Int l.max_cycles);
  ]

let agg_json tl agg =
  let counters =
    List.map
      (fun c -> (Timeline.column_name c, Json.Int (Timeline.agg_count agg c)))
      Timeline.columns
  in
  let gauges =
    List.mapi (fun id name -> (id, name)) (Timeline.gauges tl)
    |> List.filter_map (fun (id, name) ->
           match Timeline.agg_gauge agg id with
           | None -> None
           | Some (last, gmax) ->
               Some
                 ( name,
                   Json.Obj [ ("last", Json.Int last); ("max", Json.Int gmax) ]
                 ))
  in
  let op_latency =
    match Timeline.agg_latency_merged agg op_frames with
    | None -> []
    | Some l -> [ ("op_latency", Json.Obj (latency_summary l)) ]
  in
  [ ("counters", Json.Obj counters); ("gauges", Json.Obj gauges) ] @ op_latency

let timeline_json tl =
  let phase (name, agg) =
    let start =
      List.fold_left
        (fun acc (n, at) ->
          match acc with
          | Some _ -> acc
          | None -> if String.equal n name then Some at else None)
        None (Timeline.marks tl)
    in
    let latencies =
      List.filter_map
        (fun f ->
          match Timeline.agg_latency agg f with
          | None -> None
          | Some l ->
              Some
                (Json.Obj
                   (("frame", Json.String (Profile.frame_name f))
                   :: latency_summary l)))
        Profile.all_frames
    in
    Json.Obj
      ([
         ("name", Json.String name);
         ("start", Json.Int (Option.value start ~default:0));
       ]
      @ agg_json tl agg
      @ [ ("latencies", Json.List latencies) ])
  in
  let window (i, agg) =
    Json.Obj
      ([
         ("index", Json.Int i);
         ("start", Json.Int (i * Timeline.width tl));
         ( "phase",
           Json.String (Timeline.phase_of_cycle tl (i * Timeline.width tl)) );
       ]
      @ agg_json tl agg)
  in
  Json.Obj
    [
      ("window_cycles", Json.Int (Timeline.width tl));
      ("gauges", Json.List (List.map (fun g -> Json.String g) (Timeline.gauges tl)));
      ("phases", Json.List (List.map phase (Timeline.phase_aggs tl)));
      ("windows", Json.List (List.map window (Timeline.window_aggs tl)));
    ]

let timeline_csv tl =
  let gauge_names = Timeline.gauges tl in
  let header =
    [ "window"; "start_cycles"; "phase" ]
    @ List.map Timeline.column_name Timeline.columns
    @ [ "ops"; "op_p50"; "op_p99"; "op_max" ]
    @ List.concat_map
        (fun g -> [ g ^ "_last"; g ^ "_max" ])
        gauge_names
  in
  let row (i, agg) =
    let start = i * Timeline.width tl in
    let ops =
      match Timeline.agg_latency_merged agg op_frames with
      | None -> [ "0"; "0"; "0"; "0" ]
      | Some l ->
          [
            string_of_int l.count;
            string_of_int (Profile.percentile l 0.50);
            string_of_int (Profile.percentile l 0.99);
            string_of_int l.max_cycles;
          ]
    in
    let gauges =
      List.concat
        (List.mapi
           (fun id _ ->
             match Timeline.agg_gauge agg id with
             | None -> [ ""; "" ]
             | Some (last, gmax) ->
                 [ string_of_int last; string_of_int gmax ])
           gauge_names)
    in
    [
      string_of_int i;
      string_of_int start;
      Timeline.phase_of_cycle tl start;
    ]
    @ List.map
        (fun c -> string_of_int (Timeline.agg_count agg c))
        Timeline.columns
    @ ops @ gauges
  in
  (header, List.map row (Timeline.window_aggs tl))

(* Chrome "C" (counter) events: one per populated window for every column
   that is nonzero somewhere in the run, plus every sampled gauge and the
   per-window op p99 — renders as stacked counter tracks over the instant
   events of the same trace. *)
let timeline_counter_events tl =
  let windows = Timeline.window_aggs tl in
  let live_cols =
    List.filter
      (fun c ->
        List.exists (fun (_, agg) -> Timeline.agg_count agg c > 0) windows)
      Timeline.columns
  in
  let counter name ts v =
    Json.Obj
      [
        ("name", Json.String name);
        ("ph", Json.String "C");
        ("pid", Json.Int 1);
        ("ts", Json.Int ts);
        ("args", Json.Obj [ ("value", Json.Int v) ]);
      ]
  in
  List.concat_map
    (fun (i, agg) ->
      let ts = i * Timeline.width tl in
      let cols =
        List.map
          (fun c ->
            counter ("timeline." ^ Timeline.column_name c) ts
              (Timeline.agg_count agg c))
          live_cols
      in
      let gs =
        List.mapi (fun id g -> (id, g)) (Timeline.gauges tl)
        |> List.filter_map (fun (id, g) ->
               match Timeline.agg_gauge agg id with
               | None -> None
               | Some (last, _) -> Some (counter ("timeline." ^ g) ts last))
      in
      cols @ gs)
    windows

let chrome_trace ?(timeline = Timeline.null) tr =
  let events = Trace.events tr in
  let name_threads =
    List.init (Trace.nthreads tr) (fun tid ->
        Json.Obj
          [
            ("name", Json.String "thread_name");
            ("ph", Json.String "M");
            ("pid", Json.Int 1);
            ("tid", Json.Int tid);
            ("args", Json.Obj [ ("name", Json.String (Printf.sprintf "sim-thread-%d" tid)) ]);
          ])
  in
  let counters = timeline_counter_events timeline in
  let dropped = Trace.dropped tr in
  let warning =
    if dropped > 0 then [ ("warning", Json.String (drop_warning dropped)) ]
    else []
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List (name_threads @ List.map chrome_event events @ counters) );
      ("displayTimeUnit", Json.String "ns");
      ("otherData",
       Json.Obj
         ([
            ("recorded", Json.Int (Trace.recorded tr));
            ("dropped", Json.Int dropped);
          ]
         @ warning));
    ]

let write_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc s;
      output_char oc '\n')

let write_chrome_trace ?timeline path tr =
  write_file path (Json.to_string (chrome_trace ?timeline tr))

let write_timeline path tl = write_file path (Json.to_string (timeline_json tl))

let metrics_json ?(extra = []) (s : Metrics.snapshot) =
  let split kind =
    List.filter_map
      (fun (name, k, v) -> if k = kind then Some (name, Json.Int v) else None)
      s.values
  in
  (* A histogram nobody observed into would serialise as
     {"count": 0, "max": 0, "buckets": []} — well-formed but noise, and a
     trap for consumers that assume at least one bucket.  Omit them. *)
  let histograms =
    List.map
      (fun (h : Metrics.hist_snapshot) ->
        Json.Obj
          [
            ("name", Json.String h.hname);
            ("count", Json.Int h.count);
            ("sum", Json.Int h.sum);
            ("max", Json.Int h.max_value);
            ("buckets",
             Json.List
               (List.map
                  (fun (le, n) -> Json.Obj [ ("le", Json.Int le); ("count", Json.Int n) ])
                  h.buckets));
          ])
      (List.filter (fun (h : Metrics.hist_snapshot) -> h.count > 0) s.histograms)
  in
  let warning =
    match
      List.find_opt
        (fun (name, k, v) ->
          k = Metrics.Counter && String.equal name "obs.trace_dropped" && v > 0)
        s.values
    with
    | Some (_, _, n) -> [ ("warning", Json.String (drop_warning n)) ]
    | None -> []
  in
  Json.Obj
    (extra
    @ [
        ("counters", Json.Obj (split Metrics.Counter));
        ("gauges", Json.Obj (split Metrics.Gauge));
        ("histograms", Json.List histograms);
      ]
    @ warning)

let write_metrics ?extra path s = write_file path (Json.to_string (metrics_json ?extra s))

let csv ~header rows =
  (* Ragged rows silently corrupt downstream tooling (column shifts in
     spreadsheet/pandas imports); validate up front. *)
  let width = List.length header in
  List.iteri
    (fun i row ->
      let w = List.length row in
      if w <> width then
        invalid_arg
          (Printf.sprintf "Export.csv: row %d has %d cells, header has %d" i w
             width))
    rows;
  String.concat "" (List.map (fun row -> String.concat "," row ^ "\n") (header :: rows))

let write_csv path ~header rows =
  let s = csv ~header rows in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let write_timeline_csv path tl =
  let header, rows = timeline_csv tl in
  write_csv path ~header rows

(* --- profiles -------------------------------------------------------------- *)

let span_path path = String.concat ";" (List.map Profile.frame_name path)

let profile_json ?(top = 10) (p : Profile.t) =
  let span (s : Profile.span) =
    Json.Obj
      [
        ("path", Json.String (span_path s.path));
        ("self_cycles", Json.Int s.self_cycles);
        ("total_cycles", Json.Int s.total_cycles);
        ("calls", Json.Int s.calls);
      ]
  in
  let latency (l : Profile.latency) =
    Json.Obj
      [
        ("frame", Json.String (Profile.frame_name l.lframe));
        ("count", Json.Int l.count);
        ("sum", Json.Int l.sum);
        ("max", Json.Int l.max_cycles);
        ("p50", Json.Int (Profile.percentile l 0.50));
        ("p99", Json.Int (Profile.percentile l 0.99));
        ("buckets",
         Json.List
           (List.map
              (fun (le, n) ->
                Json.Obj [ ("le", Json.Int le); ("count", Json.Int n) ])
              l.buckets));
      ]
  in
  let hot (h : Profile.hot_addr) =
    Json.Obj
      [
        ("addr", Json.Int h.addr);
        ("invalidations", Json.Int h.invalidations);
        ("cas_failures", Json.Int h.cas_failures);
        ("owner", Json.String (span_path h.owner));
      ]
  in
  Json.Obj
    [
      ("total_cycles", Json.Int (Profile.total_cycles p));
      ("unattributed_cycles", Json.Int (Profile.unattributed_cycles p));
      ("spans", Json.List (List.map span (Profile.spans p)));
      ("latencies", Json.List (List.map latency (Profile.latencies p)));
      ("hot_addrs", Json.List (List.map hot (Profile.hot_addrs ~top p)));
    ]

let collapsed_stacks (p : Profile.t) =
  let lines =
    List.filter_map
      (fun (s : Profile.span) ->
        if s.self_cycles > 0 then
          Some (Printf.sprintf "%s %d" (span_path s.path) s.self_cycles)
        else None)
      (Profile.spans p)
  in
  let lines =
    let un = Profile.unattributed_cycles p in
    if un > 0 then lines @ [ Printf.sprintf "(unattributed) %d" un ]
    else lines
  in
  String.concat "\n" lines

let write_profile ?top path p =
  write_file path (Json.to_string (profile_json ?top p))

let write_collapsed path p = write_file path (collapsed_stacks p)
