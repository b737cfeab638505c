(** Exporters: trace → Chrome trace_event JSON, metrics → JSON, and a small
    CSV writer for time series.

    Chrome traces load in [chrome://tracing] / Perfetto ("load legacy
    trace"): simulated cycles map to microseconds, threads map to Chrome
    thread lanes, stalls render as duration slices and everything else as
    instant events. *)

val chrome_trace : ?timeline:Timeline.t -> Trace.t -> Json.t
(** The trace as a Chrome trace_event document:
    [{"traceEvents": [...], "displayTimeUnit": "ns", ...}].  One event per
    buffered {!Trace.event}; [Stall] becomes a complete ("ph":"X") slice of
    its duration, every other kind an instant ("ph":"i").  Event arguments
    (addresses, counts, states) land in ["args"].  With [timeline], the
    per-window counter tracks ({!timeline_counter_events}) are appended.
    When ring overwrites dropped events, ["otherData"] carries a
    ["warning"] field. *)

val write_chrome_trace : ?timeline:Timeline.t -> string -> Trace.t -> unit
(** Write {!chrome_trace} to a file. *)

val metrics_json : ?extra:(string * Json.t) list -> Metrics.snapshot -> Json.t
(** The snapshot as
    [{"counters": {...}, "gauges": {...}, "histograms": [...], ...extra}].
    [extra] fields (experiment name, scheme, throughput) are prepended.
    Histograms with zero observations are omitted — an unused histogram
    would serialise as [{"count": 0, "max": 0, "buckets": []}], which is
    noise and a trap for consumers assuming at least one bucket.  When the
    snapshot's [obs.trace_dropped] counter is nonzero a trailing
    ["warning"] field says how many events the document is missing. *)

val write_metrics : ?extra:(string * Json.t) list -> string -> Metrics.snapshot -> unit

val csv : header:string list -> string list list -> string
(** Plain CSV with a header row; cells are written verbatim (callers pass
    numbers and bare identifiers, nothing needing quoting).  Raises
    [Invalid_argument] if any row's cell count differs from the header's —
    ragged rows silently shift columns in downstream tooling.  Every CSV
    the repo writes goes through this, {!Report.csv} artifacts included. *)

val write_csv : string -> header:string list -> string list list -> unit
(** [csv ~header rows], written to a file. *)

(** {2 Timelines} *)

val timeline_json : Timeline.t -> Json.t
(** The timeline as
    [{"window_cycles", "gauges", "phases": [...], "windows": [...]}]: each
    phase carries its counter columns, gauge last/max, merged [op.*]
    latency summary (count/p50/p99/max via {!Profile.percentile}) and
    per-frame latencies; each window the same minus the per-frame detail.
    Deterministic: windows ascend, phases follow marker order. *)

val write_timeline : string -> Timeline.t -> unit

val timeline_csv : Timeline.t -> string list * string list list
(** [(header, rows)], one row per populated window: index, start cycle,
    phase label, every counter column, merged op count/p50/p99/max, and
    last/max per registered gauge (empty cells where never sampled).  Feed
    to {!write_csv} or a [Report] CSV artifact. *)

val write_timeline_csv : string -> Timeline.t -> unit

val timeline_counter_events : Timeline.t -> Json.t list
(** Chrome trace_event counter ("ph":"C") tracks: one sample per populated
    window for every column nonzero somewhere in the run and every sampled
    gauge, named ["timeline.<column>"].  Appended to {!chrome_trace} via
    its [timeline] argument. *)

(** {2 Profiles} *)

val profile_json : ?top:int -> Profile.t -> Json.t
(** The profile as [{"total_cycles", "unattributed_cycles", "spans": [...],
    "latencies": [...], "hot_addrs": [...]}].  Span paths are
    semicolon-joined frame names ("op.delete;restart"); latencies carry
    exact p50/p99/max; [top] (default 10) bounds the hot-address list.
    Deterministic: same simulated run, byte-identical document. *)

val collapsed_stacks : Profile.t -> string
(** Collapsed-stack (Brendan Gregg folded) format, one line per span with
    nonzero self cycles: ["op.delete;restart 31337"].  Cycles charged
    outside any span appear as a ["(unattributed)"] pseudo-frame.  Feed to
    [flamegraph.pl] or speedscope. *)

val write_profile : ?top:int -> string -> Profile.t -> unit
val write_collapsed : string -> Profile.t -> unit
