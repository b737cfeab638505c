(** CI performance-regression gate over BENCH_E1.json-style documents.

    Compares a committed baseline against a fresh [bench --profile] run,
    configuration by configuration (scheme x threads), and produces one
    {!verdict} per checked metric: throughput, per-operation p99 latency
    (from the result's embedded profile), and presence (a configuration
    that vanished from the sweep is a regression).  The runs are
    deterministic simulations, so a threshold trip means the cost model
    really moved, not that the CI machine was noisy. *)

type thresholds = {
  max_throughput_drop : float;
      (** maximum tolerated relative throughput drop (default 0.10) *)
  max_p99_increase : float;
      (** maximum tolerated relative p99 latency increase (default 0.25) *)
  max_unreclaimed_increase : float;
      (** maximum tolerated relative increase in a service phase's peak
          unreclaimed nodes (default 0.25).  Checked per phase of a
          result's embedded ["phases"] array (BENCH_SERVICE.json), only
          where the baseline value is positive. *)
}

val default_thresholds : thresholds

type verdict = {
  scheme : string;
  threads : int;
  metric : string;  (** ["throughput"], ["p99:op.insert"], ..., ["missing"] *)
  baseline : float;
  current : float;
  change : float;  (** signed relative change vs baseline *)
  regressed : bool;
}

val compare_results :
  ?thresholds:thresholds ->
  baseline:Oamem_obs.Json.t ->
  current:Oamem_obs.Json.t ->
  unit ->
  verdict list
(** One verdict per (configuration, metric).  p99 checks only run where
    both documents embed a profile for the configuration — baselines
    predating [bench --profile] get throughput-only gating.  Results
    carrying a ["phases"] array (service scenario documents) get two
    further verdicts per phase both documents ran: ["phase_p99:<name>"]
    against [max_p99_increase] and ["phase_unreclaimed:<name>"] against
    [max_unreclaimed_increase].
    A baseline configuration missing from [current] yields a single
    regressed ["missing"] verdict. *)

val compare_relative :
  ?max_gap:float ->
  current:Oamem_obs.Json.t ->
  scheme:string ->
  reference:string ->
  unit ->
  verdict list
(** Relative gate *within* [current]: one verdict per thread count the
    [reference] scheme ran, regressed when [scheme]'s throughput falls more
    than [max_gap] (default 0.10) below [reference]'s at the same thread
    count, or when the configuration is missing for [scheme].  Gates a new
    scheme against an established one before any committed baseline carries
    it — e.g. DEBRA's no-fault throughput must track EBR's. *)

val failed : verdict list -> bool
(** True iff any verdict regressed. *)

val pp_verdict : Format.formatter -> verdict -> unit
