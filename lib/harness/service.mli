(** Production-style service scenario (experiment E14): a Zipfian-key
    session store under scripted, phase-shifting traffic.

    One simulated system runs a hash-set "store" through a sequence of
    {!phase_spec} phases — the default script is read-mostly steady state →
    flash crowd (hotter skew, read-hammering) → churn storm (update-only) →
    memory-pressure wave (insert-heavy growth under a live-frame quota that
    drives lrmalloc's pressure-recovery path).  A {!Oamem_obs.Timeline}
    records windowed and per-phase counters, gauge samples (a dedicated
    sampler thread, {!Oamem_core.System.observe}) and exact per-phase op latency
    histograms; {!run} distils them into SLA-style {!phase_stats}.

    Deterministic: same spec, byte-identical timeline and stats. *)

open Oamem_core

type phase_spec = {
  pname : string;
  mix : Workload.mix;
  distribution : Workload.distribution;
  horizon : int;  (** simulated cycles this phase lasts *)
  quota_headroom : int option;
      (** [Some h]: cap live frames at (live-at-phase-start + h) for the
          duration of the phase — simulated memory pressure; allocations
          beyond it go through lrmalloc's recovery path *)
}

val default_phases : horizon_cycles:int -> phase_spec list
(** The four-phase script above, splitting [horizon_cycles] 30/20/25/25. *)

type spec = {
  scheme : string;
  threads : int;
      (** workers; two extra engine slots run the gauge sampler and the
          pressure ballast *)
  initial : int;  (** prefilled keys (universe is twice this) *)
  window : int;  (** timeline window width in simulated cycles *)
  sample_interval : int;  (** sampler period in simulated cycles *)
  seed : int;
  phases : phase_spec list;
}

val default_spec : spec

type phase_stats = {
  phase : string;
  ops : int;
  p50 : int;
  p99 : int;
  max_cycles : int;  (** merged [op.*] latency within the phase, exact *)
  restarts : int;
  warnings : int;
  neutralized : int;
  frames_released : int;
  peak_unreclaimed : int;  (** max sampled [scheme.unreclaimed] *)
  pressure_recoveries : int;  (** lrmalloc recovery passes within the phase *)
}

type result = {
  rspec : spec;
  per_phase : phase_stats list;  (** script order *)
  overall : phase_stats;  (** whole measured run, [phase = "overall"] *)
  throughput_mops : float;
  sim_seconds : float;
  host_seconds : float;
  metrics : Oamem_obs.Metrics.snapshot;
  timeline : Oamem_obs.Timeline.t;  (** for the JSON/CSV/Chrome exporters *)
  system : System.t;
}

val run : spec -> result
val pp_phase_stats : Format.formatter -> phase_stats -> unit
