(** The domain-sharded fuzz matrix (experiment cells are sharded by
    {!Experiments.run}; both go through {!Pool}).

    Each (scenario, scheme) cell's run budget is split into a fixed number
    of chunks with derived, disjoint seeds; chunks are the unit of
    domain-level parallelism.  The chunking is independent of [jobs], so
    [-j 1] and [-j N] sample exactly the same schedules and report
    identical findings.  Workers fuzz without shrinking; findings are
    shrunk afterwards on the coordinating domain. *)

type fuzz_cell_result = {
  scenario : string;
  scheme : string;
  finding : Fuzz.finding option;
      (** first failing chunk in canonical chunk order, shrunk on the
          coordinator *)
  fuzz_runs : int;  (** summed over the cell's chunks *)
  shrink_runs : int;  (** spent shrinking, on the coordinator *)
}

val fuzz_chunks : int
(** Seed-space chunks per (scenario, scheme) cell. *)

val fuzz_matrix :
  jobs:int ->
  ?max_runs:int ->
  ?stop:(unit -> bool) ->
  seed:int ->
  (Fuzz.scenario * string) list ->
  fuzz_cell_result list
(** Fuzz every (scenario, scheme) cell across [jobs] domains; results are
    in cell order.  [max_runs] is the per-cell budget (split across the
    cell's chunks).  [stop] is polled by every worker for wall-clock
    time-boxing; a time-boxed run is *not* deterministic across [jobs]
    (workers race the deadline) — determinism holds when [stop] is
    absent. *)
