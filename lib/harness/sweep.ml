(* The domain-sharded fuzz matrix over the Pool domain pool.

   Determinism by construction: every job builds its own seeded System (no
   module-level state, see DESIGN.md), workers only *return* values — the
   coordinating domain shrinks, prints and writes files in canonical cell
   order — and the seed-space chunking is fixed independently of the
   domain count.  [-j 1] and [-j N] therefore report identical findings. *)

(* --- fuzz matrix ------------------------------------------------------------ *)

type fuzz_cell_result = {
  scenario : string;
  scheme : string;
  finding : Fuzz.finding option;
  fuzz_runs : int;
  shrink_runs : int;
}

(* Fixed chunks per cell, whatever [-j] is: the chunking (and each chunk's
   derived seed) defines which schedules get sampled, so it must not depend
   on the domain count. *)
let fuzz_chunks = 4

(* Distinct odd multiplier so chunk seeds don't collide with the per-cell
   seed derivation in bin/repro (which advances the base seed per cell). *)
let chunk_seed ~seed c = seed + (7919 * (c + 1))

let fuzz_matrix ~jobs ?(max_runs = 200) ?stop ~seed cells =
  let runs_per_chunk = max 1 (max_runs / fuzz_chunks) in
  (* one job per (cell, chunk); cells.chunks in canonical order *)
  let chunk_jobs =
    List.concat_map
      (fun (sc, scheme) ->
        List.init fuzz_chunks (fun c -> (sc, scheme, c)))
      cells
  in
  let run_chunk ((sc : Fuzz.scenario), scheme, c) =
    Fuzz.fuzz_scenario_raw ~max_runs:runs_per_chunk ?stop
      ~seed:(chunk_seed ~seed c) sc ~scheme
  in
  let chunk_results = Pool.map_exn ~jobs run_chunk chunk_jobs in
  (* regroup per cell, in cell order; first failing chunk (canonical chunk
     order) supplies the finding, shrunk here on the coordinator *)
  List.mapi
    (fun ci ((sc : Fuzz.scenario), scheme) ->
      let chunks =
        List.filteri
          (fun i _ -> i / fuzz_chunks = ci)
          chunk_results
      in
      let fuzz_runs =
        List.fold_left
          (fun acc (_, (st : Oamem_engine.Explore.fuzz_stats)) ->
            acc + st.Oamem_engine.Explore.fuzz_runs)
          0 chunks
      in
      let raw = List.find_map (fun (f, _) -> f) chunks in
      let finding, shrink_runs =
        match raw with
        | None -> (None, 0)
        | Some f ->
            let shrunk, replays = Fuzz.shrink_finding f in
            (Some shrunk, replays)
      in
      { scenario = sc.Fuzz.name; scheme; finding; fuzz_runs; shrink_runs })
    cells
