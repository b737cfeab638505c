(** The shared domain pool under {!Experiments.run} and
    {!Sweep.fuzz_matrix}: a deterministic parallel [map]
    over OCaml 5 [Domain]s.

    Jobs are claimed from an atomic counter, each worker writes only its
    own result slots, and [Domain.join] publishes them to the caller —
    results always come back in input order, so callers can merge output
    deterministically regardless of the domain count. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> ('b, string) result list
(** [map ~jobs f items]: apply [f] to every item on at most [jobs] worker
    domains ([jobs <= 1] runs inline on the calling domain).  A job that
    raises yields [Error (Printexc.to_string exn)]; the others still
    complete. *)

val map_exn : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Like {!map} but raises [Failure] describing the first failed job
    (by its input index). *)
