(** The experiment registry: one entry per table/figure of the paper's
    evaluation plus the mechanism experiments and ablations (see DESIGN.md
    for the index).

    An experiment is data: a list of independent cells plus a pure render
    from their results to a {!Report.doc} (sections, tables, charts,
    artifacts).  {!run} shards the cells of every selected experiment
    across one pool of worker domains and renders the docs in canonical
    order, so output is byte-identical at any job count. *)

type config = {
  threads : int list;
  horizon_cycles : int;
  fig4_size : int;  (** paper: 5K list nodes; scaled default for runtime *)
  fig6_size : int;  (** paper: 1M hash nodes; scaled default for runtime *)
  schemes : string list;
  seed : int;
  csv_dir : string option;
      (** artifact directory the *driver* writes [in_dir] artifacts into
          (via {!Report.write_artifacts}); experiments emit the artifacts
          either way *)
  trace_out : string option;
      (** throughput figures: emit a Chrome trace_event JSON artifact of
          the designated run (last scheme at the highest thread count) *)
  metrics_out : string option;
      (** throughput figures: emit the designated run's metrics snapshot
          as a JSON artifact *)
  sanitize : bool;
      (** run the fault-matrix experiment under the memory-lifecycle
          sanitizer (CI nightly leg) *)
}

(** Configuration builder: [Config.make ()] is {!default_config}; keyword
    arguments override individual fields, so adding a config field does not
    break construction sites (mirrors [System.Config.make]). *)
module Config : sig
  type t = config

  val make :
    ?threads:int list ->
    ?horizon_cycles:int ->
    ?fig4_size:int ->
    ?fig6_size:int ->
    ?schemes:string list ->
    ?seed:int ->
    ?csv_dir:string ->
    ?trace_out:string ->
    ?metrics_out:string ->
    ?sanitize:bool ->
    unit ->
    config
end

val default_config : config
(** [Config.make ()]. *)

val quick_config : config
(** A faster preset for smoke runs (fewer thread counts, shorter horizon,
    smaller structures). *)

(** {2 Cells} *)

type 'a cells
(** Independent jobs plus the pure function that turns their results, in
    job order, into an ['a].  Every job builds its own seeded system, so
    jobs may run on any domain in any order. *)

val grid : 'k list -> ('k -> 'r) -> ('k * 'r) list cells
(** One job per key; the results come back tagged with their key, in key
    order. *)

val map : ('a -> 'b) -> 'a cells -> 'b cells

type t = {
  id : string;
  title : string;
  paper_ref : string;
  expected : string;  (** the paper's expected shape, stated up front *)
  plan : config -> Report.doc cells;
}

val run :
  jobs:int -> config -> t list -> (string * (Report.doc, string) result) list
(** [run ~jobs cfg exps] runs the cells of every experiment through one
    pool of at most [jobs] domains and returns [(id, doc)] per experiment
    in list order.  A failing cell or render gives that experiment
    [Error msg] (the first failing cell's exception, in cell order); the
    others still complete. *)

val all : t list

val find : string -> t
(** Raises [Invalid_argument] for unknown ids. *)
