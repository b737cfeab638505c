(** Value-level reporting: a report is a {!doc} — an ordered list of
    sections, free text, aligned tables, ASCII line charts and file
    artifacts — built by pure constructors and rendered later.

    Experiments render docs instead of printing (see {!Experiments.t}), so
    their cells can run on separate domains and the coordinator can merge
    their output deterministically: rendering a list of docs in canonical
    order is byte-identical no matter how many domains produced the
    results ({!Experiments.run}). *)

type table = { header : string list; rows : string list list }

type chart = {
  width : int;
  height : int;
  title : string;
  xlabel : string;
  ylabel : string;
  xs : int list;  (** ordinal x positions (thread counts) *)
  series : (string * float list) list;  (** one letter per series *)
}

(** A file the report wants written as a side output (CSV dump, JSON
    garbage curve, Chrome trace).  Held as a value so worker domains never
    touch the filesystem; the coordinator writes artifacts in canonical
    order via {!write_artifacts}. *)
type artifact = {
  filename : string;
  in_dir : bool;
      (** [true]: relative to the artifact directory (the [--csv] dir) and
          written only when one is given; [false]: an exact path the user
          asked for (e.g. [--trace FILE]), always written *)
  content : string;
}

type item =
  | Section of string
  | Text of string  (** verbatim, including its own newlines *)
  | Table of table
  | Chart of chart
  | Artifact of artifact

type doc = item list

(** {2 Constructors} *)

val section : string -> item
val text : string -> item

val textf : ('a, unit, string, item) format4 -> 'a
(** [textf fmt ...] is [text (Printf.sprintf fmt ...)]. *)

val table : header:string list -> string list list -> item

val chart :
  ?width:int ->
  ?height:int ->
  title:string ->
  xlabel:string ->
  ylabel:string ->
  xs:int list ->
  (string * float list) list ->
  item

val csv : filename:string -> header:string list -> string list list -> item
(** A CSV artifact destined for the artifact directory, formatted by
    {!Oamem_obs.Export.csv}: raises [Invalid_argument] on a ragged row. *)

val artifact : ?in_dir:bool -> filename:string -> string -> item
(** Raw artifact; [in_dir] defaults to [true]. *)

val json_artifact :
  ?in_dir:bool -> filename:string -> Oamem_obs.Json.t -> item

(** {2 Rendering} *)

val render_item : Buffer.t -> item -> unit
(** Artifacts render nothing — they only carry file content. *)

val to_string : doc -> string

val render : out_channel -> doc -> unit
(** [render oc doc] writes the doc's textual form to [oc]; identical to
    [output_string oc (to_string doc)]. *)

val artifacts : doc -> artifact list

val write_artifacts : ?dir:string -> doc -> string list
(** Write the doc's artifacts and return the paths written: [in_dir]
    artifacts go under [dir] (created if missing; skipped when no [dir] is
    given — the [--csv] gating), exact-path artifacts are always written. *)

val to_json : doc -> Oamem_obs.Json.t
(** Structural JSON export of the doc (sections, tables, charts and
    artifact names — not artifact contents). *)
