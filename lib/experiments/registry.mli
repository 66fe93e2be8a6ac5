(** The experiment registry: every figure, table and analysis of the
    reproduction as data.

    Each entry packages an experiment's whole lifecycle — a typed [run]
    producing the experiment's artifact, the human-readable [render],
    and its [sheets]: per sheet, the rows the artifact yields and one
    list of typed columns, each a name, a kind and the extractor that
    reads the column's value from a row.  That one definition drives the
    CSV {e and} JSON emitters.  [bin/main.ml] is a generic dispatcher
    over {!all}; adding an experiment, or a new output backend, is a
    one-module change.

    Invariants:
    - every sheet row matches its column list in arity and kind by
      construction: a row's values are its columns' extractors applied
      to it, and a column is built only by the typed constructors in
      [registry.ml] ([str], [int], [flt], [bool], [int_opt]);
    - entry names are unique, non-empty, and [a-z0-9_] only, and CSV
      filenames are unique across the whole registry (checked by
      [test/test_registry.ml]);
    - every entry renders non-empty text, and its text and JSON export
      at the golden context are pinned by [test/test_golden.ml]. *)

type value =
  | S of string
  | I of int
  | F of float
      (** Rendered with {!Rs_util.Csv.float_field} in both CSV and JSON, so
          the two formats agree on precision; non-finite values become
          ["inf"]/["-inf"]/["nan"] in CSV and [null] in JSON. *)
  | B of bool
  | Null  (** An empty CSV field / JSON [null] (e.g. "not applicable"). *)

type kind = Str | Int | Float | Bool

type column = { col : string; kind : kind }

type row = value list

type 'r field = private { column : column; get : 'r -> value }
(** A typed column over rows of type ['r]: its header and the extractor
    that reads its value, of the header's kind, from a row. *)

type 'a sheet =
  | Sheet : {
      sheet : string;  (** CSV filename suffix: [<entry>_<sheet>.csv]. *)
      rows : 'a -> 'r list;
      columns : 'r field list;
    }
      -> 'a sheet

type 'a spec = {
  name : string;
  description : string;  (** The one-liner [rspec list] prints. *)
  paper_ref : string;  (** Where in the paper the artifact comes from. *)
  run : Context.t -> 'a;
  render : 'a -> string;
  sheets : 'a sheet list;
}

type entry = Entry : 'a spec -> entry

val all : entry list
(** Every experiment, in [rspec all] (paper) order. *)

val name : entry -> string
val description : entry -> string

val find : string -> entry option

val glob_matches : pattern:string -> string -> bool
(** Shell-style matching with [*] (any substring) and [?] (any single
    character); no character classes. *)

val select : string list -> (entry list, string) result
(** Resolve a mix of names and glob patterns against the registry.  The
    result is in registry order with duplicates collapsed; the empty
    pattern list selects everything.  [Error] names the first pattern
    that matches no entry. *)

(** {2 Running} *)

type output = {
  entry : entry;
  text : string;  (** The rendered experiment. *)
  tables : (string * column list * row list) list;
      (** Materialised sheets: [(sheet, columns, rows)]. *)
}

val execute : Context.t -> entry -> output
(** Run one experiment and materialise its render and sheets.  Labelled
    with the registry name: bumps [experiment.ok] (or
    [experiment.failed], re-raising) plus the per-experiment
    [experiment.runs.<name>] counter in {!Rs_obs.Metrics}, and emits an
    ["experiment"] {!Rs_obs.Trace} event with the name and status. *)

val execute_all : Context.t -> entry list -> (entry * (output, exn) result) list
(** Run the entries over the context's {!Rs_util.Pool} (each experiment
    also fans out internally on the same pool and shares {!Cache}
    artifacts), returning results in input order.  A raising experiment
    is isolated as [Error]; with [jobs = 1] the runs are strictly
    sequential in input order. *)

(** {2 Emitters (all derived from the sheet schema)} *)

val csv_files : output -> (string * string) list
(** [(filename, contents)] per sheet, named [<entry>_<sheet>.csv]. *)

val json_of_output : output -> string
(** One experiment as a JSON object:
    [{"name","description","paper_ref","tables":{<sheet>:{"columns":
    [{"name","kind"}],"rows":[[v,...],...]}}}]. *)

val json_document : Context.t -> output list -> string
(** A whole run:
    [{"context":{"seed","scale","tau"},"experiments":[...]}]
    — the [--format json] stdout document, one line per experiment. *)
