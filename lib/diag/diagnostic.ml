type severity = Error | Warning | Info

type location =
  | Device
  | Portion of int
  | Region of string
  | Reloc of string
  | Area of string * int
  | Variable of string
  | Constraint of string
  | Family of string
  | Design
  | Model
  | File of string
  | Env of string
  | Source of string * int
  | Sync of string
  | Schedule of string
  | Trace of int
  | Strategy of string
  | Http of string
  | Layout of string

type t = {
  code : string;
  severity : severity;
  location : location;
  message : string;
}

let diagf ~code severity location fmt =
  Format.kasprintf (fun message -> { code; severity; location; message }) fmt

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let location_to_string = function
  | Device -> "device"
  | Portion i -> Printf.sprintf "portion %d" i
  | Region r -> Printf.sprintf "region(%s)" r
  | Reloc r -> Printf.sprintf "reloc(%s)" r
  | Area (r, i) -> Printf.sprintf "area(%s/%d)" r i
  | Variable v -> Printf.sprintf "var(%s)" v
  | Constraint c -> Printf.sprintf "row(%s)" c
  | Family f -> Printf.sprintf "family(%s)" f
  | Design -> "design"
  | Model -> "model"
  | File p -> Printf.sprintf "file(%s)" p
  | Env v -> Printf.sprintf "env(%s)" v
  | Source (f, l) -> Printf.sprintf "%s:%d" f l
  | Sync o -> Printf.sprintf "sync(%s)" o
  | Schedule s -> Printf.sprintf "schedule(%s)" s
  | Trace l -> Printf.sprintf "trace line %d" l
  | Strategy s -> Printf.sprintf "strategy(%s)" s
  | Http h -> Printf.sprintf "http(%s)" h
  | Layout m -> Printf.sprintf "layout(%s)" m

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let compare a b =
  match Stdlib.compare (severity_rank a.severity) (severity_rank b.severity) with
  | 0 -> (
    match Stdlib.compare a.code b.code with
    | 0 -> Stdlib.compare a.message b.message
    | c -> c)
  | c -> c

let errors ds = List.filter (fun d -> d.severity = Error) ds
let has_errors ds = List.exists (fun d -> d.severity = Error) ds
let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)

let pp ppf d =
  Format.fprintf ppf "%s %-7s %s: %s" d.code
    (severity_to_string d.severity)
    (location_to_string d.location)
    d.message

(* minimal atom quoting for the s-expression output *)
let sexp_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' -> Buffer.add_char buf '\\'; Buffer.add_char buf c
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let location_to_sexp = function
  | Device -> "(device)"
  | Portion i -> Printf.sprintf "(portion %d)" i
  | Region r -> Printf.sprintf "(region %s)" (sexp_string r)
  | Reloc r -> Printf.sprintf "(reloc %s)" (sexp_string r)
  | Area (r, i) -> Printf.sprintf "(area %s %d)" (sexp_string r) i
  | Variable v -> Printf.sprintf "(variable %s)" (sexp_string v)
  | Constraint c -> Printf.sprintf "(constraint %s)" (sexp_string c)
  | Family f -> Printf.sprintf "(family %s)" (sexp_string f)
  | Design -> "(design)"
  | Model -> "(model)"
  | File p -> Printf.sprintf "(file %s)" (sexp_string p)
  | Env v -> Printf.sprintf "(env %s)" (sexp_string v)
  | Source (f, l) -> Printf.sprintf "(source %s %d)" (sexp_string f) l
  | Sync o -> Printf.sprintf "(sync %s)" (sexp_string o)
  | Schedule s -> Printf.sprintf "(schedule %s)" (sexp_string s)
  | Trace l -> Printf.sprintf "(trace %d)" l
  | Strategy s -> Printf.sprintf "(strategy %s)" (sexp_string s)
  | Http h -> Printf.sprintf "(http %s)" (sexp_string h)
  | Layout m -> Printf.sprintf "(layout %s)" (sexp_string m)

let to_sexp d =
  Printf.sprintf "((code %s) (severity %s) (location %s) (message %s))" d.code
    (severity_to_string d.severity)
    (location_to_sexp d.location)
    (sexp_string d.message)

let summary ds =
  let plural n what = Printf.sprintf "%d %s%s" n what (if n = 1 then "" else "s") in
  Printf.sprintf "%s, %s, %s"
    (plural (count Error ds) "error")
    (plural (count Warning ds) "warning")
    (plural (count Info ds) "info")

let pp_report ppf ds =
  let ds = List.sort compare ds in
  List.iter (fun d -> Format.fprintf ppf "%a@." pp d) ds;
  Format.fprintf ppf "%s@." (summary ds)

let report_to_sexp ds =
  let ds = List.sort compare ds in
  Printf.sprintf "(%s)" (String.concat "\n " (List.map to_sexp ds))

let all_codes =
  [
    ("RF001", Error, "columnar portions violate Property .4 (left-to-right order / full-width tiling)");
    ("RF002", Error, "adjacent columnar portions share a tile type (Property .3)");
    ("RF003", Error, "forbidden area outside the device bounds");
    ("RF004", Error, "a region's demand exceeds the device's usable tiles of some kind");
    ("RF005", Error, "summed region demands exceed the device's usable tiles of some kind");
    ("RF006", Error, "relocation request provably unsatisfiable: fewer compatible windows than requested areas");
    ("RF007", Warning, "relocation request likely unsatisfiable: disjoint-window estimate below requested areas");
    ("RF008", Error, "dangling reference: net endpoint or relocation target names no region");
    ("RF009", Error, "region unplaceable: no rectangle on the device satisfies its demand");
    ("RF010", Error, "device not columnar-partitionable (mixed column or entirely-forbidden column)");
    ("RF101", Info, "empty constraint row (no terms after normalization)");
    ("RF102", Warning, "duplicate constraint row (same terms, sense and right-hand side)");
    ("RF103", Info, "dominated constraint row (same terms and sense, weaker right-hand side)");
    ("RF104", Info, "variables fixed by equal lower and upper bounds");
    ("RF105", Warning, "integer variable with an infinite bound (unbranchable box)");
    ("RF106", Error, "row infeasible under variable bounds (or conflicting equality rows)");
    ("RF107", Warning, "ill-conditioned constraint family: coefficient magnitude spread suggests a degenerate big-M");
    ("RF201", Error, "free-compatible area height differs from its region (Eq. 6)");
    ("RF202", Error, "free-compatible area covers a different number of portions than its region (Eq. 7)");
    ("RF203", Error, "free-compatible area tile-type sequence differs from its region (Eq. 8/10)");
    ("RF204", Error, "free-compatible area per-portion tile counts differ from its region (Eq. 9)");
    ("RF205", Error, "free-compatible area is not free (overlap or out of bounds)");
    ("RF206", Error, "hard relocation request satisfied by fewer areas than requested");
    ("RF207", Info, "soft relocation request satisfied by fewer areas than requested");
    ("RF208", Error, "invalid placement (missing/duplicate region, overlap, forbidden, or unmet demand)");
    ("RF301", Error, "device file unreadable or malformed");
    ("RF302", Error, "design file unreadable or malformed, or a weight negative or not finite");
    ("RF303", Error, "MPS model file unreadable or malformed");
    ("RF304", Warning, "RFLOOR_BENCH_BUDGET malformed or non-positive; defaulted/clamped");
    ("RF401", Error, "raw Mutex primitive used outside lib/sync (use Rfloor_sync.Mutex)");
    ("RF402", Error, "raw Condition primitive used outside lib/sync (use Rfloor_sync.Condition)");
    ("RF403", Error, "raw Atomic primitive used outside lib/sync (use Rfloor_sync.Atomic)");
    ("RF410", Error, "data race: conflicting unordered accesses to a shared cell (vector-clock analysis)");
    ("RF411", Warning, "shared cell accessed by several domains with an empty common lockset");
    ("RF420", Error, "interleaving explorer found a schedule violating a scenario safety property");
    ("RF421", Error, "interleaving explorer exceeded its schedule budget before exhausting the scenario");
    ("RF430", Error, "trace event line unparsable");
    ("RF431", Error, "trace span nesting unbalanced or out of order");
    ("RF432", Error, "per-worker trace timestamps not monotone");
    ("RF433", Error, "incumbent objective not monotone within a branch-and-bound segment");
    ("RF434", Error, "trace counter conservation violated (nodes vs. spans, steal tasks vs. frontier)");
    ("RF435", Error, "duplicate Stopped event for one stop reason within a solve segment");
    ("RF501", Warning, "portfolio member budget exceeds the portfolio budget; clamped to the global deadline");
    ("RF502", Error, "strategy string unparsable (expected milp[:W] | milp-ho[:W] | combinatorial | lns[:SEED] | portfolio:[...], optional @SECONDS budget)");
    ("RF601", Error, "telemetry endpoint unusable (bad --telemetry port, or bind/listen failed)");
    ("RF602", Warning, "malformed HTTP request on the telemetry endpoint; answered 400 and kept serving");
    ("RF603", Warning, "progress interval malformed or out of range; clamped/defaulted");
    ("RF701", Error, "online arrival rejected: no free-compatible rectangle, and defragmentation cannot admit it");
    ("RF702", Error, "online request names a duplicate or unknown module");
    ("RF703", Error, "online request before a layout device was established");
    ("RF704", Warning, "defragmentation fell back to a full re-placement solve (no-break guarantee waived)");
    ("RF705", Error, "planned relocation refused by the bitstream relocation filter");
    ("RF706", Warning, "online search bound malformed or out of range; clamped/defaulted");
  ]

let describe code =
  List.find_map
    (fun (c, _, d) -> if String.equal c code then Some d else None)
    all_codes
