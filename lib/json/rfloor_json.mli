(** The repository's one JSON codec: metrics snapshots, the
    [/statusz] document, the Perfetto export, [rfloor-service/1]
    frames and JSONL trace lines all parse here.

    It lives in its own dependency-free library, like {!Rfloor_diag},
    so that {!Rfloor_trace} below the metrics layer can share it.

    The parser accepts full JSON (nested objects, arrays, escapes).  It
    rejects duplicate object keys, trailing characters and non-finite
    number literals such as [1e999] (JSON has no infinities; the
    writer here and the trace's JSONL printer encode [nan]/[inf] as
    [null]).  A [\u] escape above ASCII folds to ['?']. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** key order preserved; keys unique *)

val parse : string -> (t, string) result
(** Parses a complete document; trailing non-whitespace is an error.
    Errors carry a character offset. *)

val to_string : t -> string
(** Compact (no whitespace).  Integral numbers with magnitude below
    [1e15] print without a decimal point, so counters survive a
    parse/print round trip byte-identically. *)

val num_to_string : float -> string
(** The number rendering {!to_string} uses ([null] for non-finite). *)

val escape : string -> string
(** The body of a JSON string literal, without its quotes: ['"'],
    ['\\'] and control characters escaped, everything else verbatim. *)

(** {1 Accessors} — each returns [Error] naming the missing/mistyped
    field, for building validators. *)

val member : string -> t -> t option
(** [member k (Obj ...)] — [None] on absent key or non-object. *)

val int_of_num : float -> int option
(** [Some n] when the number is integral and inside the int range
    ([[-2^62, 2^62)] on 64-bit hosts), [None] otherwise: the one
    checked conversion for every integer read from JSON. *)

val get_string : string -> t -> (string, string) result
val get_num : string -> t -> (float, string) result
val get_int : string -> t -> (int, string) result
(** Through {!int_of_num}. *)

val get_arr : string -> t -> (t list, string) result

val get_num_opt : string -> t -> (float option, string) result
(** Absent or [null] is [Ok None]; a non-number is an error. *)
