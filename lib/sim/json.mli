(** A minimal JSON reader.

    Just enough to read back the documents this codebase itself writes
    ({!Metrics.to_json} bench exports, {!Span.to_chrome} traces) in
    the regression-gate and trace-shape tooling — the toolchain has no
    JSON dependency, and pulling one in for a reader would be heavier
    than the reader.  Numbers are parsed as floats (the exports only
    contain numbers a float holds exactly).  There is no serializer:
    each writer prints its own document, sharing only {!escape}. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** members in document order *)

val parse : string -> (t, string) result
(** Errors carry a character offset and a short description. *)

val member : string -> t -> t option
(** First member of that name of an [Obj]; [None] otherwise. *)

val to_list : t -> t list
(** Elements of a [List]; [[]] otherwise. *)

val num : t -> float option
val str : t -> string option

val escape : string -> string
(** The body of a JSON string literal (no surrounding quotes): quote,
    backslash, newline and tab as two-character escapes, other control
    characters as [\u00XX]. *)
