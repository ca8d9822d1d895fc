(** A minimal YAML-subset parser, sufficient for ALICE configuration
    files: nested block maps, block lists, scalars, [#] comments, inline
    flow lists. Anchors, aliases, multi-documents and block scalars are
    not supported. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Map of (string * t) list

exception Parse_error of int * string  (** line number, message *)

(** Parse a document. Raises {!Parse_error}. *)
val parse : string -> t

(** Look up a key in a map node; [None] for other nodes or absent keys. *)
val find : t -> string -> t option

(** Typed accessors: return the value under [key], the [default] when the
    key is absent or null, and raise [Invalid_argument] on a type
    mismatch (or a missing key without default). *)

val get_int : ?default:int -> t -> string -> int

val get_string : ?default:string -> t -> string -> string

val get_string_list : ?default:string list -> t -> string -> string list

(** A list of ints; a bare scalar is accepted as a one-element list
    (so [lut_inputs: 4] and [lut_inputs: \[4, 6\]] both work as sweep
    axes). *)
val get_int_list : ?default:int list -> t -> string -> int list

(** A list of floats; ints are promoted, a bare scalar is accepted as a
    one-element list. *)
val get_float_list : ?default:float list -> t -> string -> float list

val to_string : t -> string

(** [merge base overlay] deep-merges two documents: maps are merged key
    by key (recursively; base key order kept, overlay-only keys
    appended), any other overlay node replaces the base node, and a
    [Null] overlay leaves the base value untouched. Used to expand a
    sweep entry over its base configuration. *)
val merge : t -> t -> t
