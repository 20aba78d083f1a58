(** Minimal JSON value type used by the observability plane to emit and
    re-read its own artifacts (snapshot JSONL lines, [/health] documents)
    without an external dependency.

    Numbers are floats: counter values survive exactly up to [2^53]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering (no whitespace); object keys keep their order. *)

val add : Buffer.t -> t -> unit
(** Append {!to_string}'s rendering to a buffer — for callers that render
    many documents and reuse one buffer. *)

val of_string : string -> (t, string) result
(** Parse one complete JSON value; trailing garbage is an error. Handles
    everything {!to_string} emits (escapes included). *)

val member : string -> t -> t option
(** First binding of the key in an object; [None] on non-objects. *)

val to_float : t -> float option

val to_str : t -> string option

val to_list : t -> t list option
