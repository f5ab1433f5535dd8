(** Abstract syntax of the regular-expression dialect.

    The engine supports the constructs needed by the regex-redux
    benchmark and general text workloads: literals, the any-byte wildcard,
    character classes (with ranges and negation), concatenation,
    alternation, and the [*], [+], [?] repetitions. *)

type t =
  | Empty  (** matches the empty string *)
  | Char of char
  | Any  (** [.] — any byte except newline *)
  | Class of { negated : bool; ranges : (char * char) list }
      (** [\[a-z0\]] style classes; a singleton char is the range (c, c) *)
  | Seq of t * t
  | Alt of t * t
  | Star of t
  | Plus of t
  | Opt of t

val equal : t -> t -> bool

val to_string : t -> string
(** A regex source string that re-parses to an equal AST. *)

val class_mem : negated:bool -> ranges:(char * char) list -> char -> bool
(** Membership test used by both the compiler and the tests. *)
