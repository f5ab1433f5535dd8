(** The experiment registry: every table and figure of the paper's
    evaluation, addressable by id. *)

type t = {
  id : string;
  title : string;
  paper_ref : string;
  run : ?quick:bool -> unit -> string;
}

val all : t list

val find : string -> t option

val ids : unit -> string list
