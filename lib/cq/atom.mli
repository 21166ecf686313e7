(** A relational atom [p(t1, ..., tn)]. *)

type t = { pred : string; args : Term.t list }

val make : string -> Term.t list -> t
val arity : t -> int
val vars : t -> string list
(** Distinct variable names, in order of first occurrence. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val map_terms : (Term.t -> Term.t) -> t -> t

val add_key : Buffer.t -> var:(string -> string) -> t -> unit
(** Append the atom's key to the buffer, with each variable written as
    [var] names it.  Two atoms get the same key only when they are equal
    after that renaming — provided no name [var] returns contains [',']
    or [')'] or starts with a quote.  Unlike {!to_string}, constants of
    different types ([1] and ['1']) never collide, nor do strings that
    hold the separators.  The one key for alpha-normalised queries:
    reformulation's goal memo and the answer cache both build on it. *)
