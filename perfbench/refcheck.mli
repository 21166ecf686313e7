(** Reference answers the benchmark checks the program's outputs
    against.  They are computed from the generator's own relations,
    before the program sees the catalog text, and without reformulation,
    planning or the batched evaluator. *)

val union_db : (string * Relalg.Relation.t list) list -> Relalg.Database.t
(** [union_db [(name, rels); ...]] is a fresh database holding, under
    each [name], the distinct union of the tuples of [rels] (all of one
    arity; attributes [a0 .. a(k-1)]). *)

val union_join : (string * Relalg.Relation.t list) list -> string -> string list list
(** [union_join rels query] parses [query] (over the names of [rels])
    and evaluates it with [Cq.Eval.run] over {!union_db}: the answer a
    fully mapped PDMS owes at every peer when all its mappings are
    equalities over a connected graph.  Rows are rendered with
    {!Relalg.Value.to_string} and sorted, as
    [Pdms.Answer.answers_list] returns them. *)

val first_difference : string list list -> string list list -> string option
(** [first_difference expected actual] is [None] when the two row lists
    are equal, else a one-line description of the first difference. *)

val digest : string list -> string
(** Hex digest of a transcript (an ordered list of lines). *)

val same_prefix : string list -> string list -> bool
(** [same_prefix a b] compares the first [min (length a) (length b)]
    entries of two transcripts; [false] if either is empty. *)
