(** Matching a query subgoal into a view body — the shared machinery of
    the Bucket and MiniCon algorithms.

    A cover state records where each query variable goes (a view term)
    and what the view's own variables are bound to (head-homomorphism
    equalities and constant constraints). The two live apart, so a
    view's variables may share names with the query's: views are used
    as defined, never renamed. *)

type state

val empty : state

val match_subgoal :
  view:Cq.Query.t -> state -> Cq.Atom.t -> Cq.Atom.t -> state option
(** [match_subgoal ~view st g b] extends [st] so that query subgoal [g]
    is covered by view body atom [b]. Fails when it would require
    equating existential view variables or binding an existential view
    variable to a constant. *)

val image : state -> string -> Cq.Term.t option
(** [image st x] is the (resolved) view-side image of query variable
    [x], or [None] if [x] is not mapped. *)

val resolve : state -> Cq.Term.t -> Cq.Term.t
(** Resolve a view-side term through the view-variable bindings. *)

val resolved_bindings :
  state -> (string * Cq.Term.t) list * (string * Cq.Term.t) list
(** Every query-variable image and every view-variable binding, each
    resolved and sorted by variable: two states with equal results
    cover alike. *)

val maps_to_existential : view:Cq.Query.t -> state -> string -> bool
(** Does query variable [x] map to an existential variable of [view]? *)
