(** Assembling a candidate rewriting from per-view cover pieces.

    Both Bucket and MiniCon end with the same construction problem: given
    a set of views, each covering some query subgoals under a cover
    state, emit a conjunctive query over the view predicates whose head
    is the original query head. *)

type piece
(** One view covering some query subgoals under a cover state.
    Everything {!assemble} reads from it is computed when the piece is
    made, so a piece can take part in many combinations cheaply. *)

val piece : view:Cq.Query.t -> state:Cover.state -> covered:int list
  -> query:Cq.Query.t -> piece
(** [covered] are the indices of the query subgoals the view covers. *)

val covered : piece -> int list

val assemble : fresh:(unit -> string) -> Cq.Query.t -> piece list -> Cq.Query.t option
(** [assemble ~fresh q pieces] builds the rewriting, or [None] when the
    pieces impose conflicting constant constraints or fail to expose a
    distinguished variable of [q]. *)
