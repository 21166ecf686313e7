(** Counting-based incremental maintenance of a materialised union of
    conjunctive views under updategrams — "updategrams on base data can
    be combined to create updategrams for views" (Section 3.1.2).

    Each view row carries its derivation count: the number of distinct
    (view, assignment) pairs that derive it over the stored rows'
    support, so deletions are exact without recomputation. All
    evaluation goes through one {!Cq.Plan} walk: {!refresh} walks the
    union itself, and a gram walks the delta union — one copy of each
    view per occurrence of the updated relation and per row whose
    support changes, with that atom grounded to the row and dropped.
    Each distinct derivation is counted once per walk, so one reading
    several changed rows, or one row at several occurrences, moves its
    row's count by exactly one. *)

type t

val create : ?exec:Exec.t -> Relalg.Database.t -> Cq.Query.t list -> t
(** Materialise the union over the database. The database is captured
    by reference: all subsequent updates must flow through {!apply} or
    {!apply_all} (or be followed by {!refresh}). The execution context
    (default {!Exec.default}) governs later {!apply} calls that don't
    override it. Raises [Invalid_argument] on an unsafe view or on
    views whose heads differ in arity. *)

val tuples : t -> Relalg.Relation.tuple list
(** The distinct rows of the union. *)

val cardinality : t -> int

val apply : ?exec:Exec.t -> t -> Updategram.t -> unit
(** [apply_all] over the view's own database and this view alone;
    [exec] defaults to the context given at {!create}. *)

val apply_all :
  ?exec:Exec.t -> Relalg.Database.t -> t list -> Updategram.t -> unit
(** The one mutation path for updategrams: take the gram's
    {!Updategram.effective_delta}, uncount every view's derivations of
    the rows whose last copy it deletes, apply the delta with one
    {!Relalg.Relation.apply}, then count the derivations of the rows
    it adds back into the support. Every view must be over [db]; with
    no views the gram is still applied. Records a [view.maintain] span
    on [exec.trace] (default {!Exec.default}) with the [plan] and
    [trie_eval] spans of each walk under it. Missing relation raises
    [Not_found]. *)

val refresh : t -> unit
(** Full recomputation from the current database state, under a
    [view.refresh] span on the {!create} context's tracer. *)

val delta_bindings_processed : t -> int
(** Total derivations counted or uncounted by incremental maintenance —
    the work metric the E9 benchmark reports against recomputation. *)
