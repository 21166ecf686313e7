(** The MiniCon algorithm (Pottinger & Halevy, VLDB J. 2001) for
    answering queries using views — the core of LAV-direction query
    reformulation in the PDMS.

    Phase 1 forms MiniCon descriptions (MCDs): minimal view covers of
    query subgoals satisfying the distinguished-variable conditions.
    Phase 2 combines MCDs with disjoint subgoal coverage into conjunctive
    rewritings over the view predicates. The union of the produced
    rewritings is the maximally-contained rewriting of the query. *)

type stats = {
  mcds_formed : int;
  combinations_tried : int;
  rewritings_produced : int;
}

val rewrite : views:Cq.Query.t list -> Cq.Query.t -> Cq.Query.t list * stats
(** [rewrite ~views q] returns contained rewritings of [q] over the view
    predicates. Views are used as defined: their variables may share
    names with [q]'s and with each other's. A view none of whose body
    predicates occurs in [q] forms no MCD, so dropping it from [views]
    changes neither the rewritings, nor their order, nor the stats —
    the PDMS reformulator passes only the views its catalog indexes
    under the query's predicates. View heads must use distinct
    predicate names from base relations. *)

val expand : views:Cq.Query.t list -> Cq.Query.t -> Cq.Query.t list
(** Expand a rewriting back to base predicates by unfolding view
    definitions (used for verification and end-to-end evaluation). *)

val is_contained_rewriting : views:Cq.Query.t list -> Cq.Query.t -> Cq.Query.t -> bool
(** [is_contained_rewriting ~views r q]: does [r]'s expansion hold only
    answers of [q]? *)
