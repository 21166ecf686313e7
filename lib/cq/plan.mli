(** Shared-prefix batch evaluation of a rewriting union.

    [build] orders every body with the stats-aware {!Eval.order_atoms},
    alpha-normalises it (variables numbered by first occurrence over
    the ordered body, heads mapped through the same numbering), and
    folds the ordered bodies into a prefix trie: each query is one root-to-leaf
    path, internal nodes are shared join prefixes, and the node where a
    body ends carries the query's head template. Alpha-equivalent
    prefixes — the common case for sibling rewritings unfolded from the
    same mapping chains — collapse onto one path, and fully identical
    (body, head) queries collapse onto one emit point, so evaluation
    computes every shared prefix binding set exactly once.

    The trie is a compiled slot kernel. Variable [i] lives in slot [i]
    of one mutable value array per walk; every argument position is
    tagged as a constant, a slot bound by an ancestor, a slot bound
    here or a repeat within the atom (this compiled atom is also the
    trie key), and every head term as a constant, a slot or unbound
    (resolved from the numbering, so an unsafe head raises
    [Invalid_argument] at its first emit, as {!Eval.run} does). Slot liveness is computed once: a slot
    bound at a node is dead when no emit at or under the node and no
    atom below it reads it. At a node with a dead slot, matching rows
    that agree on the live slots are walked once per group, in
    first-occurrence order, with the group size carried as a
    multiplicity. Rows that agree on the live slots produce identical
    subtrees, so the answer set, the output's insertion order, the
    per-query counts and [cq.plan.bindings_reused] are exactly those of
    the row-at-a-time walk. Each emit probes one tuple-keyed set
    ({!Relalg.Relation.Tbl}) and copies its scratch head only when the
    tuple is new; the output is materialised with one
    {!Relalg.Relation.apply} per walk.

    Evaluation walks the trie depth-first; with [jobs > 1] the walk is
    sharded across top-level branches with {!Util.Pool} and per-branch
    partial results are merged in branch order, so the answer set and
    all reported counts are identical for every [jobs] (callers must
    freeze the database first, as for the other parallel sweeps).

    Instrumentation: [cq.plan.builds], [cq.plan.nodes],
    [cq.plan.shared_prefix_atoms] and [cq.plan.bindings_reused]
    counters (plus [cq.eval.arity_mismatch] for atoms whose arity
    disagrees with the stored relation), a [cq.plan.depth] histogram of
    per-query path depths, and [plan] / [trie_eval] spans on the
    caller's tracer. *)

type t

type build_stats = {
  queries : int;  (** queries folded into the trie *)
  nodes : int;  (** trie nodes (root excluded) *)
  shared_prefix_atoms : int;
      (** sum over nodes of (queries through the node - 1): the number
          of atom evaluations the trie shares away relative to
          per-rewriting evaluation, structurally *)
  duplicate_queries : int;
      (** queries whose canonical (body, head) duplicated an earlier
          one — they share an emit point *)
  max_depth : int;  (** longest root-to-leaf path *)
}

val build : ?trace:Obs.Trace.t -> Relalg.Database.t -> Query.t list -> t
(** Plan the union. Ordering consults {!Relalg.Stats} (cached per
    relation state), so building is cheap to repeat on an unchanged
    database. *)

val stats : t -> build_stats

val iter :
  ?trace:Obs.Trace.t -> Relalg.Database.t -> t ->
  (int -> Relalg.Relation.tuple -> int -> unit) -> unit
(** Walk the trie once, sequentially, with bag semantics: [f query head
    m] runs at every emit, where [query] is the input position, [head]
    the emitted head tuple and [m] how many satisfying assignments it
    stands for (above 1 only where a grouped node folded rows that
    agree on the live slots). Summing [m] per query gives
    [|Eval.run_bindings q|]. [head] is scratch, overwritten by the next
    emit: copy it to keep it. Raises [Invalid_argument] when an unsafe
    query emits. *)

val run_union_into :
  ?jobs:int -> ?trace:Obs.Trace.t -> Relalg.Relation.t ->
  Relalg.Database.t -> t -> int list
(** Walk the trie once and append every head tuple the accumulator does
    not hold yet, in first-emission order — the same distinct contents
    as {!Eval.run_union_into} over the original list, in one
    {!Relalg.Relation.apply}. Returns per-query pre-dedup tuple counts
    in input order — equal to [|Eval.run_bindings q|] per query and
    independent of [jobs]. Raises [Invalid_argument] when an unsafe
    query emits. With [jobs > 1] the caller must have frozen [db]. *)

val run_each :
  ?jobs:int -> ?trace:Obs.Trace.t -> Relalg.Database.t -> t ->
  Relalg.Relation.t list
(** Walk the trie once but give every query its own distinct-answer
    relation (schema from {!Eval.head_schema}), in input order —
    equivalent to [List.map (Eval.run db)] over the original list. Used
    by the distributed executor, which sizes per-rewriting shipments.
    Raises [Invalid_argument] when an unsafe query emits. With
    [jobs > 1] the caller must have frozen [db]. *)
