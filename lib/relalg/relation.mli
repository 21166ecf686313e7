(** An in-memory relation: a schema and a bag of tuples in insertion
    order, with a hash-set membership structure (O(1) [mem]) and
    per-column hash indexes.  Indexes are built lazily and maintained
    incrementally on insertion; deletion drops them.

    {b Mutation is unified}: every change goes through {!apply} with an
    explicit {!Delta.t} (a folded multiset of row insertions and
    removals).  Each effective application bumps {!version} by one and
    is retained in a bounded in-relation delta log, so derived
    structures (indexes, statistics, caches, replicas) can ask
    {!deltas_since} "what changed since the version I saw" and patch
    themselves instead of rebuilding — falling back to a rebuild only
    when the log was truncated. *)

type tuple = Value.t array
type t

val tuple_equal : tuple -> tuple -> bool
(** Same arity and {!Value.equal} position by position. *)

module Tbl : Hashtbl.S with type key = tuple
(** Hash tables keyed on whole tuples under {!tuple_equal} — the
    structure behind {!mem}.  Use it wherever tuples are deduplicated or
    counted: keys never pass through a rendering, so [Int 1] and
    [Str "1"] stay apart. *)

(** First-class change descriptions: what {!apply} consumes and what
    the retained log stores.  [adds] and [dels] are multisets (a tuple
    may appear several times); applying means "remove one copy per
    [dels] occurrence, then append one copy per [adds] occurrence, in
    list order". *)
module Delta : sig
  type t

  val empty : t
  val add : tuple -> t
  (** Single-row insertion. *)

  val remove : tuple -> t
  (** Single-copy removal. *)

  val of_rows : tuple list -> t
  (** Insert-only delta, rows appended in list order. *)

  val removes : tuple list -> t

  val make : ?adds:tuple list -> ?dels:tuple list -> unit -> t
  (** Removals are applied before additions. *)

  val adds : t -> tuple list
  val dels : t -> tuple list
  val is_empty : t -> bool

  val size : t -> int
  (** [List.length adds + List.length dels]. *)

  val compose : t -> t -> t
  (** [compose a b]: [b] happens after [a].  Add-then-del pairs cancel
      exactly (the row was never observable); del-then-add pairs are
      both kept so positional consumers see both events. *)
end

val create : Schema.t -> t
val schema : t -> Schema.t
val cardinality : t -> int

val uid : t -> int
(** Process-unique id of this relation instance ([copy] and
    [of_tuples] mint fresh ones) — a stable key for external caches. *)

val version : t -> int
(** Mutation counter: bumped once by every {e effective} {!apply} and by
    [clear].  [(uid, version)] identifies a relation {e state}; caches
    keyed on it are invalidated by any change to the contents. *)

val apply : t -> Delta.t -> unit
(** The single mutation entry point.  Removals first: one copy per
    [dels] occurrence (absent tuples are ignored), order-preserving.
    Then additions: one copy appended per [adds] occurrence (bag
    semantics — callers wanting set semantics guard with {!mem}).
    Raises [Invalid_argument] on arity mismatch.  An application with
    no effect (e.g. removals of absent tuples only) does not bump the
    version.  The {e effective} delta — what actually changed — is
    retained in the delta log for {!deltas_since}. *)

val deltas_since : t -> int -> Delta.t list option
(** [deltas_since t v] is the chronological list of effective deltas
    that lead from state [v] to the current state — [Some []] when
    [v = version t] — or [None] when the log no longer reaches back to
    [v] (capacity truncation, or a [clear]), in which case the caller
    must rebuild from the current contents. *)

val delta_floor : t -> int
(** Oldest version still reconstructible from the delta log;
    [deltas_since t v] is [None] exactly when [v < delta_floor t]. *)

val mem : t -> tuple -> bool
(** Constant-time membership via the internal tuple hash set. *)

val multiplicity : t -> tuple -> int
(** How many copies of the tuple the relation holds (0 when absent),
    in constant time. *)

val tuples : t -> tuple list
(** All rows, oldest first (insertion order).  Memoised per version —
    O(1) on repeated calls against an unchanged relation. *)

val iter : (tuple -> unit) -> t -> unit
val fold : ('a -> tuple -> 'a) -> 'a -> t -> 'a

val find_by : t -> int -> Value.t -> tuple list
(** [find_by t col v] returns tuples whose [col]-th value equals [v],
    via a lazily built hash index. *)

val find_by_bound : t -> (int * Value.t) list -> tuple list
(** Candidate tuples for a conjunction of column bindings: the two most
    selective posting lists are intersected (the shortest is scanned,
    filtered by the runner-up column). With two or more bindings the
    result may still contain tuples violating the {e remaining}
    bindings — callers must re-verify. [[]] returns all tuples. *)

val freeze : t -> unit
(** Build the index for every column, so that subsequent [find_by] /
    [find_by_bound] calls are mutation-free — the precondition for
    sharing the relation read-only across domains. A later {!apply}
    re-enters the ordinary (single-domain) regime. *)

val of_tuples : Schema.t -> tuple list -> t
val copy : t -> t

val clear : t -> unit
(** Empties the relation and truncates the delta log (consumers keyed
    on an earlier version must rebuild). *)

val pp : Format.formatter -> t -> unit
