(** The PDMS catalog: peers, storage descriptions and peer mappings.
    Exposes the derived artifacts reformulation consumes — GAV rules
    (definitional mappings plus the lhs-side of each GLAV mapping
    through its mapping predicate) and LAV views (storage descriptions
    plus the rhs-side of each GLAV mapping). *)

type mapping_id = int

type t

val create : unit -> t

val add_peer : t -> Peer.t -> unit
(** Raises [Invalid_argument] on duplicate peer names. *)

val peer : t -> string -> Peer.t
val peers : t -> Peer.t list

val add_storage : t -> Storage_desc.t -> unit

val store_identity : t -> Peer.t -> rel:string -> Relalg.Relation.t
(** Shorthand: declare the stored relation, register the identity
    storage description, and return the relation to load data into. *)

val add_mapping : t -> Peer_mapping.t -> mapping_id

val mappings : t -> (mapping_id * Peer_mapping.t) list
val mapping_count : t -> int

val is_stored : t -> string -> bool
(** Is the predicate a stored relation of some peer? *)

(** {2 Artifacts for reformulation}

    Reformulation reads the catalog through its compiled form: GAV
    rules indexed by head predicate, and LAV views, each with its
    mapping id, indexed by body predicate. The first
    {!compile} after a mutation builds it; later calls return the same
    value until the next [add_storage], [store_identity] or
    [add_mapping] (peers themselves are not part of it). *)

type compiled

val compile : t -> compiled
(** The compiled form of the catalog's current contents (safe to call
    from several domains). *)

val rules_for : compiled -> string -> (mapping_id option * Cq.Query.t) list
(** GAV rules (definitional mappings and the lhs-side of each GLAV
    mapping through its mapping predicate) whose head predicate is the
    given one, oldest mapping first. The id is the mapping the rule
    derives from. *)

val has_rules : compiled -> string -> bool

val views_for :
  compiled -> string list -> (mapping_id option * Cq.Query.t) list
(** The LAV views — storage-description views (id [None]) and GLAV
    mapping-predicate views (their mapping id) — whose body mentions
    one of the given predicates, in catalog order: storage descriptions
    newest first, then mapping views oldest first. *)

val views_of_mapping : compiled -> mapping_id -> int
(** How many LAV views derive from the mapping (0, 1 or 2); the id must
    be one the compiled catalog knows, e.g. from {!rules_for}. *)

val identity_view : compiled -> string -> int -> Cq.Query.t
(** The identity view [p(I0..) :- p(I0..)] of the given
    predicate and arity, built on first use and then kept with the
    compiled catalog. *)

val global_db : t -> Relalg.Database.t
(** Union of all peers' stored relations (shared relation objects, not
    copies — inserts through peers are visible). *)

val mapping_id_of_pred : string -> mapping_id option
(** Recover the mapping id from a mapping predicate name ([~map<k> ] or
    [~map<k>r]). *)
