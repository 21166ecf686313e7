(** Durable peers: a data directory holding a {!Storage.Snapshot}
    checkpoint of the whole catalog (its {!Pdms_file} rendering) plus a
    {!Storage.Wal} of the effective deltas applied since.

    Recovery ([open_dir]) loads the newest valid snapshot, re-parses the
    catalog, and replays the WAL suffix (records with a sequence number
    above the snapshot's stamp) through {!Relalg.Relation.apply} —
    byte-identical state reconstruction, including row insertion order,
    so answers, keyword-search transcripts and the PR 8 incremental
    machinery (Kwindex/Stats/Cache patching) behave exactly as before
    the restart.  A torn WAL tail (crash mid-append) is discarded; a
    missing or corrupt newest snapshot falls back to the next older
    one.

    Mutations flow in through {!apply} (or any caller passing {!tee} to
    {!Updategram.apply} / {!Propagate.push}): the effective delta is
    appended to the WAL {e before} the in-memory mutation, so the log
    is never behind the store. *)

type t

val init : dir:string -> Catalog.t -> unit
(** Create (or re-point) a data directory: write a snapshot of
    [catalog] covering sequence 0 and an empty WAL.  The directory is
    created if needed. *)

val open_dir : ?exec:Exec.t -> string -> (t, string) result
(** Recover the catalog from [dir] (snapshot + WAL replay, under a
    [recover] span on [exec.trace]) and open the WAL for appending. *)

val open_dir_exn : ?exec:Exec.t -> string -> t

val catalog : t -> Catalog.t
val db : t -> Relalg.Database.t
(** The global database over the recovered catalog's stored relations
    (shared structure: mutating it mutates the catalog's peers). *)

val tee :
  ?trace:Obs.Trace.t -> t -> rel:string -> Relalg.Relation.Delta.t -> unit
(** The write-ahead hook: append one effective delta to the WAL, in a
    [wal.append] span on [trace].  Pass as the [?tee] argument of
    {!Updategram.apply} or {!Propagate.push}. *)

val apply : ?exec:Exec.t -> ?sync:bool -> t -> Updategram.t -> unit
(** {!Updategram.apply} against the recovered database with the WAL
    tee wired in, tracing the append on [exec]'s trace (a [wal.append]
    span inside [delta.apply]); [sync] (default [false]) fsyncs
    afterwards. *)

val snapshot : t -> string
(** Checkpoint the current catalog, stamped with the WAL sequence
    applied so far; returns the snapshot path.  Subsequent recoveries
    replay only records after the stamp (older WAL records and
    snapshots are kept — [fsck] still verifies them). *)

val sync : t -> unit
val wal_seq : t -> int
(** Sequence number of the last record appended (0 when none yet). *)

val wal_size : t -> int
(** Byte length of the WAL file. *)

val close : t -> unit

(** {2 Verification} *)

type fsck_report = {
  dir : string;
  snapshots : int;  (** snapshot files present *)
  valid_snapshots : int;  (** of which checksum-valid *)
  snapshot_seq : int option;  (** stamp of the newest valid one *)
  wal_records : int;  (** valid records in the WAL *)
  replayable : int;  (** records after the snapshot stamp *)
  torn_bytes : int;  (** trailing WAL bytes discarded as torn *)
  errors : string list;
}

val fsck : string -> fsck_report
(** Read-only integrity check of a data directory: every snapshot
    decodes or is reported, the WAL parses to a valid prefix (a torn
    tail is tolerated and counted, not an error), and the replay dry-
    runs against the recovered catalog (relations exist, arities
    match).  [errors = []] means a restart from [dir] will succeed. *)

val fsck_ok : fsck_report -> bool
val render_fsck : fsck_report -> string
