type tuple = Value.t array

let tuple_equal a b = Array.length a = Array.length b && Array.for_all2 Value.equal a b

(* Hash consistent with [tuple_equal]: Value.equal is structural, so a
   fold over Value.hash agrees on equal tuples. *)
let tuple_hash (row : tuple) =
  let h = ref 17 in
  for i = 0 to Array.length row - 1 do
    h := (!h * 31) + Value.hash row.(i)
  done;
  !h

module Tbl = Hashtbl.Make (struct
  type t = tuple

  let equal = tuple_equal
  let hash = tuple_hash
end)

module Delta = struct
  type t = { adds : tuple list; dels : tuple list }

  let empty = { adds = []; dels = [] }
  let add row = { adds = [ row ]; dels = [] }
  let remove row = { adds = []; dels = [ row ] }
  let of_rows rows = { adds = rows; dels = [] }
  let removes rows = { adds = []; dels = rows }
  let make ?(adds = []) ?(dels = []) () = { adds; dels }
  let adds t = t.adds
  let dels t = t.dels
  let is_empty t = t.adds = [] && t.dels = []
  let size t = List.length t.adds + List.length t.dels

  let remove_one tuple list =
    let rec go acc = function
      | [] -> None
      | x :: rest ->
          if tuple_equal x tuple then Some (List.rev_append acc rest)
          else go (x :: acc) rest
    in
    go [] list

  (* Sequential composition: [b] happens after [a].  Only add-then-del
     pairs cancel — a row added by [a] and removed by [b] was never
     observable, so dropping both is exact.  Del-then-add pairs are
     kept: the removed copy and the re-added copy occupy different
     positions in the relation's insertion order, and positional
     consumers (the keyword index) must see both events. *)
  let compose a b =
    let adds, dels =
      List.fold_left
        (fun (adds, dels) d ->
          match remove_one d adds with
          | Some adds' -> (adds', dels)
          | None -> (adds, dels @ [ d ]))
        (a.adds, a.dels) b.dels
    in
    { adds = adds @ b.adds; dels }
end

type t = {
  schema : Schema.t;
  uid : int;
  mutable version : int;
  (* Rows in insertion order: slot [0 .. count_slots - 1] of [rows_arr].
     Appends are amortised O(1); removal compacts in place preserving
     order, so derived structures can mirror slots stably. *)
  mutable rows_arr : tuple array;
  mutable count_slots : int;
  (* Memoised oldest-first list view of the rows, keyed by version. *)
  mutable rows_list : (int * tuple list) option;
  (* Multiplicity per distinct tuple: O(1) [mem]. *)
  mutable members : int Tbl.t;
  (* col -> (value -> tuples). Built lazily, then maintained
     incrementally on insert; dropped wholesale on delete/clear. *)
  mutable indexes : (int, (Value.t, tuple list) Hashtbl.t) Hashtbl.t;
  (* Retained effective deltas, oldest first in [log_front], newest
     first in [log_back] (two-stack queue).  Each entry is
     [(version after applying, delta)].  [log_floor] is the oldest
     version still reconstructible from the log. *)
  mutable log_front : (int * Delta.t) list;
  mutable log_back : (int * Delta.t) list;
  mutable log_entries : int;
  mutable log_tuples : int;
  mutable log_floor : int;
}

(* Process-unique relation ids, so per-relation caches (e.g. the keyword
   index) can key on identity across otherwise identical names. *)
let next_uid = Atomic.make 0

(* Retention caps for the delta log: beyond either, oldest entries are
   truncated and consumers that saw a pre-truncation version must fall
   back to a full rebuild. *)
let log_max_entries = 512
let log_max_tuples = 8192

let create schema =
  {
    schema;
    uid = Atomic.fetch_and_add next_uid 1;
    version = 0;
    rows_arr = [||];
    count_slots = 0;
    rows_list = None;
    members = Tbl.create 16;
    indexes = Hashtbl.create 4;
    log_front = [];
    log_back = [];
    log_entries = 0;
    log_tuples = 0;
    log_floor = 0;
  }

let schema t = t.schema
let uid t = t.uid
let version t = t.version
let cardinality t = t.count_slots
let delta_floor t = t.log_floor

let drop_indexes t =
  if Hashtbl.length t.indexes > 0 then t.indexes <- Hashtbl.create 4

let check_arity what t row =
  if Array.length row <> Schema.arity t.schema then
    invalid_arg
      (Printf.sprintf "Relation.%s: arity mismatch for %s (got %d, want %d)"
         what (Schema.name t.schema) (Array.length row)
         (Schema.arity t.schema))

let index_push idx key row =
  let existing = Option.value ~default:[] (Hashtbl.find_opt idx key) in
  Hashtbl.replace idx key (row :: existing)

let grow t =
  let cap = Array.length t.rows_arr in
  if t.count_slots >= cap then begin
    let cap' = max 8 (2 * cap) in
    let arr = Array.make cap' [||] in
    Array.blit t.rows_arr 0 arr 0 t.count_slots;
    t.rows_arr <- arr
  end

let multiplicity t row = Option.value ~default:0 (Tbl.find_opt t.members row)

let append_row t row =
  grow t;
  t.rows_arr.(t.count_slots) <- row;
  t.count_slots <- t.count_slots + 1;
  Tbl.replace t.members row (1 + multiplicity t row);
  (* Live indexes absorb the row instead of being invalidated. *)
  if Hashtbl.length t.indexes > 0 then
    Hashtbl.iter (fun col idx -> index_push idx row.(col) row) t.indexes

let mem t row = Tbl.mem t.members row

(* Remove one copy per del occurrence (multiset subtraction), lowest
   slot first, in a single order-preserving compaction pass.  Returns
   the effective removals (absent tuples are dropped). *)
let remove_rows t dels =
  let wanted = Tbl.create (max 4 (List.length dels)) in
  let effective = ref [] in
  List.iter
    (fun row ->
      let have = multiplicity t row in
      let already = Option.value ~default:0 (Tbl.find_opt wanted row) in
      if already < have then begin
        Tbl.replace wanted row (already + 1);
        effective := row :: !effective
      end)
    dels;
  if Tbl.length wanted = 0 then []
  else begin
    let dst = ref 0 in
    for src = 0 to t.count_slots - 1 do
      let row = t.rows_arr.(src) in
      let pending = Option.value ~default:0 (Tbl.find_opt wanted row) in
      if pending > 0 then begin
        Tbl.replace wanted row (pending - 1);
        (match Tbl.find_opt t.members row with
        | Some 1 -> Tbl.remove t.members row
        | Some m -> Tbl.replace t.members row (m - 1)
        | None -> ())
      end
      else begin
        t.rows_arr.(!dst) <- row;
        incr dst
      end
    done;
    for i = !dst to t.count_slots - 1 do
      t.rows_arr.(i) <- [||]
    done;
    t.count_slots <- !dst;
    drop_indexes t;
    List.rev !effective
  end

let log_push t entry tuples =
  t.log_back <- entry :: t.log_back;
  t.log_entries <- t.log_entries + 1;
  t.log_tuples <- t.log_tuples + tuples;
  while
    t.log_entries > log_max_entries || t.log_tuples > log_max_tuples
  do
    (match t.log_front with
    | [] ->
        t.log_front <- List.rev t.log_back;
        t.log_back <- []
    | _ -> ());
    match t.log_front with
    | (v, d) :: rest ->
        t.log_front <- rest;
        t.log_entries <- t.log_entries - 1;
        t.log_tuples <- t.log_tuples - Delta.size d;
        t.log_floor <- v
    | [] -> assert false
  done

let apply t (d : Delta.t) =
  List.iter (check_arity "apply (del)" t) d.Delta.dels;
  List.iter (check_arity "apply (add)" t) d.Delta.adds;
  (* Add-only deltas (the common case) skip the removal pass. *)
  let dels = if d.Delta.dels = [] then [] else remove_rows t d.Delta.dels in
  (* A bulk load into an empty relation sizes the member table once,
     at the bucket count its doublings would end at (a table grows when
     it holds twice its buckets), instead of rehashing through each. *)
  (if t.count_slots = 0 then
     let n = List.length d.Delta.adds in
     if n > 64 then t.members <- Tbl.create (n / 2));
  List.iter (append_row t) d.Delta.adds;
  if not (dels = [] && d.Delta.adds = []) then begin
    t.version <- t.version + 1;
    let eff = { Delta.adds = d.Delta.adds; dels } in
    log_push t (t.version, eff) (Delta.size eff)
  end

let deltas_since t since =
  if since = t.version then Some []
  else if since < t.log_floor then None
  else
    Some
      (List.filter
         (fun (v, _) -> v > since)
         (t.log_front @ List.rev t.log_back)
       |> List.map snd)

let tuples t =
  match t.rows_list with
  | Some (v, l) when v = t.version -> l
  | _ ->
      let l = List.init t.count_slots (fun i -> t.rows_arr.(i)) in
      t.rows_list <- Some (t.version, l);
      l

let iter f t =
  for i = 0 to t.count_slots - 1 do
    f t.rows_arr.(i)
  done

let fold f init t =
  let acc = ref init in
  for i = 0 to t.count_slots - 1 do
    acc := f !acc t.rows_arr.(i)
  done;
  !acc

let build_index t col =
  let idx = Hashtbl.create (max 16 t.count_slots) in
  (* Newest-first within each bucket, as incremental [index_push]
     maintains it. *)
  for i = 0 to t.count_slots - 1 do
    let row = t.rows_arr.(i) in
    index_push idx row.(col) row
  done;
  Hashtbl.replace t.indexes col idx;
  idx

let find_by t col v =
  if col < 0 || col >= Schema.arity t.schema then
    invalid_arg "Relation.find_by: column out of range";
  let idx =
    match Hashtbl.find_opt t.indexes col with
    | Some idx -> idx
    | None -> build_index t col
  in
  Option.value ~default:[] (Hashtbl.find_opt idx v)

let find_by_bound t bound =
  match bound with
  | [] -> tuples t
  | [ (col, v) ] -> find_by t col v
  | _ ->
      (* Intersect the two most selective posting lists: scan the
         shortest, filtering by the runner-up column. Remaining bound
         columns are the caller's to verify (the evaluator re-checks
         every position anyway). *)
      let postings =
        List.map
          (fun (col, v) ->
            let rows = find_by t col v in
            (List.length rows, (col, v), rows))
          bound
      in
      let sorted =
        List.stable_sort (fun (a, _, _) (b, _, _) -> Int.compare a b) postings
      in
      (match sorted with
      | (_, _, best) :: (_, (col2, v2), _) :: _ ->
          List.filter (fun row -> Value.equal row.(col2) v2) best
      | _ -> assert false)

let freeze t =
  for col = 0 to Schema.arity t.schema - 1 do
    if not (Hashtbl.mem t.indexes col) then ignore (build_index t col)
  done

let of_tuples schema rows =
  let t = create schema in
  apply t (Delta.of_rows rows);
  t

let copy t = of_tuples t.schema (tuples t)

let clear t =
  t.version <- t.version + 1;
  t.rows_arr <- [||];
  t.count_slots <- 0;
  t.rows_list <- None;
  Tbl.reset t.members;
  drop_indexes t;
  (* The log cannot express "everything went away" compactly; truncate
     it so consumers rebuild. *)
  t.log_front <- [];
  t.log_back <- [];
  t.log_entries <- 0;
  t.log_tuples <- 0;
  t.log_floor <- t.version

let pp fmt t =
  Format.fprintf fmt "%a [%d rows]" Schema.pp t.schema t.count_slots;
  List.iteri
    (fun i row ->
      if i < 20 then
        Format.fprintf fmt "@\n  (%s)"
          (String.concat ", " (Array.to_list (Array.map Value.to_string row))))
    (tuples t)
