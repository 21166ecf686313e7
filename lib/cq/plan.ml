(* Prefix-trie batch evaluation of a rewriting union, compiled to a slot
   kernel. See plan.mli for the contract; the shape notes that matter
   for correctness:

   - Every query is exactly one root-to-leaf path (its stats-ordered,
     alpha-normalised body), so each query lives entirely under one
     top-level branch. Sharding the walk across branches therefore
     partitions the queries, and per-branch results merged in branch
     order reproduce the sequential outcome for any [jobs].
   - Variables are numbered by first occurrence along the ordered body,
     so the [i]-th one lives in slot [i] of one mutable array, and
     every node knows at build time which of its positions are
     constants, slots bound by an ancestor, slots bound here, or
     repeats of a position bound here. That compiled form is the
     alpha-normalised atom: alpha-equivalent prefixes compile to equal
     keys and share one trie node.
   - Per-query pre-dedup counts are binding counts at the query's emit
     node, which equal |Eval.run_bindings q| because both use the same
     [Eval.order_atoms] order and counting is invariant under the
     alpha-renaming. Grouping (below) keeps them exact by carrying a
     multiplicity. *)

module Value = Relalg.Value
module Relation = Relalg.Relation
module Tbl = Relation.Tbl

let m_builds = Obs.Metrics.counter "cq.plan.builds"
let m_nodes = Obs.Metrics.counter "cq.plan.nodes"
let m_shared = Obs.Metrics.counter "cq.plan.shared_prefix_atoms"
let m_reused = Obs.Metrics.counter "cq.plan.bindings_reused"
let m_duplicates = Obs.Metrics.counter "cq.plan.duplicate_queries"
let m_arity_mismatch = Obs.Metrics.counter "cq.eval.arity_mismatch"
let h_depth = Obs.Metrics.histogram "cq.plan.depth"

(* One argument position of a node's atom. *)
type arg =
  | Const of Value.t  (* must equal the constant *)
  | Bound of int  (* must equal the slot, bound by an ancestor *)
  | Bind of int  (* first occurrence on the path: writes the slot *)
  | Same of int  (* repeats the [Bind] at this earlier position *)

(* One head position. [H_unbound] is a head variable absent from the
   body (an unsafe query): emitting it raises, as [Eval.run] does. *)
type hterm = H_const of Value.t | H_slot of int | H_unbound of string

type emit = { query : int; head : hterm array }

type node = {
  pred : string;
  args : arg array;
  depth : int;
  children_by_key : (string * arg array, node) Hashtbl.t;
      (* keyed on the compiled atom (structural hash and equality) —
         rendering string keys dominated build time *)
  mutable children : node list;  (* reverse insertion order until [build] finalises *)
  mutable emits : emit list;  (* reverse insertion order until [build] finalises *)
  mutable through : int;  (* queries whose path passes through this node *)
  mutable group_key : int array option;
      (* [Some positions] when a slot bound here is dead: matching rows
         are grouped by the values at [positions] (the live [Bind]s) *)
}

type build_stats = {
  queries : int;
  nodes : int;
  shared_prefix_atoms : int;
  duplicate_queries : int;
  max_depth : int;
}

type t = {
  queries : Query.t array;
  root : node;  (* pseudo-node: children are the top-level branches,
                   emits are the empty-body queries *)
  nslots : int;  (* widest path's variable count *)
  max_head : int;  (* widest head *)
  stats : build_stats;
}

let stats t = t.stats

let mk_node pred args depth =
  {
    pred;
    args;
    depth;
    children_by_key = Hashtbl.create 4;
    children = [];
    emits = [];
    through = 0;
    group_key = None;
  }

let hterm_equal a b =
  match (a, b) with
  | H_const u, H_const v -> Value.equal u v
  | H_slot i, H_slot j -> i = j
  | H_unbound x, H_unbound y -> String.equal x y
  | (H_const _ | H_slot _ | H_unbound _), _ -> false

let head_equal a b =
  Array.length a = Array.length b && Array.for_all2 hterm_equal a b

(* Compile one atom: [slots.(j)] is position [j]'s slot (or -1 for a
   constant) and slots [0 .. nbound - 1] are bound by the path above. *)
let compile_args (atom : Atom.t) slots nbound =
  Array.of_list
    (List.mapi
       (fun j term ->
         match term with
         | Term.Const v -> Const v
         | Term.Var _ ->
             let s = slots.(j) in
             if s < nbound then Bound s
             else
               let rec first k = if slots.(k) = s then k else first (k + 1) in
               let k = first 0 in
               if k = j then Bind s else Same k)
       atom.Atom.args)

(* Restore insertion order so walks are deterministic, tally shared
   prefix atoms, and compute slot liveness: a slot [n] binds is live
   when an emit at or under [n], or an atom strictly under [n], reads
   it, and dead otherwise. Returns the slots read by [n]'s own atom and
   everything below it, for the parent. *)
let rec finalise shared n =
  n.children <- List.rev n.children;
  n.emits <- List.rev n.emits;
  if n.through > 1 then shared := !shared + (n.through - 1);
  let from_emits =
    List.concat_map
      (fun e ->
        Array.to_list e.head
        |> List.filter_map (function H_slot s -> Some s | _ -> None))
      n.emits
  in
  let below = List.concat_map (finalise shared) n.children in
  let reads = List.sort_uniq Int.compare (from_emits @ below) in
  let live = ref [] and dead = ref false in
  Array.iteri
    (fun j -> function
      | Bind s -> if List.mem s reads then live := j :: !live else dead := true
      | Const _ | Bound _ | Same _ -> ())
    n.args;
  if !dead then n.group_key <- Some (Array.of_list (List.rev !live));
  Array.fold_left
    (fun acc -> function Bound s -> s :: acc | _ -> acc)
    reads n.args

let build ?(trace = Obs.Trace.null) db qs =
  Obs.Trace.span trace "plan" @@ fun () ->
  let queries = Array.of_list qs in
  let root = mk_node "" [||] 0 in
  let nodes = ref 0 in
  let max_depth = ref 0 in
  let duplicates = ref 0 in
  let nslots = ref 0 in
  let max_head = ref 0 in
  Array.iteri
    (fun qi q ->
      let ordered = Eval.order_atoms db q in
      (* Number variables by first occurrence over the ordered body, so
         alpha-equivalent prefixes compile to the same trie keys and
         collapse onto one path. The mapping is a linear scan over a
         small array — bodies are tiny, and this runs once per
         rewriting of the union. *)
      let orig_names = ref (Array.make 8 "") in
      let nvars = ref 0 in
      let find_mapped x =
        let names = !orig_names in
        let rec find i =
          if i >= !nvars then -1
          else if String.equal names.(i) x then i
          else find (i + 1)
        in
        find 0
      in
      let slot_of x =
        let i = find_mapped x in
        if i >= 0 then i
        else begin
          if !nvars >= Array.length !orig_names then begin
            let bigger = Array.make (2 * Array.length !orig_names) "" in
            Array.blit !orig_names 0 bigger 0 !nvars;
            orig_names := bigger
          end;
          !orig_names.(!nvars) <- x;
          Stdlib.incr nvars;
          !nvars - 1
        end
      in
      let tip =
        List.fold_left
          (fun parent (a : Atom.t) ->
            let nbound = !nvars in
            let slots =
              Array.of_list
                (List.map
                   (function Term.Const _ -> -1 | Term.Var x -> slot_of x)
                   a.Atom.args)
            in
            let key = (a.Atom.pred, compile_args a slots nbound) in
            match Hashtbl.find_opt parent.children_by_key key with
            | Some n ->
                n.through <- n.through + 1;
                n
            | None ->
                let n = mk_node a.Atom.pred (snd key) (parent.depth + 1) in
                n.through <- 1;
                incr nodes;
                Hashtbl.replace parent.children_by_key key n;
                parent.children <- n :: parent.children;
                n)
          root ordered
      in
      (* Head vars resolve through the body's renaming only: a head var
         absent from the body stays [H_unbound], whatever its name. *)
      let chead =
        Array.of_list
          (List.map
             (function
               | Term.Const v -> H_const v
               | Term.Var x ->
                   let i = find_mapped x in
                   if i >= 0 then H_slot i else H_unbound x)
             q.Query.head.Atom.args)
      in
      nslots := max !nslots !nvars;
      max_head := max !max_head (Array.length chead);
      if tip.depth > !max_depth then max_depth := tip.depth;
      Obs.Metrics.observe h_depth (float_of_int tip.depth);
      if List.exists (fun e -> head_equal e.head chead) tip.emits then
        incr duplicates;
      tip.emits <- { query = qi; head = chead } :: tip.emits)
    queries;
  let shared = ref 0 in
  ignore (finalise shared root : int list);
  let stats =
    {
      queries = Array.length queries;
      nodes = !nodes;
      shared_prefix_atoms = !shared;
      duplicate_queries = !duplicates;
      max_depth = !max_depth;
    }
  in
  Obs.Metrics.incr m_builds;
  Obs.Metrics.add m_nodes stats.nodes;
  Obs.Metrics.add m_shared stats.shared_prefix_atoms;
  Obs.Metrics.add m_duplicates stats.duplicate_queries;
  Obs.Trace.attr_i trace "queries" stats.queries;
  Obs.Trace.attr_i trace "nodes" stats.nodes;
  Obs.Trace.attr_i trace "shared_prefix_atoms" stats.shared_prefix_atoms;
  Obs.Trace.attr_i trace "duplicate_queries" stats.duplicate_queries;
  Obs.Trace.attr_i trace "max_depth" stats.max_depth;
  { queries; root; nslots = !nslots; max_head = !max_head; stats }

(* Distinct-tuple accumulator: one hash probe per emitted head; the
   scratch head is copied only when it is new. [fresh] is newest first. *)
type acc = { seen : unit Tbl.t; mutable fresh : Relation.tuple list }

let acc_create () = { seen = Tbl.create 64; fresh = [] }

let note acc row =
  Tbl.add acc.seen row ();
  acc.fresh <- row :: acc.fresh

(* An accumulator that already knows [rel]'s rows, so nothing [rel]
   holds is appended again. *)
let acc_of rel =
  let acc = acc_create () in
  Relation.iter (fun row -> Tbl.replace acc.seen row ()) rel;
  acc

(* One [Relation.apply] per walk, rows in first-emission order. *)
let flush acc rel =
  if acc.fresh <> [] then
    Relation.apply rel (Relation.Delta.of_rows (List.rev acc.fresh))

(* Per-walk (per-domain) state: the slot array, one scratch head per
   arity, the sink and the [bindings_reused] tally. *)
type ctx = {
  db : Relalg.Database.t;
  slots : Value.t array;
  heads : Value.t array array;
  sink : emit -> Value.t array -> int -> unit;
      (* the filled scratch head and its multiplicity *)
  mutable reused : int;
}

let ctx_create t db sink =
  {
    db;
    slots = Array.make (max 1 t.nslots) Value.Null;
    heads = Array.init (t.max_head + 1) (fun k -> Array.make k Value.Null);
    sink;
    reused = 0;
  }

(* The hot loops below are written as plain loops and top-level
   recursions: without flambda, every [Array.iteri]/[List.fold_left]
   closure would be allocated per row. *)
let emit ctx e m =
  let head = e.head in
  let buf = ctx.heads.(Array.length head) in
  for k = 0 to Array.length head - 1 do
    buf.(k) <-
      (match head.(k) with
      | H_const v -> v
      | H_slot s -> ctx.slots.(s)
      | H_unbound x -> invalid_arg ("Plan: unsafe query, unbound head term " ^ x))
  done;
  ctx.sink e buf m

let matches slots args (row : Relation.tuple) =
  let ok = ref true and j = ref 0 in
  while !ok && !j < Array.length args do
    (ok :=
       match args.(!j) with
       | Const v -> Value.equal v row.(!j)
       | Bound s -> Value.equal slots.(s) row.(!j)
       | Bind _ -> true
       | Same k -> Value.equal row.(k) row.(!j));
    incr j
  done;
  !ok

let bind slots args (row : Relation.tuple) =
  for j = 0 to Array.length args - 1 do
    match args.(j) with Bind s -> slots.(s) <- row.(j) | _ -> ()
  done

(* Index key: every determined position, in position order (the
   relation intersects the two most selective posting lists; [matches]
   re-verifies all positions). *)
let probe_key slots args =
  let key = ref [] in
  for j = Array.length args - 1 downto 0 do
    match args.(j) with
    | Const v -> key := (j, v) :: !key
    | Bound s -> key := (j, slots.(s)) :: !key
    | Bind _ | Same _ -> ()
  done;
  !key

(* Depth-first walk of one subtree, [m] copies at once. At each
   matching row: emits before children, children in insertion order.
   [reused] accumulates the bindings a shared node saved — each of its
   extension bindings would have been recomputed once more per
   additional query through the node.

   At a node binding a dead slot, rows that agree on the live slots
   lead to identical subtree walks, so each group of them is walked
   once, in first-occurrence order, with [m] scaled by the group size.
   The later copies would only have re-emitted tuples the first copy
   already inserted, so the distinct output and its insertion order
   are unchanged, and every count below is scaled by the
   multiplicity. *)
let rec walk ctx n m =
  match Relalg.Database.find_opt ctx.db n.pred with
  | None -> ()
  | Some rel ->
      if Array.length n.args <> Relalg.Schema.arity (Relation.schema rel) then
        Obs.Metrics.add m_arity_mismatch m
      else begin
        let candidates =
          Relation.find_by_bound rel (probe_key ctx.slots n.args)
        in
        let matched =
          match (n.group_key, candidates) with
          | Some key, _ :: _ :: _ -> walk_groups ctx n m key candidates
          | _ -> walk_rows ctx n m 0 candidates
        in
        if n.through > 1 then
          ctx.reused <- ctx.reused + (m * matched * (n.through - 1))
      end

(* Every matching row in candidate order; returns the match count. *)
and walk_rows ctx n m matched = function
  | [] -> matched
  | row :: rest ->
      if matches ctx.slots n.args row then begin
        bind ctx.slots n.args row;
        descend ctx n m;
        walk_rows ctx n m (matched + 1) rest
      end
      else walk_rows ctx n m matched rest

and walk_groups ctx n m key candidates =
  let slots = ctx.slots in
  (* Groups newest first: (representative row, size). *)
  let groups = ref [] in
  let matched = ref 0 in
  if Array.length key = 0 then begin
    (* Nothing bound here is read: one group of every match. *)
    let first = ref [||] in
    List.iter
      (fun row ->
        if matches slots n.args row then begin
          if !matched = 0 then first := row;
          incr matched
        end)
      candidates;
    if !matched > 0 then groups := [ (!first, ref !matched) ]
  end
  else begin
    let index = Tbl.create 16 in
    List.iter
      (fun row ->
        if matches slots n.args row then begin
          incr matched;
          let k = Array.map (fun j -> row.(j)) key in
          match Tbl.find_opt index k with
          | Some size -> incr size
          | None ->
              let size = ref 1 in
              Tbl.add index k size;
              groups := (row, size) :: !groups
        end)
      candidates
  end;
  List.iter
    (fun (row, size) ->
      bind slots n.args row;
      descend ctx n (m * !size))
    (List.rev !groups);
  !matched

and descend ctx n m =
  List.iter (fun e -> emit ctx e m) n.emits;
  List.iter (fun child -> walk ctx child m) n.children

(* Empty-body queries emit first, from the empty binding: the same
   position in the sequential and sharded orders. *)
let walk_root ctx t = List.iter (fun e -> emit ctx e 1) t.root.emits

let iter ?(trace = Obs.Trace.null) db t f =
  Obs.Trace.span trace "trie_eval" @@ fun () ->
  let ctx = ctx_create t db (fun e buf m -> f e.query buf m) in
  walk_root ctx t;
  List.iter (fun branch -> walk ctx branch 1) t.root.children;
  Obs.Metrics.add m_reused ctx.reused;
  Obs.Trace.attr_i trace "bindings_reused" ctx.reused

let run_union_into ?(jobs = 1) ?(trace = Obs.Trace.null) out db t =
  Obs.Trace.span trace "trie_eval" @@ fun () ->
  let nq = Array.length t.queries in
  let sink counts acc e buf m =
    counts.(e.query) <- counts.(e.query) + m;
    if not (Tbl.mem acc.seen buf) then note acc (Array.copy buf)
  in
  let counts = Array.make nq 0 in
  let acc = acc_of out in
  let main = ctx_create t db (sink counts acc) in
  walk_root main t;
  let reused =
    if jobs <= 1 || List.length t.root.children < 2 then begin
      List.iter (fun branch -> walk main branch 1) t.root.children;
      main.reused
    end
    else begin
      (* One partial accumulator per top-level branch, merged in branch
         order through the shared one. Each query lies under exactly one
         branch, so count slots never race; a private counts array per
         branch keeps the write sets obviously disjoint anyway. *)
      let partials =
        Util.Pool.map jobs
          (fun branch ->
            let local = Array.make nq 0 in
            let part = acc_create () in
            let ctx = ctx_create t db (sink local part) in
            walk ctx branch 1;
            (part, local, ctx.reused))
          t.root.children
      in
      List.fold_left
        (fun total (part, local, r) ->
          List.iter
            (fun row -> if not (Tbl.mem acc.seen row) then note acc row)
            (List.rev part.fresh);
          Array.iteri (fun i n -> counts.(i) <- counts.(i) + n) local;
          total + r)
        0 partials
    end
  in
  flush acc out;
  Obs.Metrics.add m_reused reused;
  let tuples = Array.fold_left ( + ) 0 counts in
  Obs.Trace.attr_i trace "jobs" jobs;
  Obs.Trace.attr_i trace "branches" (List.length t.root.children);
  Obs.Trace.attr_i trace "tuples" tuples;
  Obs.Trace.attr_i trace "bindings_reused" reused;
  Array.to_list counts

let run_each ?(jobs = 1) ?(trace = Obs.Trace.null) db t =
  Obs.Trace.span trace "trie_eval" @@ fun () ->
  (* Each query's accumulator is written by exactly one branch (one
     path per query), so branches write disjoint slots of [accs];
     Pool.map's joins publish them to the caller. *)
  let accs = Array.map (fun _ -> acc_create ()) t.queries in
  let sink e buf _ =
    let acc = accs.(e.query) in
    if not (Tbl.mem acc.seen buf) then note acc (Array.copy buf)
  in
  walk_root (ctx_create t db sink) t;
  let reused =
    List.fold_left ( + ) 0
      (Util.Pool.map jobs
         (fun branch ->
           let ctx = ctx_create t db sink in
           walk ctx branch 1;
           ctx.reused)
         t.root.children)
  in
  Obs.Metrics.add m_reused reused;
  Obs.Trace.attr_i trace "jobs" jobs;
  Obs.Trace.attr_i trace "branches" (List.length t.root.children);
  Obs.Trace.attr_i trace "bindings_reused" reused;
  Array.to_list
    (Array.mapi
       (fun i q ->
         let rel = Relation.create (Eval.head_schema q) in
         flush accs.(i) rel;
         rel)
       t.queries)
