(* Prefix-trie batch evaluation of a rewriting union. See plan.mli for
   the contract; the shape notes that matter for correctness:

   - Every query is exactly one root-to-leaf path (its stats-ordered,
     alpha-normalised body), so each query lives entirely under one
     top-level branch. Sharding the walk across branches therefore
     partitions the queries, and per-branch results merged in branch
     order reproduce the sequential outcome for any [jobs].
   - Per-query pre-dedup counts are binding counts at the query's emit
     node, which equal |Eval.run_bindings q| because both use the same
     [Eval.order_atoms] order and counting is invariant under the
     alpha-renaming. *)

let m_builds = Obs.Metrics.counter "cq.plan.builds"
let m_nodes = Obs.Metrics.counter "cq.plan.nodes"
let m_shared = Obs.Metrics.counter "cq.plan.shared_prefix_atoms"
let m_reused = Obs.Metrics.counter "cq.plan.bindings_reused"
let m_duplicates = Obs.Metrics.counter "cq.plan.duplicate_queries"
let h_depth = Obs.Metrics.histogram "cq.plan.depth"

type emit = { query : int; head : Term.t array }

type node = {
  atom : Atom.t;
  depth : int;
  children_by_key : (Atom.t, node) Hashtbl.t;
      (* keyed on the alpha-normalised atom itself (structural hash and
         equality) — rendering string keys dominated build time *)
  mutable children : node list;  (* reverse insertion order until [build] finalises *)
  mutable emits : emit list;  (* reverse insertion order until [build] finalises *)
  mutable through : int;  (* queries whose path passes through this node *)
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
  stats : build_stats;
}

let stats t = t.stats

(* Canonical variable names, memoized as in Reformulate so typical
   bodies allocate no name strings. A distinct prefix keeps planner
   names out of any user variable namespace (purely cosmetic — sharing
   only needs the renaming to be deterministic). *)
let canon_names = Array.init 256 (fun i -> "p" ^ string_of_int i)
let canon_name i = if i < 256 then canon_names.(i) else "p" ^ string_of_int i

let mk_node atom depth =
  {
    atom;
    depth;
    children_by_key = Hashtbl.create 4;
    children = [];
    emits = [];
    through = 0;
  }

let head_equal a b =
  Array.length a = Array.length b && Array.for_all2 Term.equal a b

let build ?(trace = Obs.Trace.null) db qs =
  Obs.Trace.span trace "plan" @@ fun () ->
  let queries = Array.of_list qs in
  let root = mk_node (Atom.make "" []) 0 in
  let nodes = ref 0 in
  let max_depth = ref 0 in
  let duplicates = ref 0 in
  Array.iteri
    (fun qi q ->
      let ordered = Eval.order_atoms db q in
      (* Alpha-normalise over the ordered body: variables renamed by
         first occurrence, so alpha-equivalent prefixes hash to the
         same trie children and collapse onto one path. The mapping is
         a linear scan over a small array — bodies are tiny, and this
         runs once per rewriting of the union. *)
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
      let canon_term = function
        | Term.Const _ as t -> t
        | Term.Var x ->
            let i = find_mapped x in
            if i >= 0 then Term.Var (canon_name i)
            else begin
              if !nvars >= Array.length !orig_names then begin
                let bigger = Array.make (2 * Array.length !orig_names) "" in
                Array.blit !orig_names 0 bigger 0 !nvars;
                orig_names := bigger
              end;
              !orig_names.(!nvars) <- x;
              Stdlib.incr nvars;
              Term.Var (canon_name (!nvars - 1))
            end
      in
      let catoms = List.map (Atom.map_terms canon_term) ordered in
      (* Head vars map through the body's renaming only: a head var
         absent from the body (unsafe query) is left as-is, so emitting
         raises exactly like [Eval.run] would. *)
      let chead =
        Array.of_list
          (List.map
             (fun t ->
               match t with
               | Term.Const _ -> t
               | Term.Var x ->
                   let i = find_mapped x in
                   if i >= 0 then Term.Var (canon_name i) else t)
             q.Query.head.Atom.args)
      in
      let tip =
        List.fold_left
          (fun parent atom ->
            match Hashtbl.find_opt parent.children_by_key atom with
            | Some n ->
                n.through <- n.through + 1;
                n
            | None ->
                let n = mk_node atom (parent.depth + 1) in
                n.through <- 1;
                incr nodes;
                Hashtbl.replace parent.children_by_key atom n;
                parent.children <- n :: parent.children;
                n)
          root catoms
      in
      if tip.depth > !max_depth then max_depth := tip.depth;
      Obs.Metrics.observe h_depth (float_of_int tip.depth);
      if List.exists (fun e -> head_equal e.head chead) tip.emits then
        incr duplicates;
      tip.emits <- { query = qi; head = chead } :: tip.emits)
    queries;
  (* Finalise: restore insertion order so walks are deterministic. *)
  let shared = ref 0 in
  let rec finalise n =
    n.children <- List.rev n.children;
    n.emits <- List.rev n.emits;
    if n != root && n.through > 1 then shared := !shared + (n.through - 1);
    List.iter finalise n.children
  in
  finalise root;
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
  { queries; root; stats }

let head_tuple (e : emit) (b : Eval.binding) =
  Array.map
    (fun t ->
      match Eval.resolve b t with
      | Some v -> v
      | None ->
          invalid_arg
            ("Plan: unsafe query, unbound head term " ^ Term.to_string t))
    e.head

(* Depth-first walk of one subtree. [emit_fn] receives every (emit,
   binding) pair in deterministic order: at each extension, emits
   before children, children in insertion order. [reused] accumulates
   the bindings a shared node saved — each of its extension bindings
   would have been recomputed once more per additional query through
   the node. *)
let rec walk db emit_fn reused n b =
  match Eval.match_atom db b n.atom with
  | [] -> ()
  | extensions ->
      if n.through > 1 then
        reused := !reused + (List.length extensions * (n.through - 1));
      List.iter
        (fun b' ->
          List.iter (fun e -> emit_fn e b') n.emits;
          List.iter (fun child -> walk db emit_fn reused child b') n.children)
        extensions

let run_union_into ?(jobs = 1) ?(trace = Obs.Trace.null) out db t =
  Obs.Trace.span trace "trie_eval" @@ fun () ->
  let nq = Array.length t.queries in
  let counts = Array.make nq 0 in
  let emit_into rel counts e b =
    let tuple = head_tuple e b in
    counts.(e.query) <- counts.(e.query) + 1;
    Eval.add_distinct rel tuple
  in
  (* Empty-body queries emit once from the empty binding, before any
     branch runs (same position in both the sequential and parallel
     orders). *)
  List.iter (fun e -> emit_into out counts e Eval.Smap.empty) t.root.emits;
  let reused =
    if jobs <= 1 || List.length t.root.children < 2 then begin
      let reused = ref 0 in
      List.iter
        (fun branch -> walk db (emit_into out counts) reused branch Eval.Smap.empty)
        t.root.children;
      !reused
    end
    else begin
      (* One partial relation per top-level branch, merged in branch
         order through the shared accumulator's dedup set. Each query
         lies under exactly one branch, so count slots never race; a
         private counts array per branch keeps the write sets obviously
         disjoint anyway. *)
      let partials =
        Util.Pool.map jobs
          (fun branch ->
            let partial = Relalg.Relation.create (Relalg.Relation.schema out) in
            let local = Array.make nq 0 in
            let reused = ref 0 in
            walk db (emit_into partial local) reused branch Eval.Smap.empty;
            (partial, local, !reused))
          t.root.children
      in
      List.fold_left
        (fun acc (partial, local, r) ->
          Relalg.Relation.iter (Eval.add_distinct out) partial;
          Array.iteri (fun i n -> counts.(i) <- counts.(i) + n) local;
          acc + r)
        0 partials
    end
  in
  Obs.Metrics.add m_reused reused;
  let tuples = Array.fold_left ( + ) 0 counts in
  Obs.Trace.attr_i trace "jobs" jobs;
  Obs.Trace.attr_i trace "branches" (List.length t.root.children);
  Obs.Trace.attr_i trace "tuples" tuples;
  Obs.Trace.attr_i trace "bindings_reused" reused;
  Array.to_list counts

let run_each ?(jobs = 1) ?(trace = Obs.Trace.null) db t =
  Obs.Trace.span trace "trie_eval" @@ fun () ->
  let nq = Array.length t.queries in
  let outs =
    Array.init nq (fun i ->
        Relalg.Relation.create (Eval.head_schema t.queries.(i)))
  in
  let emit_fn e b = Eval.add_distinct outs.(e.query) (head_tuple e b) in
  List.iter (fun e -> emit_fn e Eval.Smap.empty) t.root.emits;
  (* Each query's relation is written by exactly one branch (one path
     per query), so branches write disjoint slots of [outs]; Pool.map's
     joins publish them to the caller. *)
  let reused =
    List.fold_left ( + ) 0
      (Util.Pool.map jobs
         (fun branch ->
           let reused = ref 0 in
           walk db emit_fn reused branch Eval.Smap.empty;
           !reused)
         t.root.children)
  in
  Obs.Metrics.add m_reused reused;
  Obs.Trace.attr_i trace "jobs" jobs;
  Obs.Trace.attr_i trace "branches" (List.length t.root.children);
  Obs.Trace.attr_i trace "bindings_reused" reused;
  Array.to_list outs
