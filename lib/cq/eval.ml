module Smap = Map.Make (String)

type binding = Relalg.Value.t Smap.t

(* Arity mismatches between an atom and its stored relation used to
   vanish as empty answers; the counter makes schema bugs visible in
   any metrics dump. Incremented unconditionally like the other cq.*
   counters — the global Metrics switch gates the cost. *)
let m_arity_mismatch = Obs.Metrics.counter "cq.eval.arity_mismatch"

let resolve (b : binding) = function
  | Term.Const v -> Some v
  | Term.Var x -> Smap.find_opt x b

(* Greedy stats-aware join order: repeatedly pick the atom with the
   lowest estimated extension count — relation cardinality scaled by
   the selectivity (1/distinct) of every already-determined position —
   breaking ties towards more bound positions and then towards the
   earlier atom, so the order is deterministic. Statistics come from
   the per-[(uid, version)] cache in {!Relalg.Stats}, so repeated
   planning over an unchanged database never rescans a relation.

   This runs once per rewriting of a union (thousands of times per
   answered query), so it works over dense arrays: variables are
   interned into slots by linear scan (bodies are small — the seed's
   [List.mem] over an ever-growing bound list was the same idea done
   quadratically and with string hashing on every probe), boundness is
   a [bool array] read, and per-atom statistics are resolved exactly
   once up front. *)
let order_atoms db (q : Query.t) =
  match q.Query.body with
  | ([] | [ _ ]) as body -> body
  | body ->
      let atoms = Array.of_list body in
      let n = Array.length atoms in
      (* Intern variables into dense slots; constants map to -1 (always
         determined). *)
      let var_names = ref (Array.make 8 "") in
      let nvars = ref 0 in
      let slot x =
        let names = !var_names in
        let rec find i =
          if i >= !nvars then begin
            if !nvars >= Array.length names then begin
              let bigger = Array.make (2 * Array.length names) "" in
              Array.blit names 0 bigger 0 !nvars;
              var_names := bigger
            end;
            !var_names.(!nvars) <- x;
            Stdlib.incr nvars;
            !nvars - 1
          end
          else if String.equal names.(i) x then i
          else find (i + 1)
        in
        find 0
      in
      let arg_slots =
        Array.map
          (fun (a : Atom.t) ->
            Array.of_list
              (List.map
                 (function Term.Const _ -> -1 | Term.Var x -> slot x)
                 a.Atom.args))
          atoms
      in
      let stats =
        Array.map
          (fun (a : Atom.t) ->
            Option.map Relalg.Stats.of_relation
              (Relalg.Database.find_opt db a.Atom.pred))
          atoms
      in
      let bound = Array.make (max 1 !nvars) false in
      let used = Array.make n false in
      let order = Array.make n 0 in
      for round = 0 to n - 1 do
        let best = ref (-1) in
        let best_est = ref infinity in
        let best_bound = ref (-1) in
        for i = 0 to n - 1 do
          if not used.(i) then begin
            let slots = arg_slots.(i) in
            let bcount = ref 0 in
            let est =
              match stats.(i) with
              | None ->
                  (* Missing relation: empty, cheapest possible — but
                     still count determined positions for the tie. *)
                  Array.iter
                    (fun s -> if s < 0 || bound.(s) then Stdlib.incr bcount)
                    slots;
                  0.0
              | Some st ->
                  let est = ref (float_of_int st.Relalg.Stats.cardinality) in
                  Array.iteri
                    (fun j s ->
                      if s < 0 || bound.(s) then begin
                        Stdlib.incr bcount;
                        est := !est *. Relalg.Stats.selectivity st j
                      end)
                    slots;
                  !est
            in
            (* Lower estimate wins; ties fall to higher boundness, then
               to the earlier atom (strict [<] / [>] keeps the first
               minimum). *)
            if est < !best_est || (est = !best_est && !bcount > !best_bound)
            then begin
              best := i;
              best_est := est;
              best_bound := !bcount
            end
          end
        done;
        let i = !best in
        used.(i) <- true;
        order.(round) <- i;
        Array.iter (fun s -> if s >= 0 then bound.(s) <- true) arg_slots.(i)
      done;
      List.init n (fun round -> atoms.(order.(round)))

(* Extend one binding across one atom. *)
let match_atom db (b : binding) (atom : Atom.t) : binding list =
  match Relalg.Database.find_opt db atom.Atom.pred with
  | None -> []
  | Some rel ->
      let args = Array.of_list atom.Atom.args in
      let n = Array.length args in
      if n <> Relalg.Schema.arity (Relalg.Relation.schema rel) then begin
        Obs.Metrics.incr m_arity_mismatch;
        []
      end
      else begin
        (* Narrow candidates through indexes on every determined
           position (the relation intersects the two most selective
           posting lists); [extend] below re-verifies all positions. *)
        let known = Array.map (resolve b) args in
        let bound = ref [] in
        for i = n - 1 downto 0 do
          match known.(i) with
          | Some v -> bound := (i, v) :: !bound
          | None -> ()
        done;
        let candidates = Relalg.Relation.find_by_bound rel !bound in
        List.filter_map
          (fun row ->
            let rec extend i acc =
              if i >= n then Some acc
              else
                match args.(i) with
                | Term.Const v ->
                    if Relalg.Value.equal v row.(i) then extend (i + 1) acc else None
                | Term.Var x -> (
                    match Smap.find_opt x acc with
                    | Some v ->
                        if Relalg.Value.equal v row.(i) then extend (i + 1) acc else None
                    | None -> extend (i + 1) (Smap.add x row.(i) acc))
            in
            extend 0 b)
          candidates
      end

let run_bindings db q =
  let ordered = order_atoms db q in
  List.fold_left
    (fun bindings atom ->
      List.concat_map (fun b -> match_atom db b atom) bindings)
    [ Smap.empty ] ordered

let head_schema (q : Query.t) =
  let seen = Hashtbl.create 8 in
  let attrs =
    List.mapi
      (fun i t ->
        match t with
        | Term.Var x when not (Hashtbl.mem seen x) ->
            Hashtbl.replace seen x ();
            x
        | Term.Var _ | Term.Const _ -> Printf.sprintf "col%d" i)
      q.Query.head.Atom.args
  in
  Relalg.Schema.make q.Query.head.Atom.pred attrs

let head_tuple (q : Query.t) (b : binding) =
  Array.of_list
    (List.map
       (fun t ->
         match resolve b t with
         | Some v -> v
         | None ->
             invalid_arg
               ("Eval.run: unsafe query, unbound head term " ^ Term.to_string t))
       q.Query.head.Atom.args)

let add_distinct out row =
  if not (Relalg.Relation.mem out row) then
    Relalg.Relation.apply out (Relalg.Relation.Delta.add row)

let run db q =
  let out = Relalg.Relation.create (head_schema q) in
  List.iter (fun b -> add_distinct out (head_tuple q b)) (run_bindings db q);
  out

let run_union_into out db qs =
  let attempts = ref 0 in
  List.iter
    (fun q ->
      List.iter
        (fun b ->
          Stdlib.incr attempts;
          add_distinct out (head_tuple q b))
        (run_bindings db q))
    qs;
  !attempts
