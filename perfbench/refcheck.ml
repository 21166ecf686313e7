let union_db rels =
  let db = Relalg.Database.create () in
  List.iter
    (fun (name, parts) ->
      let arity =
        match parts with
        | r :: _ -> Relalg.Schema.arity (Relalg.Relation.schema r)
        | [] -> invalid_arg ("Refcheck.union_db: no relations for " ^ name)
      in
      let out =
        Relalg.Database.create_relation db name
          (List.init arity (Printf.sprintf "a%d"))
      in
      List.iter
        (fun r ->
          if Relalg.Schema.arity (Relalg.Relation.schema r) <> arity then
            invalid_arg ("Refcheck.union_db: arity mismatch under " ^ name);
          Relalg.Relation.iter
            (fun t ->
              if not (Relalg.Relation.mem out t) then
                Relalg.Relation.apply out (Relalg.Relation.Delta.add (Array.copy t)))
            r)
        parts)
    rels;
  db

let rows rel =
  Relalg.Relation.tuples rel
  |> List.map (fun t -> Array.to_list (Array.map Relalg.Value.to_string t))
  |> List.sort (List.compare String.compare)

let union_join rels query =
  rows (Cq.Eval.run (union_db rels) (Cq.Parser.parse_query_exn query))

let first_difference expected actual =
  let show row = "(" ^ String.concat ", " row ^ ")" in
  let rec go i = function
    | [], [] -> None
    | e :: _, [] ->
        Some (Printf.sprintf "row %d: expected %s, got nothing" i (show e))
    | [], a :: _ ->
        Some (Printf.sprintf "row %d: unexpected extra %s" i (show a))
    | e :: es, a :: as_ ->
        if List.equal String.equal e a then go (i + 1) (es, as_)
        else
          Some (Printf.sprintf "row %d: expected %s, got %s" i (show e) (show a))
  in
  match go 0 (expected, actual) with
  | None -> None
  | Some d ->
      Some
        (Printf.sprintf "%s (%d expected rows, %d actual)" d
           (List.length expected) (List.length actual))

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let same_prefix a b =
  let rec go = function
    | x :: xs, y :: ys -> String.equal x y && go (xs, ys)
    | _ -> true
  in
  a <> [] && b <> [] && go (a, b)
