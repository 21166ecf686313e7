let close_to = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* Stats *)

(* Expected values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q = Alcotest.(triple close_to close_to close_to) in
  Alcotest.check q "1..10" (2.75, 5.5, 8.25)
    (Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check q "two samples" (0.5, 2.0, 3.5) (Stats.quartiles [ 3.; 1. ]);
  Alcotest.check q "odd count, unsorted" (1.5, 3.0, 4.5)
    (Stats.quartiles [ 5.; 1.; 4.; 2.; 3. ]);
  Alcotest.check close_to "spread is (q3 - q1) / q2" 1.0
    (Stats.spread [ 5.; 1.; 4.; 2.; 3. ])

(* ------------------------------------------------------------------ *)
(* Selftime *)

let span ?(children = []) name start stop =
  { Obs.Span.name; start_s = start; duration_s = stop -. start; attrs = []; children }

let test_self_time () =
  (* root [0, 10] holds a [1, 4] and b [3, 6], which overlap: together
     they cover [1, 6]; a holds a1 [2, 3]. *)
  let tree =
    span "root" 0. 10.
      ~children:
        [ span "a" 1. 4. ~children:[ span "a1" 2. 3. ]; span "b" 3. 6. ]
  in
  let t = Selftime.create () in
  Selftime.add t tree;
  Alcotest.check close_to "root minus the union of its children" 5000.
    (Selftime.self_ms t "root");
  Alcotest.check close_to "a minus its child" 2000. (Selftime.self_ms t "a");
  Alcotest.check close_to "leaf" 3000. (Selftime.self_ms t "b");
  Alcotest.check close_to "unknown name" 0. (Selftime.self_ms t "zzz");
  Alcotest.(check (list string)) "by descending self time"
    [ "root"; "b"; "a"; "a1" ] (Selftime.names t)

let test_self_time_sums () =
  let t = Selftime.create () in
  let op k =
    span "answer" (float_of_int k) (float_of_int k +. 0.5)
      ~children:[ span "eval" (float_of_int k +. 0.1) (float_of_int k +. 0.4) ]
  in
  Selftime.add_all t [ op 0; op 1; op 2 ];
  Alcotest.(check int) "spans counted per name" 3 (Selftime.count t "eval");
  Alcotest.check close_to "folded across roots" 900. (Selftime.self_ms t "eval");
  Alcotest.check close_to "self times add up to the roots" 1500.
    (Selftime.total_self_ms t);
  (* A child running past its parent is clipped to the parent. *)
  let t = Selftime.create () in
  Selftime.add t (span "p" 0. 1. ~children:[ span "c" 0.5 2. ]);
  Alcotest.check close_to "clipped" 500. (Selftime.self_ms t "p")

(* ------------------------------------------------------------------ *)
(* Refcheck *)

let rel attrs rows =
  Relalg.Relation.of_tuples
    (Relalg.Schema.make "r" attrs)
    (List.map (fun r -> Array.of_list (List.map (fun s -> Relalg.Value.Str s) r)) rows)

let parts () =
  [ ("course_all",
      [ rel [ "t"; "s" ] [ [ "db"; "10" ]; [ "os"; "20" ] ];
        rel [ "t"; "s" ] [ [ "db"; "10" ]; [ "ai"; "30" ] ] ]);
    ("instr_all",
      [ rel [ "p"; "t" ] [ [ "ann"; "db" ] ];
        rel [ "p"; "t" ] [ [ "bob"; "ai" ]; [ "cy"; "nope" ] ] ]) ]

let rows = Alcotest.(list (list string))

let test_union_join () =
  let db = Refcheck.union_db (parts ()) in
  Alcotest.(check int) "union drops the repeated row" 3
    (Relalg.Relation.cardinality (Relalg.Database.find db "course_all"));
  Alcotest.check rows "join over the unions"
    [ [ "ai"; "bob" ]; [ "db"; "ann" ] ]
    (Refcheck.union_join (parts ()) "ans(T, P) :- course_all(T, S), instr_all(P, T)")

let test_first_difference () =
  let expected = [ [ "ai"; "bob" ]; [ "db"; "ann" ] ] in
  Alcotest.(check (option string)) "equal" None
    (Refcheck.first_difference expected expected);
  let differs actual =
    Option.is_some (Refcheck.first_difference expected actual)
  in
  Alcotest.(check bool) "missing row" true (differs [ [ "ai"; "bob" ] ]);
  Alcotest.(check bool) "extra row" true
    (differs (expected @ [ [ "os"; "cy" ] ]));
  Alcotest.(check bool) "changed value" true
    (differs [ [ "ai"; "bob" ]; [ "db"; "zed" ] ])

let test_transcripts () =
  Alcotest.(check bool) "digest depends on order" false
    (Refcheck.digest [ "a"; "b" ] = Refcheck.digest [ "b"; "a" ]);
  Alcotest.(check bool) "common prefix" true
    (Refcheck.same_prefix [ "x"; "y" ] [ "x"; "y"; "z" ]);
  Alcotest.(check bool) "diverging" false (Refcheck.same_prefix [ "x"; "y" ] [ "x"; "q" ]);
  Alcotest.(check bool) "empty never matches" false (Refcheck.same_prefix [] [ "x" ])

let () =
  Alcotest.run "perfbench"
    [ ("stats",
        [ Alcotest.test_case "quartiles" `Quick test_quartiles ]);
      ("selftime",
        [ Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "fold across roots" `Quick test_self_time_sums ]);
      ("refcheck",
        [ Alcotest.test_case "union join" `Quick test_union_join;
          Alcotest.test_case "first difference" `Quick test_first_difference;
          Alcotest.test_case "transcripts" `Quick test_transcripts ]) ]
