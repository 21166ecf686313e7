(* Tests for the Piazza PDMS: reformulation over mapping chains,
   topology/network simulation, updategrams and view maintenance. *)

open Cq
module P = Pdms

let v = Term.v
let atom = Atom.make
let q head body = Query.make head body
let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)
let vs s = Relalg.Value.Str s
let insert rel row = Relalg.Relation.apply rel (Relalg.Relation.Delta.add row)

(* ------------------------------------------------------------------ *)
(* Scenario builders *)

(* Two universities; MIT stores data; an equality mapping relates the
   two schemas. Querying UW's schema must surface MIT's data. *)
let two_peer_catalog mapping_kind =
  let catalog = P.Catalog.create () in
  let uw = P.Peer.create ~name:"uw" ~schema:[ ("course", [ "code"; "title" ]) ] in
  let mit = P.Peer.create ~name:"mit" ~schema:[ ("subject", [ "id"; "name" ]) ] in
  P.Catalog.add_peer catalog uw;
  P.Catalog.add_peer catalog mit;
  let stored = P.Catalog.store_identity catalog mit ~rel:"subject" in
  List.iter (insert stored)
    [ [| vs "6.033"; vs "systems" |]; [| vs "6.830"; vs "databases" |] ];
  let lhs = q (atom "m" [ v "C"; v "T" ]) [ P.Peer.atom mit "subject" [ v "C"; v "T" ] ] in
  let rhs = q (atom "m" [ v "C"; v "T" ]) [ P.Peer.atom uw "course" [ v "C"; v "T" ] ] in
  let mapping =
    match mapping_kind with
    | `Equality -> P.Peer_mapping.equality ~lhs ~rhs
    | `Inclusion -> P.Peer_mapping.inclusion ~lhs ~rhs
  in
  ignore (P.Catalog.add_mapping catalog mapping);
  (catalog, uw, mit)

let test_two_peer_equality () =
  let catalog, uw, _ = two_peer_catalog `Equality in
  let query = q (atom "ans" [ v "X"; v "Y" ]) [ P.Peer.atom uw "course" [ v "X"; v "Y" ] ] in
  let result = P.Answer.answer catalog query in
  check_i "both MIT courses" 2 (Relalg.Relation.cardinality result.P.Answer.answers);
  check_b "some rewriting emitted" true
    (result.P.Answer.outcome.P.Reformulate.stats.P.Reformulate.emitted > 0)

let test_two_peer_inclusion_directionality () =
  let catalog, uw, mit = two_peer_catalog `Inclusion in
  (* mit.subject ⊆ uw.course: querying uw gets MIT data... *)
  let q_uw = q (atom "ans" [ v "X"; v "Y" ]) [ P.Peer.atom uw "course" [ v "X"; v "Y" ] ] in
  check_i "uw sees mit data" 2
    (Relalg.Relation.cardinality (P.Answer.answer catalog q_uw).P.Answer.answers);
  (* ... and querying mit.subject is answered from MIT's own storage
     (the mapping is not reversed). *)
  let q_mit = q (atom "ans" [ v "X"; v "Y" ]) [ P.Peer.atom mit "subject" [ v "X"; v "Y" ] ] in
  check_i "mit local storage" 2
    (Relalg.Relation.cardinality (P.Answer.answer catalog q_mit).P.Answer.answers)

let test_definitional_mapping () =
  let catalog = P.Catalog.create () in
  let uw = P.Peer.create ~name:"uw" ~schema:[ ("course", [ "code"; "title" ]) ] in
  let mit = P.Peer.create ~name:"mit" ~schema:[ ("subject", [ "id"; "name" ]) ] in
  P.Catalog.add_peer catalog uw;
  P.Catalog.add_peer catalog mit;
  let stored = P.Catalog.store_identity catalog mit ~rel:"subject" in
  insert stored [| vs "6.033"; vs "systems" |];
  (* GAV-style: uw.course defined from mit.subject. *)
  let rule =
    q
      (P.Peer.atom uw "course" [ v "C"; v "T" ])
      [ P.Peer.atom mit "subject" [ v "C"; v "T" ] ]
  in
  ignore (P.Catalog.add_mapping catalog (P.Peer_mapping.definitional rule));
  let query = q (atom "ans" [ v "X" ]) [ P.Peer.atom uw "course" [ v "X"; v "T" ] ] in
  check_i "one course" 1
    (Relalg.Relation.cardinality (P.Answer.answer catalog query).P.Answer.answers)

(* Two definitional mappings that differ only in the type of a constant
   ([1] against ['1']) lead to two different goals; the goal memo must
   not take one for the other. *)
let test_typed_constants_stay_apart () =
  let catalog = P.Catalog.create () in
  let a = P.Peer.create ~name:"a" ~schema:[ ("r", [ "x"; "y" ]) ] in
  let b = P.Peer.create ~name:"b" ~schema:[ ("s", [ "x"; "y"; "z" ]) ] in
  let c = P.Peer.create ~name:"c" ~schema:[ ("t", [ "x"; "y"; "z" ]) ] in
  List.iter (P.Catalog.add_peer catalog) [ a; b; c ];
  let stored = P.Catalog.store_identity catalog c ~rel:"t" in
  insert stored [| vs "k1"; vs "v1"; Relalg.Value.Int 1 |];
  insert stored [| vs "k2"; vs "v2"; vs "1" |];
  let define head body =
    ignore
      (P.Catalog.add_mapping catalog (P.Peer_mapping.definitional (q head body)))
  in
  let xy = [ v "X"; v "Y" ] in
  define (P.Peer.atom a "r" xy) [ P.Peer.atom b "s" (xy @ [ Term.int 1 ]) ];
  define (P.Peer.atom a "r" xy) [ P.Peer.atom b "s" (xy @ [ Term.str "1" ]) ];
  define
    (P.Peer.atom b "s" (xy @ [ v "Z" ]))
    [ P.Peer.atom c "t" (xy @ [ v "Z" ]) ];
  let query = q (atom "ans" xy) [ P.Peer.atom a "r" xy ] in
  let answers pruning =
    P.Answer.answers_list
      (P.Answer.answer ~exec:(P.Exec.make ~pruning ()) catalog query)
  in
  let expected = [ [ "k1"; "v1" ]; [ "k2"; "v2" ] ] in
  Alcotest.(check (list (list string)))
    "without the goal memo" expected
    (answers { P.Exec.default_pruning with P.Exec.use_goal_memo = false });
  Alcotest.(check (list (list string)))
    "default pruning" expected (answers P.Exec.default_pruning)

(* Chain of equalities: peer0 - peer1 - ... - peer_{n-1}; data lives at
   the last peer; query at peer0 must traverse the transitive closure. *)
let chain_catalog n =
  let catalog = P.Catalog.create () in
  let peers =
    List.init n (fun i ->
        let p =
          P.Peer.create ~name:(Printf.sprintf "p%d" i)
            ~schema:[ ("course", [ "code"; "title" ]) ]
        in
        P.Catalog.add_peer catalog p;
        p)
  in
  let last = List.nth peers (n - 1) in
  let stored = P.Catalog.store_identity catalog last ~rel:"course" in
  List.iter (insert stored)
    [ [| vs "c1"; vs "ancient history" |]; [| vs "c2"; vs "databases" |] ];
  List.iteri
    (fun i p ->
      if i < n - 1 then begin
        let next = List.nth peers (i + 1) in
        let lhs =
          q (atom "m" [ v "C"; v "T" ]) [ P.Peer.atom next "course" [ v "C"; v "T" ] ]
        in
        let rhs =
          q (atom "m" [ v "C"; v "T" ]) [ P.Peer.atom p "course" [ v "C"; v "T" ] ]
        in
        ignore (P.Catalog.add_mapping catalog (P.Peer_mapping.equality ~lhs ~rhs))
      end)
    peers;
  (catalog, peers)

let test_chain_transitive_closure () =
  List.iter
    (fun n ->
      let catalog, peers = chain_catalog n in
      let p0 = List.hd peers in
      let query =
        q (atom "ans" [ v "X"; v "Y" ]) [ P.Peer.atom p0 "course" [ v "X"; v "Y" ] ]
      in
      let result = P.Answer.answer catalog query in
      check_i
        (Printf.sprintf "chain %d answers" n)
        2
        (Relalg.Relation.cardinality result.P.Answer.answers))
    [ 2; 3; 5; 8 ]

let test_chain_mapping_count_linear () =
  let catalog, _ = chain_catalog 10 in
  check_i "n-1 mappings" 9 (P.Catalog.mapping_count catalog)

let test_reachability () =
  let catalog, _ = chain_catalog 4 in
  let reachable = P.Answer.reachable_peers catalog "p0" in
  check_i "all peers reachable" 4 (List.length reachable)

(* Sibling subgoals through the same mapping: the per-atom history must
   allow unfolding the same mapping predicate for both atoms. *)
let test_same_mapping_twice_in_one_query () =
  let catalog = P.Catalog.create () in
  let a = P.Peer.create ~name:"a" ~schema:[ ("r", [ "x"; "y" ]) ] in
  let b = P.Peer.create ~name:"b" ~schema:[ ("r2", [ "x"; "y" ]) ] in
  P.Catalog.add_peer catalog a;
  P.Catalog.add_peer catalog b;
  let stored = P.Catalog.store_identity catalog b ~rel:"r2" in
  List.iter (insert stored)
    [ [| vs "1"; vs "2" |]; [| vs "3"; vs "4" |] ];
  let lhs = q (atom "m" [ v "X"; v "Y" ]) [ P.Peer.atom b "r2" [ v "X"; v "Y" ] ] in
  let rhs = q (atom "m" [ v "X"; v "Y" ]) [ P.Peer.atom a "r" [ v "X"; v "Y" ] ] in
  ignore (P.Catalog.add_mapping catalog (P.Peer_mapping.equality ~lhs ~rhs));
  let query =
    q
      (atom "ans" [ v "X"; v "Y"; v "X2"; v "Y2" ])
      [ P.Peer.atom a "r" [ v "X"; v "Y" ]; P.Peer.atom a "r" [ v "X2"; v "Y2" ] ]
  in
  let result = P.Answer.answer catalog query in
  check_i "cross product" 4 (Relalg.Relation.cardinality result.P.Answer.answers)

let test_local_plus_remote_union () =
  let catalog, uw, _ = two_peer_catalog `Equality in
  (* Give UW local storage too. *)
  let stored = P.Catalog.store_identity catalog uw ~rel:"course" in
  insert stored [| vs "cse444"; vs "databases uw" |];
  let query = q (atom "ans" [ v "X"; v "Y" ]) [ P.Peer.atom uw "course" [ v "X"; v "Y" ] ] in
  check_i "local + remote" 3
    (Relalg.Relation.cardinality (P.Answer.answer catalog query).P.Answer.answers)

let test_join_query_through_mapping () =
  let catalog = P.Catalog.create () in
  let a =
    P.Peer.create ~name:"a" ~schema:[ ("r", [ "x"; "y" ]); ("s", [ "y"; "z" ]) ]
  in
  let b =
    P.Peer.create ~name:"b" ~schema:[ ("r2", [ "x"; "y" ]); ("s2", [ "y"; "z" ]) ]
  in
  P.Catalog.add_peer catalog a;
  P.Catalog.add_peer catalog b;
  let sr = P.Catalog.store_identity catalog b ~rel:"r2" in
  let ss = P.Catalog.store_identity catalog b ~rel:"s2" in
  List.iter (insert sr) [ [| vs "1"; vs "2" |]; [| vs "5"; vs "6" |] ];
  List.iter (insert ss) [ [| vs "2"; vs "3" |] ];
  (* Two separate mappings, one per relation. *)
  let m1_lhs = q (atom "m" [ v "X"; v "Y" ]) [ P.Peer.atom b "r2" [ v "X"; v "Y" ] ] in
  let m1_rhs = q (atom "m" [ v "X"; v "Y" ]) [ P.Peer.atom a "r" [ v "X"; v "Y" ] ] in
  let m2_lhs = q (atom "m" [ v "Y"; v "Z" ]) [ P.Peer.atom b "s2" [ v "Y"; v "Z" ] ] in
  let m2_rhs = q (atom "m" [ v "Y"; v "Z" ]) [ P.Peer.atom a "s" [ v "Y"; v "Z" ] ] in
  ignore (P.Catalog.add_mapping catalog (P.Peer_mapping.equality ~lhs:m1_lhs ~rhs:m1_rhs));
  ignore (P.Catalog.add_mapping catalog (P.Peer_mapping.equality ~lhs:m2_lhs ~rhs:m2_rhs));
  let query =
    q
      (atom "ans" [ v "X"; v "Z" ])
      [ P.Peer.atom a "r" [ v "X"; v "Y" ]; P.Peer.atom a "s" [ v "Y"; v "Z" ] ]
  in
  let result = P.Answer.answer catalog query in
  let rows = P.Answer.answers_list result in
  check_b "join answer" true (rows = [ [ "1"; "3" ] ])

(* Cyclic mapping graph: every peer's data must still be found by the
   pruned search, each tuple exactly once. *)
let test_mesh_completeness () =
  let prng = Util.Prng.create 77 in
  let topology = P.Topology.generate ~prng (P.Topology.Mesh 1) ~n:10 in
  let catalog = P.Catalog.create () in
  let peers =
    Array.init 10 (fun i ->
        let p =
          P.Peer.create ~name:(Printf.sprintf "m%d" i)
            ~schema:[ ("course", [ "code"; "title" ]) ]
        in
        P.Catalog.add_peer catalog p;
        let stored = P.Catalog.store_identity catalog p ~rel:"course" in
        insert stored
          [| vs (Printf.sprintf "c%d" i); vs (Printf.sprintf "t%d" i) |];
        insert stored
          [| vs (Printf.sprintf "c%d'" i); vs (Printf.sprintf "t%d'" i) |];
        p)
  in
  List.iter
    (fun (a, b) ->
      let args = [ v "X"; v "Y" ] in
      let lhs = q (atom "m" args) [ P.Peer.atom peers.(a) "course" args ] in
      let rhs = q (atom "m" args) [ P.Peer.atom peers.(b) "course" args ] in
      ignore (P.Catalog.add_mapping catalog (P.Peer_mapping.equality ~lhs ~rhs)))
    topology.P.Topology.edges;
  let query =
    q (atom "ans" [ v "X"; v "Y" ]) [ P.Peer.atom peers.(0) "course" [ v "X"; v "Y" ] ]
  in
  let result = P.Answer.answer catalog query in
  check_i "all peers' tuples" 20
    (Relalg.Relation.cardinality result.P.Answer.answers)

let test_no_pruning_terminates_and_agrees () =
  let catalog, peers = chain_catalog 4 in
  let p0 = List.hd peers in
  let query =
    q (atom "ans" [ v "X"; v "Y" ]) [ P.Peer.atom p0 "course" [ v "X"; v "Y" ] ]
  in
  let pruning = { P.Reformulate.no_pruning with P.Reformulate.max_depth = 10 } in
  let loose = P.Answer.answer ~exec:(P.Exec.make ~pruning ()) catalog query in
  let tight = P.Answer.answer catalog query in
  check_b "same answers" true
    (P.Answer.answers_list loose = P.Answer.answers_list tight);
  check_b "pruning reduces work" true
    (tight.P.Answer.outcome.P.Reformulate.stats.P.Reformulate.nodes_expanded
    <= loose.P.Answer.outcome.P.Reformulate.stats.P.Reformulate.nodes_expanded)

let test_projection_mapping () =
  (* The mapping only exposes the course code, not the title. *)
  let catalog = P.Catalog.create () in
  let uw = P.Peer.create ~name:"uw" ~schema:[ ("course", [ "code"; "title" ]) ] in
  let mit = P.Peer.create ~name:"mit" ~schema:[ ("subject", [ "id"; "name" ]) ] in
  P.Catalog.add_peer catalog uw;
  P.Catalog.add_peer catalog mit;
  let stored = P.Catalog.store_identity catalog mit ~rel:"subject" in
  insert stored [| vs "6.033"; vs "systems" |];
  let lhs = q (atom "m" [ v "C" ]) [ P.Peer.atom mit "subject" [ v "C"; v "T" ] ] in
  let rhs = q (atom "m" [ v "C" ]) [ P.Peer.atom uw "course" [ v "C"; v "T" ] ] in
  ignore (P.Catalog.add_mapping catalog (P.Peer_mapping.inclusion ~lhs ~rhs));
  (* Asking only for codes succeeds... *)
  let q_code = q (atom "ans" [ v "X" ]) [ P.Peer.atom uw "course" [ v "X"; v "T" ] ] in
  check_i "codes flow" 1
    (Relalg.Relation.cardinality (P.Answer.answer catalog q_code).P.Answer.answers);
  (* ... asking for titles cannot be answered through this mapping. *)
  let q_title = q (atom "ans" [ v "T" ]) [ P.Peer.atom uw "course" [ v "X"; v "T" ] ] in
  check_i "titles do not flow" 0
    (Relalg.Relation.cardinality (P.Answer.answer catalog q_title).P.Answer.answers)

(* ------------------------------------------------------------------ *)
(* Topology and network *)

let test_topology_shapes () =
  let chain = P.Topology.generate P.Topology.Chain ~n:8 in
  check_i "chain edges" 7 (P.Topology.edge_count chain);
  check_i "chain diameter" 7 (P.Topology.diameter chain);
  let star = P.Topology.generate P.Topology.Star ~n:8 in
  check_i "star edges" 7 (P.Topology.edge_count star);
  check_i "star diameter" 2 (P.Topology.diameter star);
  let ring = P.Topology.generate P.Topology.Ring ~n:8 in
  check_i "ring edges" 8 (P.Topology.edge_count ring);
  let tree = P.Topology.generate P.Topology.Binary_tree ~n:7 in
  check_i "tree edges" 6 (P.Topology.edge_count tree);
  let prng = Util.Prng.create 5 in
  let mesh = P.Topology.generate ~prng (P.Topology.Mesh 2) ~n:8 in
  check_b "mesh has extra edges" true (P.Topology.edge_count mesh >= 7)

let test_network_routing () =
  let net = P.Network.create () in
  P.Network.connect net "a" "b" ~latency_ms:10.0;
  P.Network.connect net "b" "c" ~latency_ms:5.0;
  P.Network.connect net "a" "c" ~latency_ms:50.0;
  (match P.Network.latency net "a" "c" with
  | Some l -> Alcotest.(check (float 1e-9)) "via b" 15.0 l
  | None -> Alcotest.fail "disconnected");
  (match P.Network.hops net "a" "c" with
  | Some h -> check_i "two hops" 2 h
  | None -> Alcotest.fail "disconnected");
  (match P.Network.send net ~src:"a" ~dst:"c" ~size:1024 with
  | Ok t -> Alcotest.(check (float 1e-9)) "send time" 16.0 t
  | Error e -> Alcotest.fail (P.Network.error_to_string e));
  check_i "one message" 1 (P.Network.messages_sent net);
  (* cost is pure: same price, no counter movement. *)
  (match P.Network.cost net ~src:"a" ~dst:"c" ~size:1024 with
  | Some c -> Alcotest.(check (float 1e-9)) "cost agrees with send" 16.0 c
  | None -> Alcotest.fail "cost: disconnected");
  check_i "cost sent nothing" 1 (P.Network.messages_sent net)

let test_network_edge_dedupe () =
  let net = P.Network.create () in
  P.Network.connect net "a" "b" ~latency_ms:10.0;
  P.Network.connect net "a" "b" ~latency_ms:25.0;
  P.Network.connect net "b" "a" ~latency_ms:4.0;
  (match P.Network.latency net "a" "b" with
  | Some l -> Alcotest.(check (float 1e-9)) "lowest latency wins" 4.0 l
  | None -> Alcotest.fail "disconnected");
  Alcotest.(check (list string)) "peers sorted, no dups" [ "a"; "b" ]
    (P.Network.peers net)

let test_network_faults () =
  let net = P.Network.create () in
  P.Network.connect net "a" "b" ~latency_ms:10.0;
  P.Network.connect net "b" "c" ~latency_ms:10.0;
  let v0 = P.Network.Fault.topology_version net in
  P.Network.Fault.fail_peer net "b";
  check_b "version bumped" true (P.Network.Fault.topology_version net > v0);
  check_b "b is down" true (P.Network.Fault.is_down net "b");
  check_b "no route around b" true (P.Network.latency net "a" "c" = None);
  (match P.Network.send net ~src:"a" ~dst:"b" ~size:64 with
  | Error (P.Network.Peer_down "b") -> ()
  | _ -> Alcotest.fail "expected Peer_down b");
  check_i "failed sends not counted" 0 (P.Network.messages_sent net);
  P.Network.Fault.heal_peer net "b";
  check_b "healed route" true (P.Network.latency net "a" "c" = Some 20.0);
  (* Cutting the a-b link severs a from everyone. *)
  P.Network.Fault.cut_link net "a" "b";
  (match P.Network.send net ~src:"a" ~dst:"c" ~size:64 with
  | Error (P.Network.No_route ("a", "c")) -> ()
  | _ -> Alcotest.fail "expected No_route");
  P.Network.Fault.restore_link net "b" "a";
  check_b "restored (either arg order)" true
    (P.Network.latency net "a" "c" = Some 20.0);
  (* Latency spike inflates the route but keeps it alive. *)
  P.Network.Fault.spike net "a" "b" ~extra_ms:100.0;
  check_b "spiked" true (P.Network.latency net "a" "c" = Some 120.0);
  P.Network.Fault.heal net;
  check_b "heal clears spikes" true (P.Network.latency net "a" "c" = Some 20.0)

let test_network_retry_flaky () =
  let net = P.Network.create () in
  P.Network.connect net "a" "b" ~latency_ms:10.0;
  P.Network.Fault.flaky net ~p:1.0 ();
  let before = Obs.Metrics.snapshot () in
  let retry = { P.Exec.default_retry with P.Exec.max_attempts = 3 } in
  let prng = Util.Prng.create 42 in
  let o = P.Network.send_with_retry net ~retry ~prng ~src:"a" ~dst:"b" ~size:64 in
  (match o.P.Network.result with
  | Error (P.Network.Link_drop _) -> ()
  | _ -> Alcotest.fail "expected every attempt dropped");
  check_i "three attempts" 3 o.P.Network.attempts;
  check_i "two retries" 2 o.P.Network.retries;
  check_b "backoff accumulated" true (o.P.Network.backoff_ms > 0.0);
  check_b "elapsed covers timeouts + backoff" true
    (o.P.Network.elapsed_ms >= o.P.Network.backoff_ms);
  check_i "nothing delivered" 0 (P.Network.messages_sent net);
  let after = Obs.Metrics.snapshot () in
  let delta name =
    Obs.Metrics.counter_value after name - Obs.Metrics.counter_value before name
  in
  check_i "pdms.net.retries" 2 (delta "pdms.net.retries");
  check_i "pdms.net.gave_up" 1 (delta "pdms.net.gave_up");
  (* Turning flakiness off makes the same exchange succeed first try. *)
  P.Network.Fault.flaky net ~p:0.0 ();
  let o2 =
    P.Network.send_with_retry net ~retry ~prng ~src:"a" ~dst:"b" ~size:64
  in
  check_b "delivered" true (Result.is_ok o2.P.Network.result);
  check_i "first attempt" 1 o2.P.Network.attempts;
  check_i "one message" 1 (P.Network.messages_sent net)

let test_network_of_topology () =
  let topo = P.Topology.generate P.Topology.Chain ~n:4 in
  let net =
    P.Network.of_topology topo ~names:[ "p0"; "p1"; "p2"; "p3" ] ~base_latency_ms:2.0
  in
  match P.Network.latency net "p0" "p3" with
  | Some l -> Alcotest.(check (float 1e-9)) "three hops" 6.0 l
  | None -> Alcotest.fail "disconnected"

(* ------------------------------------------------------------------ *)
(* Updategrams *)

let vi i = Relalg.Value.Int i

let test_updategram_compose () =
  let a = P.Updategram.make ~rel:"r" ~inserts:[ [| vi 1 |]; [| vi 2 |] ] () in
  let b = P.Updategram.make ~rel:"r" ~deletes:[ [| vi 1 |] ] ~inserts:[ [| vi 3 |] ] () in
  let c = P.Updategram.compose a b in
  check_i "two inserts" 2 (List.length c.P.Updategram.inserts);
  check_i "no deletes" 0 (List.length c.P.Updategram.deletes)

(* ------------------------------------------------------------------ *)
(* View maintenance *)

let vm_db () =
  let db = Relalg.Database.create () in
  ignore (Relalg.Database.create_relation db "r" [ "a"; "b" ]);
  ignore (Relalg.Database.create_relation db "s" [ "b"; "c" ]);
  db

let vm_view =
  q (atom "vw" [ v "X"; v "Z" ]) [ atom "r" [ v "X"; v "Y" ]; atom "s" [ v "Y"; v "Z" ] ]

let sorted_tuples vm =
  P.View_maintenance.tuples vm
  |> List.map (fun row -> Array.to_list (Array.map Relalg.Value.to_string row))
  |> List.sort compare

let test_view_maintenance_basic () =
  let db = vm_db () in
  let vm = P.View_maintenance.create db [ vm_view ] in
  check_i "empty initially" 0 (P.View_maintenance.cardinality vm);
  P.View_maintenance.apply vm
    (P.Updategram.make ~rel:"r" ~inserts:[ [| vi 1; vi 2 |] ] ());
  check_i "no join partner yet" 0 (P.View_maintenance.cardinality vm);
  P.View_maintenance.apply vm
    (P.Updategram.make ~rel:"s" ~inserts:[ [| vi 2; vi 3 |] ] ());
  check_b "join appears" true (sorted_tuples vm = [ [ "1"; "3" ] ]);
  (* A second derivation of the same output tuple. *)
  P.View_maintenance.apply vm
    (P.Updategram.make ~rel:"r" ~inserts:[ [| vi 1; vi 5 |] ] ());
  P.View_maintenance.apply vm
    (P.Updategram.make ~rel:"s" ~inserts:[ [| vi 5; vi 3 |] ] ());
  check_b "still one tuple" true (sorted_tuples vm = [ [ "1"; "3" ] ]);
  (* Deleting one derivation keeps the tuple; deleting both removes it. *)
  P.View_maintenance.apply vm
    (P.Updategram.make ~rel:"s" ~deletes:[ [| vi 5; vi 3 |] ] ());
  check_b "survives one delete" true (sorted_tuples vm = [ [ "1"; "3" ] ]);
  P.View_maintenance.apply vm
    (P.Updategram.make ~rel:"s" ~deletes:[ [| vi 2; vi 3 |] ] ());
  check_i "gone after both" 0 (P.View_maintenance.cardinality vm)

(* Rows that differ only by a constant's type are distinct tuples: the
   view and the replica built on it count them apart, and retracting
   one leaves the other's derivation intact. *)
let test_typed_rows_stay_apart () =
  let catalog = P.Catalog.create () in
  let c = P.Peer.create ~name:"c" ~schema:[ ("t", [ "k"; "v" ]) ] in
  P.Catalog.add_peer catalog c;
  let stored = P.Catalog.store_identity catalog c ~rel:"t" in
  let int_row = [| vs "k"; Relalg.Value.Int 1 |]
  and str_row = [| vs "k"; vs "1" |] in
  List.iter (insert stored) [ int_row; str_row ];
  let query = q (atom "ans" [ v "K"; v "V" ]) [ P.Peer.atom c "t" [ v "K"; v "V" ] ] in
  let prop = P.Propagate.create catalog in
  check_i "replica rows" 2 (P.Propagate.materialise prop ~name:"r" ~at:"c" query);
  let db = P.Catalog.global_db catalog in
  let view =
    q (atom "ans" [ v "K"; v "V" ]) [ atom (P.Peer.stored_pred c "t") [ v "K"; v "V" ] ]
  in
  let vm = P.View_maintenance.create db [ view ] in
  check_i "view rows" 2 (List.length (P.View_maintenance.tuples vm));
  P.View_maintenance.apply vm
    (P.Updategram.make ~rel:(P.Peer.stored_pred c "t") ~deletes:[ int_row ] ());
  check_b "the string row survives" true
    (List.for_all
       (Relalg.Relation.tuple_equal str_row)
       (P.View_maintenance.tuples vm)
    && P.View_maintenance.cardinality vm = 1);
  P.View_maintenance.apply vm
    (P.Updategram.make ~rel:(P.Peer.stored_pred c "t") ~deletes:[ str_row ] ());
  check_i "both retracted" 0 (P.View_maintenance.cardinality vm)

(* Unions that exercise the delta rule's corners: a join, a self-join,
   a constant, a repeated variable, and two-view unions. *)
let vm_unions =
  let x = v "X" and y = v "Y" and z = v "Z" and one = Term.int 1 in
  let r a b = atom "r" [ a; b ] and s a b = atom "s" [ a; b ] in
  let vw body = q (atom "vw" [ x; z ]) body in
  [ [ vm_view ];
    [ vw [ r x y; r y z ] ];
    [ vw [ r x one; s one z ] ];
    [ q (atom "vw" [ x; x ]) [ r x x; s x y ] ];
    [ vm_view; vw [ s x z ] ];
    [ vw [ r x y; r y z ]; vw [ s x y; r y z ] ] ]

(* The union's rows by independent per-view evaluation. *)
let union_rows db views =
  List.concat_map (fun view -> Relalg.Relation.tuples (Eval.run db view)) views
  |> List.map (fun row -> Array.to_list (Array.map Relalg.Value.to_string row))
  |> List.sort_uniq compare

(* Batch grams of 0-3 deletes and 0-3 inserts over a 3x3 domain, so a
   row may be deleted and reinserted in one gram and may repeat within
   a list; the stored relations start with some rows held twice. After
   every gram the view must equal per-view evaluation, and at the end a
   refresh must agree too. *)
let prop_view_maintenance_matches_recompute =
  QCheck.Test.make ~name:"incremental maintenance = recompute" ~count:200
    (QCheck.make QCheck.Gen.(int_bound 10_000) ~print:string_of_int)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let db = vm_db () in
      let row () = [| vi (Util.Prng.int prng 3); vi (Util.Prng.int prng 3) |] in
      let rows bound = List.init (Util.Prng.int prng bound) (fun _ -> row ()) in
      List.iter
        (fun rel ->
          let initial = rows 6 in
          Relalg.Relation.apply (Relalg.Database.find db rel)
            (Relalg.Relation.Delta.of_rows
               (initial @ List.filteri (fun k _ -> k mod 2 = 0) initial)))
        [ "r"; "s" ];
      let views = List.nth vm_unions (seed mod List.length vm_unions) in
      let vm = P.View_maintenance.create db views in
      let agrees () = sorted_tuples vm = union_rows db views in
      let rec grams n =
        n = 0
        ||
        let rel = if Util.Prng.bool prng then "r" else "s" in
        let deletes = rows 4 in
        let inserts =
          rows 4 @ if Util.Prng.bool prng then List.filteri (fun k _ -> k = 0) deletes else []
        in
        P.View_maintenance.apply vm (P.Updategram.make ~rel ~inserts ~deletes ());
        agrees () && grams (n - 1)
      in
      grams 20
      &&
      (P.View_maintenance.refresh vm;
       agrees ()))

(* A row stored twice under a self-join: deleting one copy keeps the
   derivation that reads it at both occurrences, deleting the other
   retracts it. *)
let test_view_maintenance_repeated_row () =
  let db = vm_db () in
  let r = Relalg.Database.find db "r" in
  let loop = [| vi 1; vi 1 |] in
  Relalg.Relation.apply r (Relalg.Relation.Delta.of_rows [ loop; loop ]);
  let view =
    q (atom "vw" [ v "X"; v "Z" ]) [ atom "r" [ v "X"; v "Y" ]; atom "r" [ v "Y"; v "Z" ] ]
  in
  let vm = P.View_maintenance.create db [ view ] in
  let delete () =
    P.View_maintenance.apply vm (P.Updategram.make ~rel:"r" ~deletes:[ loop ] ())
  in
  delete ();
  check_b "one copy left" true (sorted_tuples vm = [ [ "1"; "1" ] ]);
  delete ();
  check_i "last copy gone" 0 (P.View_maintenance.cardinality vm)

(* Tracing is observation only: the same grams give the same rows, and
   each gram's maintenance shows as a [view.maintain] span with the
   delta plan and its walk under it. *)
let test_view_maintenance_trace () =
  let run exec =
    let db = vm_db () in
    let vm = P.View_maintenance.create ~exec db [ vm_view ] in
    List.iter (P.View_maintenance.apply vm)
      [ P.Updategram.make ~rel:"r" ~inserts:[ [| vi 1; vi 2 |]; [| vi 4; vi 2 |] ] ();
        P.Updategram.make ~rel:"s" ~inserts:[ [| vi 2; vi 3 |] ] ();
        P.Updategram.make ~rel:"r" ~deletes:[ [| vi 4; vi 2 |] ] () ];
    sorted_tuples vm
  in
  let sink = Obs.Sink.memory () in
  let traced = run (P.Exec.make ~trace:(Obs.Trace.create sink) ()) in
  check_b "same rows traced and untraced" true (traced = run P.Exec.default);
  check_b "rows" true (traced = [ [ "1"; "3" ] ]);
  let names = List.map Obs.Span.names (Obs.Sink.spans sink) in
  Alcotest.(check (list (list string)))
    "span trees"
    ([ [ "view.refresh"; "plan"; "trie_eval" ] ]
    @ List.init 3 (fun _ -> [ "view.maintain"; "plan"; "trie_eval" ]))
    names

(* Non-identity storage description: the peer stores only a selection
   of its logical relation (A:R ⊆ Q(P) with a constant filter). *)
let test_storage_description_selection () =
  let catalog = P.Catalog.create () in
  let uw =
    P.Peer.create ~name:"uw" ~schema:[ ("course", [ "code"; "title"; "dept" ]) ]
  in
  P.Catalog.add_peer catalog uw;
  (* Stored relation holds only CS courses, and only (code, title). *)
  let stored = P.Peer.add_stored uw ~rel:"cs_courses" ~attrs:[ "code"; "title" ] in
  let view =
    q
      (atom (P.Peer.stored_pred uw "cs_courses") [ v "C"; v "T" ])
      [ P.Peer.atom uw "course" [ v "C"; v "T"; Term.str "cs" ] ]
  in
  P.Catalog.add_storage catalog (P.Storage_desc.make P.Storage_desc.Containment view);
  List.iter (insert stored)
    [ [| vs "cse444"; vs "databases" |]; [| vs "cse446"; vs "ml" |] ];
  (* Asking for CS courses is answered from storage... *)
  let q_cs =
    q (atom "ans" [ v "C"; v "T" ])
      [ P.Peer.atom uw "course" [ v "C"; v "T"; Term.str "cs" ] ]
  in
  check_i "cs courses" 2
    (Relalg.Relation.cardinality (P.Answer.answer catalog q_cs).P.Answer.answers);
  (* ... asking for all courses still finds (only) the stored ones —
     the maximally contained answer. *)
  let q_all =
    q (atom "ans" [ v "C" ]) [ P.Peer.atom uw "course" [ v "C"; v "T"; v "D" ] ]
  in
  check_i "contained answer" 2
    (Relalg.Relation.cardinality (P.Answer.answer catalog q_all).P.Answer.answers);
  (* ... and asking specifically for history courses yields nothing. *)
  let q_hist =
    q (atom "ans" [ v "C" ])
      [ P.Peer.atom uw "course" [ v "C"; v "T"; Term.str "history" ] ]
  in
  check_i "no history stored" 0
    (Relalg.Relation.cardinality (P.Answer.answer catalog q_hist).P.Answer.answers)

(* ------------------------------------------------------------------ *)
(* Keyword search across the PDMS *)

let test_keyword_search () =
  let catalog, _, mit = two_peer_catalog `Equality in
  ignore mit;
  let hits = P.Keyword.search catalog "databases" in
  check_b "finds the databases course" true
    (List.exists
       (fun (h : P.Keyword.hit) ->
         h.P.Keyword.peer = "mit"
         && Array.exists
              (fun v -> Relalg.Value.to_string v = "databases")
              h.P.Keyword.tuple)
       hits);
  (* Ranked: the databases tuple outranks the systems tuple. *)
  (match hits with
  | best :: _ ->
      check_b "best is databases" true
        (Array.exists
           (fun v -> Relalg.Value.to_string v = "databases")
           best.P.Keyword.tuple)
  | [] -> Alcotest.fail "no hits");
  check_i "no junk hits" 0 (List.length (P.Keyword.search catalog "zebra"))

(* ------------------------------------------------------------------ *)
(* Distributed execution *)

let test_distributed_owner_parsing () =
  check_b "stored pred" true
    (P.Distributed.owner_of_pred "mit.subject!" = Some "mit");
  check_b "peer pred is not stored" true
    (P.Distributed.owner_of_pred "mit.subject" = None);
  check_b "unqualified" true (P.Distributed.owner_of_pred "course!" = None)

let test_distributed_beats_central () =
  (* Data at the far end of a chain; executing there and shipping only
     the (smaller) result must beat shipping the whole relation. *)
  let catalog, peers = chain_catalog 4 in
  let network = P.Network.create () in
  List.iteri
    (fun i _ ->
      if i < 3 then
        P.Network.connect network
          (Printf.sprintf "p%d" i)
          (Printf.sprintf "p%d" (i + 1))
          ~latency_ms:10.0)
    peers;
  (* Bulk up the stored relation so shipping it is expensive. *)
  let last = List.nth peers 3 in
  let stored = Relalg.Database.find (P.Peer.stored_db last) (P.Peer.stored_pred last "course") in
  for i = 0 to 199 do
    insert stored
      [| vs (Printf.sprintf "bulk%d" i); vs "filler" |]
  done;
  let p0 = List.hd peers in
  (* Selective query: only one course code. *)
  let query =
    q (atom "ans" [ v "T" ])
      [ P.Peer.atom p0 "course" [ Term.str "c1"; v "T" ] ]
  in
  let plan = P.Distributed.execute catalog network ~at:"p0" query in
  check_i "one answer" 1 (Relalg.Relation.cardinality plan.P.Distributed.answers);
  check_b "distributed cheaper than central" true
    (plan.P.Distributed.distributed_ms < plan.P.Distributed.central_ms);
  (* The chosen site owns the data. *)
  check_b "executed at the data" true
    (List.for_all
       (fun (sp : P.Distributed.site_plan) ->
         sp.P.Distributed.remote_reads = 0)
       plan.P.Distributed.sites)

let test_distributed_answers_match_answer () =
  let catalog, peers = chain_catalog 3 in
  let network = P.Network.create () in
  P.Network.connect network "p0" "p1" ~latency_ms:5.0;
  P.Network.connect network "p1" "p2" ~latency_ms:5.0;
  let p0 = List.hd peers in
  let query =
    q (atom "ans" [ v "X"; v "Y" ]) [ P.Peer.atom p0 "course" [ v "X"; v "Y" ] ]
  in
  let plan = P.Distributed.execute catalog network ~at:"p0" query in
  let direct = P.Answer.answer catalog query in
  check_b "same answers" true
    (List.sort compare
       (List.map (fun r -> Array.map Relalg.Value.to_string r)
          (Relalg.Relation.tuples plan.P.Distributed.answers))
    = List.sort compare
        (List.map (fun r -> Array.map Relalg.Value.to_string r)
           (Relalg.Relation.tuples direct.P.Answer.answers)))

let rel_sorted rel =
  Relalg.Relation.tuples rel
  |> List.map (fun r -> Array.to_list (Array.map Relalg.Value.to_string r))
  |> List.sort compare

(* Planning must be pure: with no faults, the traffic counters reflect
   executed transfers only, not candidate-site cost probes. *)
let test_distributed_messages_count_executed_only () =
  let catalog, peers = chain_catalog 4 in
  let network = P.Network.create () in
  List.iteri
    (fun i _ ->
      if i < 3 then
        P.Network.connect network
          (Printf.sprintf "p%d" i)
          (Printf.sprintf "p%d" (i + 1))
          ~latency_ms:10.0)
    peers;
  P.Network.reset_counters network;
  let p0 = List.hd peers in
  let query =
    q (atom "ans" [ v "T" ])
      [ P.Peer.atom p0 "course" [ Term.str "c1"; v "T" ] ]
  in
  let plan = P.Distributed.execute catalog network ~at:"p0" query in
  check_b "complete" true plan.P.Distributed.report.P.Distributed.complete;
  check_i "no retries without faults" 0
    plan.P.Distributed.report.P.Distributed.retries;
  (* Every site plan here reads locally (remote_reads = 0), so the only
     real transfers are the result ships from non-p0 sites. *)
  let expected_ships =
    List.length
      (List.filter
         (fun (sp : P.Distributed.site_plan) ->
           not (String.equal sp.P.Distributed.site "p0"))
         plan.P.Distributed.sites)
  in
  check_b "something actually shipped" true (expected_ships > 0);
  check_i "messages = executed ships only" expected_ships
    (P.Network.messages_sent network)

(* Figure-2 six-university network under a partition: the answer
   degrades to the reachable side and heals back to the full answer. *)
let test_distributed_partitioned_six_universities () =
  let prng = Util.Prng.create 2003 in
  let d = Workload.University.build_delearning prng ~courses_per_peer:2 in
  let catalog = d.Workload.University.catalog in
  let network = d.Workload.University.network in
  let _, stanford = List.hd d.Workload.University.peers in
  let query = Workload.University.course_query stanford in
  let full = P.Distributed.execute catalog network ~at:"stanford" query in
  check_b "fault-free run complete" true
    full.P.Distributed.report.P.Distributed.complete;
  check_b "fault-free matches Answer.answer" true
    (rel_sorted full.P.Distributed.answers
    = rel_sorted (P.Answer.answer catalog query).P.Answer.answers);
  (* Cut {stanford, berkeley, roma} off from {mit, oxford, tsinghua}. *)
  let before = Obs.Metrics.snapshot () in
  P.Network.Fault.partition network [ "stanford"; "berkeley"; "roma" ];
  let part = P.Distributed.execute catalog network ~at:"stanford" query in
  let report = part.P.Distributed.report in
  check_b "partial" true (not report.P.Distributed.complete);
  check_b "dropped rewritings counted" true
    (report.P.Distributed.rewritings_dropped > 0);
  check_b "failed sites named" true (report.P.Distributed.sites_failed <> []);
  check_b "retries were spent" true (report.P.Distributed.retries > 0);
  let after = Obs.Metrics.snapshot () in
  check_b "pdms.distributed.partial nonzero" true
    (Obs.Metrics.counter_value after "pdms.distributed.partial"
     > Obs.Metrics.counter_value before "pdms.distributed.partial");
  check_b "pdms.net.retries nonzero" true
    (Obs.Metrics.counter_value after "pdms.net.retries"
     > Obs.Metrics.counter_value before "pdms.net.retries");
  (* Exactly the reachable side's tuples: titles are prefixed with the
     owning university's name. *)
  let reachable = [ "[stanford]"; "[berkeley]"; "[roma]" ] in
  let rows = rel_sorted part.P.Distributed.answers in
  check_b "only reachable tuples" true
    (rows <> []
    && List.for_all
         (fun row ->
           match row with
           | title :: _ ->
               List.exists
                 (fun p -> String.length title >= String.length p
                           && String.sub title 0 (String.length p) = p)
                 reachable
           | [] -> false)
         rows);
  let expected =
    List.fold_left
      (fun acc (name, n) ->
        if List.mem name [ "stanford"; "berkeley"; "roma" ] then acc + n
        else acc)
      0 d.Workload.University.course_counts
  in
  check_i "reachable cardinality" expected (List.length rows);
  (* Healing restores the full answer. *)
  P.Network.Fault.heal network;
  let healed = P.Distributed.execute catalog network ~at:"stanford" query in
  check_b "healed complete" true
    healed.P.Distributed.report.P.Distributed.complete;
  check_b "healed matches full" true
    (rel_sorted healed.P.Distributed.answers
    = rel_sorted full.P.Distributed.answers)

(* With faults disabled the result-typed path answers exactly what
   Answer.answer does, complete and retry-free, for any jobs. *)
let prop_distributed_no_faults_matches_answer =
  QCheck.Test.make
    ~name:"distributed = answer with faults off, complete (any jobs)"
    ~count:25
    (QCheck.make QCheck.Gen.(int_bound 10_000) ~print:string_of_int)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let kind =
        match seed mod 4 with
        | 0 -> P.Topology.Chain
        | 1 -> P.Topology.Star
        | 2 -> P.Topology.Ring
        | _ -> P.Topology.Mesh 1
      in
      let n = 4 + (seed mod 3) in
      let topology = P.Topology.generate ~prng kind ~n in
      let g = Workload.Peers_gen.generate prng ~topology ~tuples_per_peer:3 () in
      let catalog = g.Workload.Peers_gen.catalog in
      let names = List.init n (Printf.sprintf "p%d") in
      let network =
        P.Network.of_topology topology ~names ~base_latency_ms:5.0
      in
      let query = Workload.Peers_gen.course_query g ~at:(seed mod 2) in
      let jobs = 1 + (seed mod 4) in
      let plan =
        P.Distributed.execute ~exec:(P.Exec.make ~jobs ()) catalog network
          ~at:"p0" query
      in
      let direct = P.Answer.answer ~exec:(P.Exec.make ~jobs ()) catalog query in
      rel_sorted plan.P.Distributed.answers
      = rel_sorted direct.P.Answer.answers
      && plan.P.Distributed.report.P.Distributed.complete
      && plan.P.Distributed.report.P.Distributed.retries = 0)

(* The trie evaluator agrees with the per-rewriting reference everywhere
   the union is routed: Answer.answer, and Distributed.execute, whose
   per-leaf outputs are unioned over the surviving sites. Any jobs,
   faults on and off, and unions of a single rewriting (a one-leaf
   trie) included. *)
let prop_batch_matches_nobatch =
  QCheck.Test.make
    ~name:"batch trie = per-rewriting eval (answer + distributed, faults on/off)"
    ~count:20
    (QCheck.make QCheck.Gen.(int_bound 10_000) ~print:string_of_int)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let kind =
        match seed mod 4 with
        | 0 -> P.Topology.Chain
        | 1 -> P.Topology.Star
        | 2 -> P.Topology.Ring
        | _ -> P.Topology.Mesh 1
      in
      let n = 4 + (seed mod 3) in
      let topology = P.Topology.generate ~prng kind ~n in
      let g =
        Workload.Peers_gen.generate prng ~topology ~tuples_per_peer:3
          ~with_join:true ()
      in
      let catalog = g.Workload.Peers_gen.catalog in
      let db = P.Catalog.global_db catalog in
      (* Join queries exercise real prefix sharing, plain course queries
         the no-sharing degenerate trie, and a query over p0's stored
         relation reformulates to itself alone. *)
      let stored_query () =
        let pred = P.Peer.stored_pred g.Workload.Peers_gen.peers.(0) "course" in
        let arity =
          Relalg.Schema.arity
            (Relalg.Relation.schema (Relalg.Database.find db pred))
        in
        let vars = List.init arity (fun i -> v (Printf.sprintf "X%d" i)) in
        q (atom "ans" vars) [ atom pred vars ]
      in
      let query =
        match seed mod 3 with
        | 0 -> Workload.Peers_gen.course_query g ~at:0
        | 1 -> Workload.Peers_gen.join_query g ~at:0
        | _ -> stored_query ()
      in
      let expected = Reference.answer catalog query in
      let rewritings = expected.P.Answer.outcome.P.Reformulate.rewritings in
      let names = List.init n (Printf.sprintf "p%d") in
      (* Odd seeds run the distributed comparison under a peer fault. *)
      let faulty = seed mod 2 = 1 in
      let mk_net () =
        let network =
          P.Network.of_topology topology ~names ~base_latency_ms:5.0
        in
        if faulty then
          P.Network.Fault.fail_peer network (Printf.sprintf "p%d" (n - 1));
        network
      in
      let check jobs =
        let exec = P.Exec.make ~jobs () in
        let a = P.Answer.answer ~exec catalog query in
        let d = P.Distributed.execute ~exec catalog (mk_net ()) ~at:"p0" query in
        let survivors =
          List.map (fun sp -> sp.P.Distributed.rewriting) d.P.Distributed.sites
        in
        rel_sorted a.P.Answer.answers = rel_sorted expected.P.Answer.answers
        && rel_sorted d.P.Distributed.answers
           = (match survivors with
             | [] -> []
             | rs -> rel_sorted (Reference.eval_union db rs))
        && (faulty || d.P.Distributed.report.P.Distributed.complete)
      in
      (seed mod 3 <> 2 || List.length rewritings = 1)
      && List.for_all check [ 1; 2; 3 ])

(* Keyword search degrades with the network: a downed peer's relations
   vanish from the ranking. *)
let test_keyword_skips_down_peer () =
  let catalog, _, _ = two_peer_catalog `Equality in
  let network = P.Network.create () in
  P.Network.connect network "uw" "mit" ~latency_ms:5.0;
  check_b "reachable peer answers" true
    (P.Keyword.search ~network catalog "databases" <> []);
  P.Network.Fault.fail_peer network "mit";
  check_i "down peer's tuples skipped" 0
    (List.length (P.Keyword.search ~network catalog "databases"));
  P.Network.Fault.heal_peer network "mit";
  check_b "heals back" true
    (P.Keyword.search ~network catalog "databases" <> [])

(* ------------------------------------------------------------------ *)
(* Kwindex: the inverted index must be indistinguishable from the
   reference brute-force scan — scores bit-identical, order and
   tie-breaks included — for any jobs value and any fault schedule. *)

let hit_key (h : P.Keyword.hit) =
  ( h.P.Keyword.peer,
    h.P.Keyword.stored_rel,
    Array.map Relalg.Value.to_string h.P.Keyword.tuple,
    Int64.bits_of_float h.P.Keyword.score )

let prop_indexed_matches_brute =
  QCheck.Test.make
    ~name:"indexed hits = brute hits (bit-identical scores, any jobs, faults)"
    ~count:25
    (QCheck.make QCheck.Gen.(int_bound 10_000) ~print:string_of_int)
    (fun seed ->
      let prng = Util.Prng.create (seed + 31) in
      let kind =
        match seed mod 4 with
        | 0 -> P.Topology.Chain
        | 1 -> P.Topology.Star
        | 2 -> P.Topology.Ring
        | _ -> P.Topology.Mesh 2
      in
      let n = 3 + (seed mod 4) in
      let topology = P.Topology.generate ~prng kind ~n in
      let g =
        Workload.Peers_gen.generate prng ~topology
          ~tuples_per_peer:(2 + (seed mod 5))
          ~with_join:(seed mod 2 = 0) ()
      in
      let catalog = g.Workload.Peers_gen.catalog in
      let network =
        if seed mod 3 = 0 then begin
          let net =
            P.Distributed.network_of_catalog catalog ~latency_ms:1.0
          in
          P.Network.Fault.fail_peer net (Printf.sprintf "p%d" (seed mod n));
          Some net
        end
        else None
      in
      let limit = 1 + (seed mod 7) in
      let query = Workload.Peers_gen.keyword_query g prng in
      let run search jobs =
        List.map hit_key
          (search ?limit:(Some limit) ?exec:(Some (P.Exec.make ~jobs ()))
             ?network catalog query)
      in
      let reference = run Reference.search 1 in
      reference = run Reference.search 3
      && List.for_all
           (fun jobs -> run P.Keyword.search jobs = reference)
           [ 1; 2; 3 ])

let kwindex_builds () =
  Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) "pdms.kwindex.builds"

(* Incremental maintenance: a warm search rebuilds nothing; touching
   one relation reindexes that relation alone. *)
let test_kwindex_incremental () =
  let catalog = P.Catalog.create () in
  let pa = P.Peer.create ~name:"pa" ~schema:[ ("r", [ "x"; "y" ]) ] in
  let pb = P.Peer.create ~name:"pb" ~schema:[ ("s", [ "x"; "y" ]) ] in
  P.Catalog.add_peer catalog pa;
  P.Catalog.add_peer catalog pb;
  let ra = P.Catalog.store_identity catalog pa ~rel:"r" in
  let rb = P.Catalog.store_identity catalog pb ~rel:"s" in
  insert ra [| vs "cse444"; vs "databases" |];
  insert rb [| vs "cse451"; vs "operating systems" |];
  ignore (P.Keyword.search catalog "databases");
  let warm = kwindex_builds () in
  ignore (P.Keyword.search catalog "systems");
  check_i "warm repeat rebuilds nothing" warm (kwindex_builds ());
  let patched () =
    Obs.Metrics.counter_value (Obs.Metrics.snapshot ())
      "pdms.delta.patched_postings"
  in
  let patched0 = patched () in
  insert ra [| vs "cse452"; vs "distributed systems" |];
  let hits = P.Keyword.search catalog "distributed" in
  check_i "the touched relation patches, no rebuild" warm (kwindex_builds ());
  check_b "postings were patched" true (patched () > patched0);
  check_b "new tuple is searchable" true
    (List.exists
       (fun (h : P.Keyword.hit) ->
         Array.exists
           (fun v -> Relalg.Value.to_string v = "cse452")
           h.P.Keyword.tuple)
       hits)

(* Overflow evicts one LRU victim, not the whole store (the old token
   memo's Hashtbl.reset forced a thundering rebuild of everything). *)
let test_kwindex_lru_eviction () =
  P.Kwindex.reset ();
  let b0 = kwindex_builds () in
  let rel i =
    let r = Relalg.Relation.create (Relalg.Schema.make "r" [ "x" ]) in
    insert r [| vs (Printf.sprintf "tok%d" i) |];
    r
  in
  let rels = Array.init (P.Kwindex.max_entries + 5) rel in
  Array.iteri
    (fun i r ->
      ignore (P.Kwindex.get ~rel_name:(Printf.sprintf "r%d!" i) r))
    rels;
  check_i "store bounded at capacity" P.Kwindex.max_entries
    (P.Kwindex.store_size ());
  let filled = kwindex_builds () in
  check_i "every relation built exactly once"
    (b0 + P.Kwindex.max_entries + 5) filled;
  let last = Array.length rels - 1 in
  ignore (P.Kwindex.get ~rel_name:(Printf.sprintf "r%d!" last) rels.(last));
  check_i "recent entry survived the overflow" filled (kwindex_builds ());
  ignore (P.Kwindex.get ~rel_name:"r0!" rels.(0));
  check_i "oldest entry was evicted" (filled + 1) (kwindex_builds ());
  P.Kwindex.reset ()

let delta_fallbacks () =
  Obs.Metrics.counter_value (Obs.Metrics.snapshot ())
    "pdms.delta.rebuild_fallbacks"

(* The delta-patched index must be indistinguishable from rebuilding on
   every change: identical rendered hit lists over a random stream of
   inserts and deletes, for any jobs value, with faults on or off.  The
   stream stays far below the delta-log caps, so the incremental run
   must also never fall back to a rebuild; the other run reindexes each
   touched relation from scratch through the reference. *)
let prop_kwindex_incremental_matches_rebuild =
  QCheck.Test.make
    ~name:"incremental index = rebuilt index under random delta streams"
    ~count:20
    (QCheck.make QCheck.Gen.(int_bound 10_000) ~print:string_of_int)
    (fun seed ->
      (* Both modes rebuild the same world from the seed: same catalog,
         same op stream, same queries — only [incremental] differs. *)
      let run incremental =
        P.Kwindex.reset ();
        let prng = Util.Prng.create (seed + 77) in
        let kind =
          match seed mod 3 with
          | 0 -> P.Topology.Chain
          | 1 -> P.Topology.Star
          | _ -> P.Topology.Ring
        in
        let n = 3 + (seed mod 3) in
        let topology = P.Topology.generate ~prng kind ~n in
        let g =
          Workload.Peers_gen.generate prng ~topology
            ~tuples_per_peer:(2 + (seed mod 4)) ()
        in
        let catalog = g.Workload.Peers_gen.catalog in
        let db = P.Catalog.global_db catalog in
        let names = List.sort String.compare (Relalg.Database.names db) in
        let network =
          if seed mod 2 = 0 then begin
            let net =
              P.Distributed.network_of_catalog catalog ~latency_ms:1.0
            in
            P.Network.Fault.fail_peer net (Printf.sprintf "p%d" (seed mod n));
            Some net
          end
          else None
        in
        let ops = Util.Prng.create (seed + 1234) in
        let query = Workload.Peers_gen.keyword_query g ops in
        let transcript = ref [] in
        for i = 0 to 11 do
          let rel_name = Util.Prng.pick ops names in
          let rel = Relalg.Database.find db rel_name in
          let arity = Relalg.Schema.arity (Relalg.Relation.schema rel) in
          (match (Util.Prng.int ops 3, Relalg.Relation.tuples rel) with
          | (0 | 1), _ | _, [] ->
              let row =
                Array.init arity (fun _ ->
                    vs (Printf.sprintf "word%d" (Util.Prng.int ops 40)))
              in
              Relalg.Relation.apply rel (Relalg.Relation.Delta.add row)
          | _, rows ->
              Relalg.Relation.apply rel
                (Relalg.Relation.Delta.remove (Util.Prng.pick ops rows)));
          if not incremental then
            ignore (Reference.rebuild_index ~rel_name rel);
          let exec = P.Exec.make ~jobs:(1 + (i mod 3)) () in
          let hits = P.Keyword.search ~limit:5 ~exec ?network catalog query in
          transcript :=
            List.rev_append (List.map P.Keyword.render_hit hits) !transcript
        done;
        !transcript
      in
      let f0 = delta_fallbacks () in
      let incr = run true in
      let no_fallbacks = delta_fallbacks () = f0 in
      let rebuilt = run false in
      P.Kwindex.reset ();
      incr = rebuilt && no_fallbacks)

let metric name = Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) name

(* One effective single-row replacement: [n] is unchanged, the df of the
   two rows' tokens moves. *)
let replace_row rel old_row new_row =
  Relalg.Relation.apply rel
    (Relalg.Relation.Delta.make ~adds:[ new_row ] ~dels:[ old_row ] ())

(* Patched corpus statistics must score exactly like the brute scan and
   like a cold index after every step of a random stream that mixes
   n-preserving replacements, n-changing inserts and deletes, and
   fault-toggled reachable sets. *)
let prop_kwindex_patched_stats_bit_exact =
  QCheck.Test.make
    ~name:"patched df/norms = brute = cold index, bit for bit, every step"
    ~count:25
    (QCheck.make QCheck.Gen.(int_bound 10_000) ~print:string_of_int)
    (fun seed ->
      (* [run cold] replays the same world from the seed; [cold] resets
         the index before every search, the warm run keeps patching. *)
      let run cold =
        P.Kwindex.reset ();
        let prng = Util.Prng.create (seed + 5) in
        let n = 3 + (seed mod 3) in
        let topology = P.Topology.generate ~prng P.Topology.Chain ~n in
        let g =
          Workload.Peers_gen.generate prng ~topology
            ~tuples_per_peer:(3 + (seed mod 5))
            ~with_join:(seed mod 2 = 0) ()
        in
        let catalog = g.Workload.Peers_gen.catalog in
        let db = P.Catalog.global_db catalog in
        let names =
          Array.of_list (List.sort String.compare (Relalg.Database.names db))
        in
        let network = P.Distributed.network_of_catalog catalog ~latency_ms:1.0 in
        let ops = Util.Prng.create (seed + 99) in
        let queries =
          Array.init 4 (fun i ->
              if i = 0 then "word1 word2 word3"
              else
                Workload.Peers_gen.keyword_query g ops ^ " word"
                ^ string_of_int i)
        in
        let fresh rel =
          let arity = Relalg.Schema.arity (Relalg.Relation.schema rel) in
          Array.init arity (fun _ ->
              match (Util.Prng.int ops 3, Relalg.Relation.tuples rel) with
              | 0, (_ :: _ as rows) ->
                  let row = Util.Prng.pick ops rows in
                  row.(Util.Prng.int ops (Array.length row))
              | _ -> vs (Printf.sprintf "word%d" (Util.Prng.int ops 8)))
        in
        let steps = ref [] and agrees = ref true in
        for i = 0 to 14 do
          let rel = Relalg.Database.find db (Util.Prng.pick_arr ops names) in
          (match (Util.Prng.int ops 7, Relalg.Relation.tuples rel) with
          | (0 | 1), (_ :: _ as rows) ->
              replace_row rel (Util.Prng.pick ops rows) (fresh rel)
          | 2, (_ :: _ as rows) ->
              (* Same tokens in a new slot: no df moves, only the new
                 slot needs a norm. *)
              let row = Util.Prng.pick ops rows in
              replace_row rel row (Array.of_list (List.rev (Array.to_list row)))
          | 3, (_ :: _ as rows) ->
              Relalg.Relation.apply rel
                (Relalg.Relation.Delta.remove (Util.Prng.pick ops rows))
          | 4, _ ->
              let peer = Printf.sprintf "p%d" (Util.Prng.int ops n) in
              if P.Network.Fault.is_down network peer then
                P.Network.Fault.heal_peer network peer
              else P.Network.Fault.fail_peer network peer
          | _ -> insert rel (fresh rel));
          let query = queries.(i mod Array.length queries) in
          let search exec =
            if cold then P.Kwindex.reset ();
            List.map hit_key
              (P.Keyword.search ~limit:6 ~exec ~network catalog query)
          in
          let hits = search (P.Exec.make ~jobs:(1 + (i mod 2)) ()) in
          if not cold then
            agrees :=
              !agrees
              && hits
                 = List.map hit_key
                     (Reference.search ~limit:6 ~network catalog query);
          steps := hits :: !steps
        done;
        (!steps, !agrees)
      in
      let warm, agrees = run false in
      let cold, _ = run true in
      P.Kwindex.reset ();
      agrees && warm = cold)

(* A long run of n-preserving replacements leaves tombstones behind;
   compaction keeps the slot count bounded without changing a single
   hit. *)
let test_kwindex_compaction () =
  let transcript incremental =
    P.Kwindex.reset ();
    let catalog = P.Catalog.create () in
    let pa = P.Peer.create ~name:"pa" ~schema:[ ("r", [ "x"; "y" ]) ] in
    P.Catalog.add_peer catalog pa;
    let r = P.Catalog.store_identity catalog pa ~rel:"r" in
    let row i =
      [| vs (Printf.sprintf "w%d" (i mod 7)); vs (Printf.sprintf "row%d" i) |]
    in
    for i = 0 to 19 do
      insert r (row i)
    done;
    let name = List.hd (Relalg.Database.names (P.Catalog.global_db catalog)) in
    let out = ref [] and max_slots = ref 0 in
    for i = 20 to 2019 do
      replace_row r (row (i - 20)) (row i);
      if not incremental then ignore (Reference.rebuild_index ~rel_name:name r);
      let hits = P.Keyword.search ~limit:5 catalog "w3 w5" in
      out := List.rev_append (List.map hit_key hits) !out;
      let e, _ = P.Kwindex.get ~rel_name:name r in
      max_slots := max !max_slots e.P.Kwindex.n_slots
    done;
    (List.rev !out, !max_slots)
  in
  let c0 = metric "pdms.kwindex.compactions" in
  let patched, slots = transcript true in
  check_b "compacted along the way" true
    (metric "pdms.kwindex.compactions" > c0);
  check_b "slot count stays bounded" true (slots <= 40);
  let rebuilt, _ = transcript false in
  check_b "transcript equals a rebuild" true (patched = rebuilt);
  P.Kwindex.reset ()

(* The corpus memo holds one corpus per reachable set: two catalogs
   searched alternately both keep patching instead of evicting each
   other's corpus. *)
let test_kwindex_memo_per_reachable_set () =
  P.Kwindex.reset ();
  let world seed =
    let prng = Util.Prng.create seed in
    let topology = P.Topology.generate ~prng P.Topology.Chain ~n:3 in
    let g = Workload.Peers_gen.generate prng ~topology ~tuples_per_peer:6 () in
    let catalog = g.Workload.Peers_gen.catalog in
    let db = P.Catalog.global_db catalog in
    (catalog, db, Workload.Peers_gen.keyword_query g prng)
  in
  let worlds = [ world 1; world 2 ] in
  let search (catalog, _, query) search =
    List.map hit_key (search catalog query)
  in
  List.iter (fun w -> ignore (search w (P.Keyword.search ~limit:5))) worlds;
  let df0 = metric "pdms.kwindex.df_patched"
  and norms0 = metric "pdms.kwindex.norms_patched"
  and merges0 = metric "pdms.kwindex.df_merges" in
  for i = 1 to 5 do
    List.iter
      (fun ((_, db, _) as w) ->
        let rel = Relalg.Database.find db (List.hd (Relalg.Database.names db)) in
        let old_row = List.hd (Relalg.Relation.tuples rel) in
        replace_row rel old_row
          (Array.map (fun _ -> vs (Printf.sprintf "fresh%d" i)) old_row);
        check_b "patched search = brute search" true
          (search w (P.Keyword.search ~limit:5)
          = search w (Reference.search ~limit:5)))
      worlds
  done;
  check_i "every post-update corpus was patched" 10
    (metric "pdms.kwindex.df_patched" - df0);
  check_i "df_merges counts patched recomputes too" 10
    (metric "pdms.kwindex.df_merges" - merges0);
  check_b "norms were patched" true
    (metric "pdms.kwindex.norms_patched" > norms0);
  P.Kwindex.reset ()

(* Exceeding the bounded delta log forces one honest rebuild, counted
   in pdms.delta.rebuild_fallbacks; afterwards small deltas patch
   again. *)
let test_kwindex_truncation_fallback () =
  P.Kwindex.reset ();
  let r = Relalg.Relation.create (Relalg.Schema.make "t" [ "x"; "y" ]) in
  insert r [| vs "alpha"; vs "beta" |];
  ignore (P.Kwindex.get ~rel_name:"t!" r);
  let builds0 = kwindex_builds () in
  let f0 = delta_fallbacks () in
  for i = 0 to 599 do
    insert r [| vs (Printf.sprintf "w%d" i); vs "filler" |]
  done;
  check_b "log truncated past the cached version" true
    (Relalg.Relation.deltas_since r 1 = None);
  ignore (P.Kwindex.get ~rel_name:"t!" r);
  check_i "one full rebuild" (builds0 + 1) (kwindex_builds ());
  check_b "fallback counted" true (delta_fallbacks () > f0);
  insert r [| vs "gamma"; vs "delta" |];
  ignore (P.Kwindex.get ~rel_name:"t!" r);
  check_i "small delta patches again" (builds0 + 1) (kwindex_builds ());
  P.Kwindex.reset ()

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_hit_and_invalidate () =
  let catalog, uw, _ = two_peer_catalog `Equality in
  let cache = P.Cache.create catalog () in
  let query = q (atom "ans" [ v "X"; v "Y" ]) [ P.Peer.atom uw "course" [ v "X"; v "Y" ] ] in
  let r1 = P.Cache.answer cache query in
  check_i "first is a miss" 1 (P.Cache.misses cache);
  (* Alpha-equivalent query hits. *)
  let query' = q (atom "ans" [ v "A"; v "B" ]) [ P.Peer.atom uw "course" [ v "A"; v "B" ] ] in
  let r2 = P.Cache.answer cache query' in
  check_i "second is a hit" 1 (P.Cache.hits cache);
  check_b "same answers" true
    (P.Answer.answers_list r1 = P.Answer.answers_list r2);
  (* An updategram on the read relation invalidates the entry... *)
  let stored_pred = P.Peer.stored_pred (P.Catalog.peer catalog "mit") "subject" in
  check_i "one entry dropped" 1
    (P.Cache.invalidate cache (P.Updategram.make ~rel:stored_pred ()));
  check_i "cache empty" 0 (P.Cache.entries cache);
  (* ... and an unrelated one does not. *)
  ignore (P.Cache.answer cache query);
  check_i "nothing dropped" 0
    (P.Cache.invalidate cache (P.Updategram.make ~rel:"unrelated!" ()))

let test_cache_reflects_updates_after_invalidation () =
  let catalog, uw, mit = two_peer_catalog `Equality in
  let cache = P.Cache.create catalog () in
  let query = q (atom "ans" [ v "X"; v "Y" ]) [ P.Peer.atom uw "course" [ v "X"; v "Y" ] ] in
  check_i "before" 2
    (Relalg.Relation.cardinality (P.Cache.answer cache query).P.Answer.answers);
  (* New data arrives at MIT; the stale cache would miss it. *)
  let stored_pred = P.Peer.stored_pred mit "subject" in
  let stored = Relalg.Database.find (P.Peer.stored_db mit) stored_pred in
  insert stored [| vs "6.001"; vs "sicp" |];
  check_i "stale while cached" 2
    (Relalg.Relation.cardinality (P.Cache.answer cache query).P.Answer.answers);
  ignore (P.Cache.invalidate cache (P.Updategram.make ~rel:stored_pred ()));
  check_i "fresh after invalidation" 3
    (Relalg.Relation.cardinality (P.Cache.answer cache query).P.Answer.answers)

let test_cache_lru_eviction () =
  let catalog, uw, _ = two_peer_catalog `Equality in
  let cache = P.Cache.create ~capacity:2 catalog () in
  let mk pred =
    q (atom pred [ v "X"; v "Y" ]) [ P.Peer.atom uw "course" [ v "X"; v "Y" ] ]
  in
  ignore (P.Cache.answer cache (mk "q1"));
  ignore (P.Cache.answer cache (mk "q2"));
  ignore (P.Cache.answer cache (mk "q3"));
  check_i "capacity respected" 2 (P.Cache.entries cache);
  (* q1 was evicted: asking again misses. *)
  ignore (P.Cache.answer cache (mk "q1"));
  check_i "four misses" 4 (P.Cache.misses cache)

(* Eviction must be strictly least-recently-used: touching an entry via
   a hit protects it from the next eviction. *)
let test_cache_lru_touch_protects () =
  let catalog, uw, _ = two_peer_catalog `Equality in
  let cache = P.Cache.create ~capacity:2 catalog () in
  let mk pred =
    q (atom pred [ v "X"; v "Y" ]) [ P.Peer.atom uw "course" [ v "X"; v "Y" ] ]
  in
  ignore (P.Cache.answer cache (mk "q1"));
  ignore (P.Cache.answer cache (mk "q2"));
  (* Touch q1, making q2 the LRU; inserting q3 must evict q2. *)
  ignore (P.Cache.answer cache (mk "q1"));
  check_i "touch is a hit" 1 (P.Cache.hits cache);
  ignore (P.Cache.answer cache (mk "q3"));
  ignore (P.Cache.answer cache (mk "q1"));
  check_i "q1 survived" 2 (P.Cache.hits cache);
  ignore (P.Cache.answer cache (mk "q2"));
  check_i "q2 was the victim" 4 (P.Cache.misses cache)

(* The cache agrees with an executable reference model: an LRU list of
   bounded length. Checks hit/miss prediction and entry count after
   every access. *)
let prop_cache_lru_reference_model =
  QCheck.Test.make ~name:"cache matches reference LRU model" ~count:20
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 30) (int_bound 5))
       ~print:(fun l -> String.concat "," (List.map string_of_int l)))
    (fun accesses ->
      let catalog, uw, _ = two_peer_catalog `Equality in
      let capacity = 3 in
      let cache = P.Cache.create ~capacity catalog () in
      let mk i =
        q
          (atom (Printf.sprintf "q%d" i) [ v "X"; v "Y" ])
          [ P.Peer.atom uw "course" [ v "X"; v "Y" ] ]
      in
      let model = ref [] in
      List.for_all
        (fun i ->
          let hits0 = P.Cache.hits cache and misses0 = P.Cache.misses cache in
          ignore (P.Cache.answer cache (mk i));
          let expected_hit = List.mem i !model in
          model := i :: List.filter (fun j -> j <> i) !model;
          if List.length !model > capacity then
            model := List.filteri (fun k _ -> k < capacity) !model;
          (if expected_hit then
             P.Cache.hits cache = hits0 + 1 && P.Cache.misses cache = misses0
           else
             P.Cache.misses cache = misses0 + 1 && P.Cache.hits cache = hits0)
          && P.Cache.entries cache = List.length !model)
        accesses)

(* Invalidation removes exactly the entries whose rewritings read the
   updated predicate: independent peers, one entry each. *)
(* Cache keys keep constants of different types apart: once
   [c.t!(X, 1)] is cached, [c.t!(X, '1')] must get its own answers. *)
let test_cache_typed_constants () =
  let catalog = P.Catalog.create () in
  let c = P.Peer.create ~name:"c" ~schema:[ ("t", [ "k"; "z" ]) ] in
  P.Catalog.add_peer catalog c;
  let stored = P.Catalog.store_identity catalog c ~rel:"t" in
  insert stored [| vs "k1"; Relalg.Value.Int 1 |];
  insert stored [| vs "k2"; vs "1" |];
  let cache = P.Cache.create catalog () in
  List.iter
    (fun (label, z) ->
      let query =
        q (atom "ans" [ v "X" ]) [ atom (P.Peer.stored_pred c "t") [ v "X"; z ] ]
      in
      Alcotest.(check (list (list string)))
        label
        (P.Answer.answers_list (P.Answer.answer catalog query))
        (P.Answer.answers_list (P.Cache.answer cache query)))
    [ ("int constant", Term.int 1); ("string constant", Term.str "1") ]

let test_cache_invalidate_exact () =
  let catalog = P.Catalog.create () in
  let peers =
    List.init 4 (fun i ->
        let p =
          P.Peer.create
            ~name:(Printf.sprintf "c%d" i)
            ~schema:[ ("course", [ "code"; "title" ]) ]
        in
        P.Catalog.add_peer catalog p;
        let stored = P.Catalog.store_identity catalog p ~rel:"course" in
        insert stored
          [| vs (Printf.sprintf "c%d" i); vs "title" |];
        p)
  in
  let query_of p =
    q (atom "ans" [ v "X"; v "Y" ]) [ P.Peer.atom p "course" [ v "X"; v "Y" ] ]
  in
  let cache = P.Cache.create catalog () in
  List.iter (fun p -> ignore (P.Cache.answer cache (query_of p))) peers;
  check_i "one entry per peer" 4 (P.Cache.entries cache);
  let target = P.Peer.stored_pred (List.nth peers 2) "course" in
  check_i "exactly one dropped" 1
    (P.Cache.invalidate cache (P.Updategram.make ~rel:target ()));
  check_i "three remain" 3 (P.Cache.entries cache);
  (* The survivors are precisely the other peers' entries: they hit. *)
  let hits0 = P.Cache.hits cache in
  List.iteri
    (fun i p -> if i <> 2 then ignore (P.Cache.answer cache (query_of p)))
    peers;
  check_i "others still cached" (hits0 + 3) (P.Cache.hits cache)

(* The invalidation probe keeps an entry when no rewriting atom over the
   touched relation unifies with any changed tuple, and drops the rest;
   an empty updategram is a wildcard that drops every reader. *)
let test_cache_delta_probe () =
  let catalog, uw, mit = two_peer_catalog `Equality in
  let stored = P.Peer.stored_pred mit "subject" in
  let pinned =
    q (atom "ans" [ v "Y" ])
      [ P.Peer.atom uw "course" [ Term.Const (vs "6.033"); v "Y" ] ]
  in
  let broad =
    q (atom "ans" [ v "X"; v "Y" ]) [ P.Peer.atom uw "course" [ v "X"; v "Y" ] ]
  in
  let kept () =
    Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) "pdms.delta.cache_kept"
  in
  let cache = P.Cache.create catalog () in
  let fill () =
    ignore (P.Cache.answer cache pinned);
    ignore (P.Cache.answer cache broad);
    check_i "two entries cached" 2 (P.Cache.entries cache)
  in
  fill ();
  let k0 = kept () in
  let u =
    P.Updategram.make ~rel:stored ~inserts:[ [| vs "6.001"; vs "sicp" |] ] ()
  in
  check_i "only the unifying reader drops" 1 (P.Cache.invalidate cache u);
  check_i "pinned entry survives" 1 (P.Cache.entries cache);
  check_b "survivor counted in pdms.delta.cache_kept" true (kept () > k0);
  check_i "a tuple matching the constant takes the survivor" 1
    (P.Cache.invalidate cache
       (P.Updategram.make ~rel:stored
          ~inserts:[ [| vs "6.033"; vs "recitation" |] ]
          ()));
  check_i "cache drained" 0 (P.Cache.entries cache);
  (* The wildcard drops both readers at once. *)
  fill ();
  check_i "wildcard drops all readers" 2
    (P.Cache.invalidate cache (P.Updategram.make ~rel:stored ()))

(* When every mapping is an inclusion with single-atom sides, the PDMS
   semantics coincides with a datalog program; the reformulation answers
   must match naive bottom-up evaluation exactly. *)
let test_datalog_reference_agreement () =
  let prng = Util.Prng.create 123 in
  let n = 5 in
  let catalog = P.Catalog.create () in
  let peers =
    Array.init n (fun i ->
        let p =
          P.Peer.create ~name:(Printf.sprintf "d%d" i)
            ~schema:[ ("course", [ "code"; "title" ]) ]
        in
        P.Catalog.add_peer catalog p;
        let stored = P.Catalog.store_identity catalog p ~rel:"course" in
        for k = 1 to 3 do
          insert stored
            [| vs (Printf.sprintf "c%d_%d" i k);
               vs (Printf.sprintf "t%d" (Util.Prng.int prng 4)) |]
        done;
        p)
  in
  (* Random acyclic inclusions: data flows from higher to lower ids. *)
  let rules = ref [] in
  for i = 1 to n - 1 do
    let target = Util.Prng.int prng i in
    let args = [ v "X"; v "Y" ] in
    let lhs = q (atom "m" args) [ P.Peer.atom peers.(i) "course" args ] in
    let rhs = q (atom "m" args) [ P.Peer.atom peers.(target) "course" args ] in
    ignore (P.Catalog.add_mapping catalog (P.Peer_mapping.inclusion ~lhs ~rhs));
    (* The equivalent datalog rule: target.course :- source.course. *)
    rules :=
      q (P.Peer.atom peers.(target) "course" args)
        [ P.Peer.atom peers.(i) "course" args ]
      :: !rules
  done;
  (* Plus: each peer relation holds its own stored data. *)
  Array.iter
    (fun p ->
      rules :=
        q (P.Peer.atom p "course" [ v "X"; v "Y" ])
          [ P.Peer.stored_atom p "course" [ v "X"; v "Y" ] ]
        :: !rules)
    peers;
  let query =
    q (atom "ans" [ v "X"; v "Y" ]) [ P.Peer.atom peers.(0) "course" [ v "X"; v "Y" ] ]
  in
  let via_pdms = P.Answer.answers_list (P.Answer.answer catalog query) in
  let reference =
    Cq.Datalog.query (P.Catalog.global_db catalog) !rules query
    |> Relalg.Relation.tuples
    |> List.map (fun row -> Array.to_list (Array.map Relalg.Value.to_string row))
    |> List.sort compare
  in
  check_b "pdms = datalog reference" true (via_pdms = reference)

(* ------------------------------------------------------------------ *)
(* PDMS file format *)

let pdms_text = {file|
# two universities, one equality mapping
peer uw
relation course(code, title)

peer mit
relation subject(id, name)
store subject
row subject: 6.033 | systems
row subject: 6.830 | databases

mapping equality
lhs m(C, T) :- mit.subject(C, T)
rhs m(C, T) :- uw.course(C, T)
|file}

let test_pdms_file_parse_and_answer () =
  let catalog = P.Pdms_file.parse_exn pdms_text in
  check_i "two peers" 2 (List.length (P.Catalog.peers catalog));
  check_i "one mapping" 1 (P.Catalog.mapping_count catalog);
  let query = Cq.Parser.parse_query_exn "ans(C, T) :- uw.course(C, T)" in
  let result = P.Answer.answer catalog query in
  check_i "answers flow" 2 (Relalg.Relation.cardinality result.P.Answer.answers)

let test_pdms_file_roundtrip () =
  let catalog = P.Pdms_file.parse_exn pdms_text in
  let rendered = P.Pdms_file.render catalog in
  let catalog' = P.Pdms_file.parse_exn rendered in
  check_i "peers survive" 2 (List.length (P.Catalog.peers catalog'));
  check_i "mappings survive" 1 (P.Catalog.mapping_count catalog');
  let query = Cq.Parser.parse_query_exn "ans(C, T) :- uw.course(C, T)" in
  check_b "same answers" true
    (P.Answer.answers_list (P.Answer.answer catalog query)
    = P.Answer.answers_list (P.Answer.answer catalog' query))

let prop_pdms_file_roundtrip =
  QCheck.Test.make ~name:"pdms_file render/parse preserves answers" ~count:40
    (QCheck.make QCheck.Gen.(int_bound 10_000) ~print:string_of_int)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let topology = P.Topology.generate P.Topology.Chain ~n:4 in
      let g = Workload.Peers_gen.generate prng ~topology ~tuples_per_peer:2 () in
      let catalog = g.Workload.Peers_gen.catalog in
      let catalog' = P.Pdms_file.parse_exn (P.Pdms_file.render catalog) in
      let query = Workload.Peers_gen.course_query g ~at:0 in
      P.Answer.answers_list (P.Answer.answer catalog query)
      = P.Answer.answers_list (P.Answer.answer catalog' query))

(* Field-level inverse: parse_value (render_value v) = v for every
   value the format can express (everything but Null, which has no row
   syntax; floats round-trip since render keeps a decimal point). *)
let gen_roundtrippable_value =
  QCheck.Gen.(
    let tricky_string =
      oneof
        [ (* numeric- and boolean-looking strings must come back Str *)
          oneofl [ "42"; "-7"; "6.830"; "1e3"; "true"; "false"; "0x1f" ];
          map string_of_int int;
          (* pipes, whitespace, quote-wrapping *)
          oneofl
            [ "a | b"; " padded "; "\ttab"; "trailing "; "'quoted'"; "''";
              "mid'quote"; "'"; "null" ];
          string_size ~gen:(char_range ' ' '~') (int_bound 15) ]
    in
    oneof
      [ map (fun b -> Relalg.Value.Bool b) bool;
        map (fun i -> Relalg.Value.Int i) int;
        map (fun f -> Relalg.Value.Float f) (float_bound_inclusive 1e9);
        map (fun i -> Relalg.Value.Float (float_of_int i)) (int_bound 1000);
        map (fun s -> Relalg.Value.Str s) tricky_string ])

let prop_pdms_value_roundtrip =
  QCheck.Test.make ~name:"pdms_file value render/parse inverse" ~count:1000
    (QCheck.make gen_roundtrippable_value
       ~print:(fun v -> P.Pdms_file.render_value v))
    (fun v ->
      Relalg.Value.equal (P.Pdms_file.parse_value (P.Pdms_file.render_value v)) v)

(* Catalog-level: rows whose values used to be mangled (numeric-looking
   course codes, pipes, padding) must survive render -> parse. *)
let test_pdms_file_tricky_rows () =
  let catalog = P.Catalog.create () in
  let uw = P.Peer.create ~name:"uw" ~schema:[ ("course", [ "code"; "title" ]) ] in
  P.Catalog.add_peer catalog uw;
  let stored = P.Catalog.store_identity catalog uw ~rel:"course" in
  let rows =
    [ [| vs "6.830"; vs "databases" |];
      [| vs "42"; vs "meaning | of life" |];
      [| vs " padded "; vs "true" |];
      [| vs "'already quoted'"; Relalg.Value.Float 2.0 |];
      [| Relalg.Value.Int 7; Relalg.Value.Bool false |] ]
  in
  List.iter (insert stored) rows;
  let rendered = P.Pdms_file.render catalog in
  let catalog' = P.Pdms_file.parse_exn rendered in
  let stored' =
    Relalg.Database.find (P.Catalog.global_db catalog') "uw.course!"
  in
  check_b "tuples survive in order" true
    (Relalg.Relation.tuples stored' = rows);
  check_b "schema survives" true
    (Relalg.Schema.attrs (Relalg.Relation.schema stored')
    = Relalg.Schema.attrs (Relalg.Relation.schema stored));
  (* Render is a fixpoint of render -> parse -> render. *)
  check_b "text fixpoint" true (P.Pdms_file.render catalog' = rendered)

(* ------------------------------------------------------------------ *)
(* Durability: snapshot + WAL recovery (Persist). *)

let temp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "revere-persist-%d-%d" (Unix.getpid ()) !n)
    in
    Unix.mkdir dir 0o755;
    dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Copy a data directory, truncating the WAL to [wal_bytes] — the
   injected crash: everything the OS had by that point survives,
   nothing after does. *)
let copy_dir_with_crash src wal_bytes =
  let dst = temp_dir () in
  Array.iter
    (fun name ->
      let s = read_file (Filename.concat src name) in
      let s =
        if name = "wal.log" && String.length s > wal_bytes then
          String.sub s 0 wal_bytes
        else s
      in
      write_file (Filename.concat dst name) s)
    (Sys.readdir src);
  dst

(* A deterministic full-state transcript: every stored tuple in order,
   a ranked keyword search, and a reformulated answer.  Recovery is
   correct exactly when this string is byte-identical. *)
let persist_transcript ?(exec = P.Exec.default) t =
  let catalog = P.Persist.catalog t and db = P.Persist.db t in
  let b = Buffer.create 2048 in
  List.iter
    (fun name ->
      let rel = Relalg.Database.find db name in
      Buffer.add_string b (name ^ ":\n");
      List.iter
        (fun row ->
          Buffer.add_string b
            (String.concat " | "
               (Array.to_list (Array.map P.Pdms_file.render_value row)));
          Buffer.add_char b '\n')
        (Relalg.Relation.tuples rel))
    (List.sort compare (Relalg.Database.names db));
  List.iter
    (fun (h : P.Keyword.hit) ->
      Buffer.add_string b
        (Printf.sprintf "%.6f %s/%s %s\n" h.P.Keyword.score h.P.Keyword.peer
           h.P.Keyword.stored_rel
           (String.concat "|"
              (Array.to_list (Array.map Relalg.Value.to_string h.P.Keyword.tuple)))))
    (P.Keyword.search ~exec catalog "introduction seminar advanced");
  let stanford = P.Catalog.peer catalog "stanford" in
  List.iter
    (fun row -> Buffer.add_string b (String.concat "," row ^ "\n"))
    (P.Answer.answers_list
       (P.Answer.answer ~exec catalog (Workload.University.course_query stanford)));
  Buffer.contents b

let six_university_persist seed =
  let prng = Util.Prng.create seed in
  let d = Workload.University.build_delearning prng ~courses_per_peer:2 in
  let dir = temp_dir () in
  P.Persist.init ~dir d.Workload.University.catalog;
  (dir, P.Persist.open_dir_exn dir, prng)

(* Random effective updategram against a random stored relation. *)
let random_gram prng db gram_no =
  let names = Array.of_list (Relalg.Database.names db) in
  let rel_name = Util.Prng.pick_arr prng names in
  let rel = Relalg.Database.find db rel_name in
  let arity = Relalg.Schema.arity (Relalg.Relation.schema rel) in
  let fresh i =
    Array.init arity (fun j ->
        if j = arity - 1 && Util.Prng.bool prng then
          Relalg.Value.Int (Util.Prng.int prng 500)
        else vs (Printf.sprintf "seminar g%d-%d-%d" gram_no i j))
  in
  let inserts = List.init (Util.Prng.int prng 3) fresh in
  let deletes =
    let existing = Relalg.Relation.tuples rel in
    List.filteri (fun i _ -> i < 2 && Util.Prng.bool prng) existing
    @ (if Util.Prng.bernoulli prng 0.3 then [ fresh 99 ] else [])
  in
  P.Updategram.make ~rel:rel_name ~inserts ~deletes ()

let test_persist_init_apply_reopen () =
  let dir, t, prng = six_university_persist 11 in
  for g = 1 to 5 do
    P.Persist.apply ~sync:(g mod 2 = 0) t (random_gram prng (P.Persist.db t) g)
  done;
  ignore (P.Persist.snapshot t);
  P.Persist.apply ~sync:true t (random_gram prng (P.Persist.db t) 6);
  let live = persist_transcript t in
  P.Persist.close t;
  let t' = P.Persist.open_dir_exn dir in
  check_b "reopen reproduces the live state byte-for-byte" true
    (persist_transcript t' = live);
  check_b "appends continue past recovery" true
    (P.Persist.wal_seq t' >= 1);
  P.Persist.close t';
  check_b "fsck passes" true (P.Persist.fsck_ok (P.Persist.fsck dir))

(* Parallel answering freezes the live relations in place: answers
   taken at [jobs] 2, then after each update at [jobs] 1 and 2, must all
   equal the reference semantics. *)
let test_parallel_answers_follow_updates () =
  let _, t, _ = six_university_persist 17 in
  let catalog = P.Persist.catalog t in
  let db = P.Persist.db t in
  let query =
    Workload.University.course_query (P.Catalog.peer catalog "stanford")
  in
  let check label jobs =
    let expected = P.Answer.answers_list (Reference.answer catalog query) in
    Alcotest.(check (list (list string)))
      (Printf.sprintf "%s, jobs=%d" label jobs)
      expected
      (P.Answer.answers_list
         (P.Answer.answer ~exec:(P.Exec.make ~jobs ()) catalog query));
    expected
  in
  let initial = check "before updates" 2 in
  let reads =
    (Reference.answer catalog query).P.Answer.outcome.P.Reformulate.rewritings
    |> List.concat_map Query.body_preds
    |> List.sort_uniq String.compare
  in
  List.iteri
    (fun i rel_name ->
      let rel = Relalg.Database.find db rel_name in
      let old = List.hd (Relalg.Relation.tuples rel) in
      let renamed =
        Array.map
          (function
            | Relalg.Value.Str s -> vs (Printf.sprintf "%s (%d)" s i)
            | value -> value)
          old
      in
      let u =
        P.Updategram.make ~rel:rel_name ~inserts:[ renamed ] ~deletes:[ old ] ()
      in
      if i mod 2 = 0 then P.Persist.apply t u else P.Updategram.apply db u;
      let label = Printf.sprintf "after update %d" i in
      ignore (check label 1);
      ignore (check label 2))
    reads;
  check_b "updates are visible" true (check "after all updates" 2 <> initial);
  P.Persist.close t

(* The WAL append is traced inside the update's own span tree. *)
let test_persist_apply_traces_wal_append () =
  let _, t, _ = six_university_persist 13 in
  let sink = Obs.Sink.memory () in
  let exec = P.Exec.make ~trace:(Obs.Trace.create sink) () in
  let db = P.Persist.db t in
  let rel = List.hd (List.sort String.compare (Relalg.Database.names db)) in
  let arity =
    Relalg.Schema.arity (Relalg.Relation.schema (Relalg.Database.find db rel))
  in
  let row = Array.init arity (fun j -> vs (Printf.sprintf "traced %d" j)) in
  P.Persist.apply ~exec ~sync:true t
    (P.Updategram.make ~rel ~inserts:[ row ] ());
  P.Persist.close t;
  match Obs.Sink.spans sink with
  | [ root ] ->
      Alcotest.(check (list string))
        "append nested in the update" [ "delta.apply"; "wal.append" ]
        (Obs.Span.names root)
  | spans -> Alcotest.failf "expected one root span, got %d" (List.length spans)

let test_persist_fsck_detects_damage () =
  let dir, t, prng = six_university_persist 12 in
  P.Persist.apply ~sync:true t (random_gram prng (P.Persist.db t) 1);
  P.Persist.close t;
  check_b "intact dir is ok" true (P.Persist.fsck_ok (P.Persist.fsck dir));
  (* A WAL record against a relation the snapshot does not know cannot
     replay: fsck must fail rather than let recovery throw later. *)
  (match Storage.Wal.open_dir ~dir with
  | Ok (w, _) ->
      ignore
        (Storage.Wal.append w ~rel:"nowhere.gone!"
           (Relalg.Relation.Delta.of_rows [ [| vs "x" |] ]));
      Storage.Wal.close w
  | Error m -> Alcotest.fail m);
  let r = P.Persist.fsck dir in
  check_b "unknown relation caught" false (P.Persist.fsck_ok r);
  (* Losing every snapshot is unrecoverable and must be reported. *)
  let dir2, t2, _ = six_university_persist 13 in
  P.Persist.close t2;
  Array.iter
    (fun n ->
      if Filename.check_suffix n ".snap" then
        Sys.remove (Filename.concat dir2 n))
    (Sys.readdir dir2);
  check_b "no snapshot caught" false (P.Persist.fsck_ok (P.Persist.fsck dir2))

(* The crash-consistency sweep: kill the process at every byte boundary
   of the WAL's tail record; recovery must land exactly on the state
   the surviving prefix described, and fsck must pass. *)
let test_persist_kill_point_sweep () =
  let dir, t, prng = six_university_persist 21 in
  (* Three effective grams; remember (wal size, transcript) after each. *)
  let states = ref [ (P.Persist.wal_size t, persist_transcript t) ] in
  for g = 1 to 3 do
    let before = P.Persist.wal_seq t in
    let rec effective n =
      P.Persist.apply ~sync:true t (random_gram prng (P.Persist.db t) (10 * g));
      if P.Persist.wal_seq t = before && n < 20 then effective (n + 1)
    in
    effective 0;
    states := (P.Persist.wal_size t, persist_transcript t) :: !states
  done;
  let states = List.rev !states in
  P.Persist.close t;
  let sizes = List.map fst states in
  let tail_start = List.nth sizes (List.length sizes - 2) in
  let tail_end = List.nth sizes (List.length sizes - 1) in
  check_b "tail record is non-empty" true (tail_end > tail_start);
  for cut = tail_start to tail_end do
    let crashed = copy_dir_with_crash dir cut in
    let expected =
      (* The last state whose WAL prefix fully survived the crash. *)
      List.fold_left
        (fun acc (size, tr) -> if size <= cut then Some tr else acc)
        None states
      |> Option.get
    in
    check_b
      (Printf.sprintf "fsck at kill point %d" cut)
      true
      (P.Persist.fsck_ok (P.Persist.fsck crashed));
    let t' = P.Persist.open_dir_exn crashed in
    let got = persist_transcript t' in
    P.Persist.close t';
    if got <> expected then
      Alcotest.failf "kill point %d: recovered state diverges" cut
  done

(* Property: random gram streams, snapshots at random points, a crash
   at a random WAL byte offset — under any jobs setting the recovered
   transcript is byte-identical to the surviving prefix's. *)
let prop_persist_crash_recovery =
  QCheck.Test.make ~name:"crash recovery = surviving prefix (random streams)"
    ~count:20
    (QCheck.make QCheck.Gen.(int_bound 100_000) ~print:string_of_int)
    (fun seed ->
      let exec = P.Exec.make ~jobs:(1 + (seed mod 2)) () in
      let dir, t, prng = six_university_persist seed in
      (* (wal seq, wal size, transcript) after init and every apply;
         snapshots interleave at random points. *)
      let states =
        ref [ (0, P.Persist.wal_size t, persist_transcript ~exec t) ]
      in
      let snap_seqs = ref [ 0 ] in
      for g = 1 to 6 do
        P.Persist.apply ~exec ~sync:(Util.Prng.bool prng) t
          (random_gram prng (P.Persist.db t) g);
        states :=
          (P.Persist.wal_seq t, P.Persist.wal_size t, persist_transcript ~exec t)
          :: !states;
        if Util.Prng.bernoulli prng 0.25 then begin
          ignore (P.Persist.snapshot t);
          snap_seqs := P.Persist.wal_seq t :: !snap_seqs
        end
      done;
      let states = List.rev !states in
      let final_size = P.Persist.wal_size t in
      P.Persist.close t;
      let snap_max = List.fold_left max 0 !snap_seqs in
      (* Crash at a random byte offset across the whole log. *)
      let cut = Util.Prng.int prng (final_size + 1) in
      let crashed = copy_dir_with_crash dir cut in
      (* Expected: the newest snapshot always survives (snapshot files
         are not truncated), so recovery lands on the later of (newest
         snapshot, last fully-durable WAL record). *)
      let surviving_seq =
        List.fold_left
          (fun acc (seq, size, _) -> if size <= cut then max acc seq else acc)
          0 states
      in
      let expect_seq = max snap_max surviving_seq in
      let expected =
        match List.find_opt (fun (seq, _, _) -> seq = expect_seq) states with
        | Some (_, _, tr) -> tr
        | None -> Alcotest.failf "no recorded state for seq %d" expect_seq
      in
      let ok_fsck = P.Persist.fsck_ok (P.Persist.fsck crashed) in
      let t' = P.Persist.open_dir_exn ~exec crashed in
      let got = persist_transcript ~exec t' in
      P.Persist.close t';
      ok_fsck && got = expected)

(* ------------------------------------------------------------------ *)
(* Parallel answer path: jobs > 1 must be invisible in the results. *)

let test_parallel_answer_delearning () =
  let prng = Util.Prng.create 2003 in
  let d = Workload.University.build_delearning prng ~courses_per_peer:3 in
  List.iter
    (fun (_, peer) ->
      let seq =
        P.Answer.answers_list
          (P.Answer.answer ~exec:(P.Exec.make ~jobs:1 ()) d.Workload.University.catalog
             (Workload.University.course_query peer))
      and par =
        P.Answer.answers_list
          (P.Answer.answer ~exec:(P.Exec.make ~jobs:4 ()) d.Workload.University.catalog
             (Workload.University.course_query peer))
      in
      check_b "jobs=4 = jobs=1 (delearning)" true (seq = par);
      check_b "non-trivial answers" true (seq <> []))
    d.Workload.University.peers;
  (* The cross-relation join query too. *)
  let _, stanford = List.hd d.Workload.University.peers in
  let jq = Workload.University.course_instructor_query stanford in
  check_b "join query agrees" true
    (P.Answer.answers_list
       (P.Answer.answer ~exec:(P.Exec.make ~jobs:1 ()) d.Workload.University.catalog jq)
    = P.Answer.answers_list
        (P.Answer.answer ~exec:(P.Exec.make ~jobs:4 ()) d.Workload.University.catalog jq))

let prop_parallel_answer_matches_sequential =
  QCheck.Test.make ~name:"answer ~jobs:4 = ~jobs:1 on perturbed topologies"
    ~count:25
    (QCheck.make QCheck.Gen.(int_bound 10_000) ~print:string_of_int)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let kind =
        match seed mod 4 with
        | 0 -> P.Topology.Chain
        | 1 -> P.Topology.Star
        | 2 -> P.Topology.Ring
        | _ -> P.Topology.Mesh 1
      in
      let topology = P.Topology.generate ~prng kind ~n:(4 + (seed mod 3)) in
      let g = Workload.Peers_gen.generate prng ~topology ~tuples_per_peer:3 () in
      let catalog = g.Workload.Peers_gen.catalog in
      let query = Workload.Peers_gen.course_query g ~at:(seed mod 2) in
      P.Answer.answers_list (P.Answer.answer ~exec:(P.Exec.make ~jobs:1 ()) catalog query)
      = P.Answer.answers_list (P.Answer.answer ~exec:(P.Exec.make ~jobs:4 ()) catalog query))

(* The parallel subsumption sweep must be invisible in the rewritings:
   same queries, same order, for every [jobs]. *)
let prop_parallel_reformulation_matches_sequential =
  QCheck.Test.make
    ~name:"reformulate ~jobs:4 emits identical rewritings to ~jobs:1"
    ~count:25
    (QCheck.make QCheck.Gen.(int_bound 10_000) ~print:string_of_int)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let kind =
        match seed mod 4 with
        | 0 -> P.Topology.Chain
        | 1 -> P.Topology.Star
        | 2 -> P.Topology.Ring
        | _ -> P.Topology.Mesh 2
      in
      let topology = P.Topology.generate ~prng kind ~n:(4 + (seed mod 3)) in
      let g = Workload.Peers_gen.generate prng ~topology ~tuples_per_peer:1 () in
      let catalog = g.Workload.Peers_gen.catalog in
      let query = Workload.Peers_gen.course_query g ~at:(seed mod 2) in
      let rewritten jobs =
        List.map Query.to_string
          (P.Reformulate.reformulate ~exec:(P.Exec.make ~jobs ()) catalog
             query)
            .P.Reformulate
            .rewritings
      in
      let seq = rewritten 1 in
      seq <> [] && seq = rewritten 4)

let test_parallel_keyword_ranking () =
  let catalog, _, _ = two_peer_catalog `Equality in
  let seq = P.Keyword.search ~exec:(P.Exec.make ~jobs:1 ()) catalog "databases systems"
  and par = P.Keyword.search ~exec:(P.Exec.make ~jobs:4 ()) catalog "databases systems" in
  check_b "keyword hits found" true (seq <> []);
  check_b "jobs=4 ranking identical" true (seq = par)

let test_pdms_file_errors () =
  check_b "row before store" true
    (Result.is_error
       (P.Pdms_file.parse "peer a\nrelation r(x)\nrow r: 1"));
  check_b "mapping without rhs" true
    (Result.is_error
       (P.Pdms_file.parse "peer a\nrelation r(x)\nstore r\nmapping equality\nlhs m(X) :- a.r(X)"));
  check_b "junk line" true (Result.is_error (P.Pdms_file.parse "frobnicate"))

(* ------------------------------------------------------------------ *)
(* Update propagation to replicas *)

let test_propagate_to_remote_replica () =
  let catalog, uw, mit = two_peer_catalog `Equality in
  ignore uw;
  let prop = P.Propagate.create catalog in
  (* MIT materialises ITS OWN view; UW materialises a replica of the
     same logical data through the mapping. *)
  let q_uw =
    q (atom "cal" [ v "X"; v "Y" ])
      [ P.Peer.atom (P.Catalog.peer catalog "uw") "course" [ v "X"; v "Y" ] ]
  in
  let n = P.Propagate.materialise prop ~name:"uw-cal" ~at:"uw" q_uw in
  check_i "replica starts with mit's data" 2 n;
  (* A new course appears in MIT's stored relation. *)
  let stored_pred = P.Peer.stored_pred mit "subject" in
  let touched =
    P.Propagate.push prop
      (P.Updategram.make ~rel:stored_pred
         ~inserts:[ [| vs "6.001"; vs "sicp" |] ] ())
  in
  check_b "replica touched" true (List.mem ("uw-cal", "uw") touched);
  check_i "replica grew" 3 (P.Propagate.cardinality prop ~name:"uw-cal");
  (* Retraction flows too. *)
  ignore
    (P.Propagate.push prop
       (P.Updategram.make ~rel:stored_pred
          ~deletes:[ [| vs "6.001"; vs "sicp" |] ] ()));
  check_i "replica shrank" 2 (P.Propagate.cardinality prop ~name:"uw-cal")

let test_propagate_multiple_replicas_consistent () =
  let catalog, uw, mit = two_peer_catalog `Equality in
  let prop = P.Propagate.create catalog in
  let q_uw =
    q (atom "a" [ v "X"; v "Y" ]) [ P.Peer.atom uw "course" [ v "X"; v "Y" ] ]
  in
  let q_mit =
    q (atom "b" [ v "X"; v "Y" ]) [ P.Peer.atom mit "subject" [ v "X"; v "Y" ] ]
  in
  ignore (P.Propagate.materialise prop ~name:"at-uw" ~at:"uw" q_uw);
  ignore (P.Propagate.materialise prop ~name:"at-mit" ~at:"mit" q_mit);
  let stored_pred = P.Peer.stored_pred mit "subject" in
  let touched =
    P.Propagate.push prop
      (P.Updategram.make ~rel:stored_pred
         ~inserts:[ [| vs "6.001"; vs "sicp" |] ] ())
  in
  check_i "both replicas touched" 2 (List.length touched);
  check_i "uw view" 3 (P.Propagate.cardinality prop ~name:"at-uw");
  check_i "mit view" 3 (P.Propagate.cardinality prop ~name:"at-mit");
  (* An updategram on an unrelated relation touches nothing. *)
  check_i "unrelated untouched" 0
    (List.length
       (P.Propagate.push prop (P.Updategram.make ~rel:"nosuch!" ~inserts:[] ())))

(* A downed replica host cannot take the delta: the push reports it
   lagging and serving stale answers while the reachable replica
   converges; healing the peer and reconciling replays the backlog and
   catches the replica up with the survivors. *)
let test_propagate_lag_and_reconcile () =
  let catalog, uw, mit = two_peer_catalog `Equality in
  let prop = P.Propagate.create catalog in
  let q_uw =
    q (atom "a" [ v "X"; v "Y" ]) [ P.Peer.atom uw "course" [ v "X"; v "Y" ] ]
  in
  let q_mit =
    q (atom "b" [ v "X"; v "Y" ]) [ P.Peer.atom mit "subject" [ v "X"; v "Y" ] ]
  in
  ignore (P.Propagate.materialise prop ~name:"at-uw" ~at:"uw" q_uw);
  ignore (P.Propagate.materialise prop ~name:"at-mit" ~at:"mit" q_mit);
  let network = P.Distributed.network_of_catalog catalog ~latency_ms:1.0 in
  P.Network.Fault.fail_peer network "uw";
  let stored = P.Peer.stored_pred mit "subject" in
  let push row =
    P.Propagate.push prop ~network
      (P.Updategram.make ~rel:stored ~inserts:[ row ] ())
  in
  let touched = push [| vs "6.001"; vs "sicp" |] in
  check_b "mit's own replica converged" true
    (List.mem ("at-mit", "mit") touched);
  check_b "uw replica not in the converged set" false
    (List.mem ("at-uw", "uw") touched);
  check_i "uw backlog of one" 1 (List.assoc "at-uw" (P.Propagate.lagging prop));
  check_i "mit view grew" 3 (P.Propagate.cardinality prop ~name:"at-mit");
  check_i "uw serves stale answers" 2
    (P.Propagate.cardinality prop ~name:"at-uw");
  (* While down, a second update deepens the backlog. *)
  ignore (push [| vs "6.004"; vs "computation structures" |]);
  check_i "uw backlog of two" 2 (List.assoc "at-uw" (P.Propagate.lagging prop));
  check_b "reconcile fails while still down" false
    (P.Propagate.reconcile prop ~network ~name:"at-uw");
  check_i "backlog kept on failure" 2
    (List.assoc "at-uw" (P.Propagate.lagging prop));
  P.Network.Fault.heal_peer network "uw";
  check_b "reconcile succeeds after heal" true
    (P.Propagate.reconcile prop ~network ~name:"at-uw");
  check_i "no lagging replicas" 0 (List.length (P.Propagate.lagging prop));
  check_i "uw caught up" 4 (P.Propagate.cardinality prop ~name:"at-uw");
  check_i "mit caught up too" 4 (P.Propagate.cardinality prop ~name:"at-mit")

(* Replicas of a plain, a self-join and a constant query over UW's
   schema, all answered from MIT's stored relation through the mapping,
   plus MIT's own. *)
let propagate_queries uw mit =
  let x = v "X" and y = v "Y" and z = v "Z" in
  let course a b = P.Peer.atom uw "course" [ a; b ] in
  [ ("at-uw", "uw", q (atom "a" [ x; y ]) [ course x y ]);
    ("pairs", "uw", q (atom "p" [ x; z ]) [ course x y; course z y ]);
    ("systems", "uw", q (atom "c" [ x ]) [ course x (Term.str "systems") ]);
    ("at-mit", "mit", q (atom "b" [ x; y ]) [ P.Peer.atom mit "subject" [ x; y ] ]) ]

let replica_agrees prop catalog (name, _, query) =
  List.sort compare
    (List.map
       (fun row -> Array.to_list (Array.map Relalg.Value.to_string row))
       (P.Propagate.tuples prop ~name))
  = P.Answer.answers_list (P.Answer.answer catalog query)

let prop_propagate_matches_answer =
  QCheck.Test.make ~name:"propagated replicas = answer path" ~count:40
    (QCheck.make QCheck.Gen.(int_bound 10_000) ~print:string_of_int)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let catalog, uw, mit = two_peer_catalog `Equality in
      let prop = P.Propagate.create catalog in
      let queries = propagate_queries uw mit in
      List.iter
        (fun (name, at, query) -> ignore (P.Propagate.materialise prop ~name ~at query))
        queries;
      let pick l = List.nth l (Util.Prng.int prng (List.length l)) in
      let row () =
        [| vs (pick [ "6.033"; "6.830"; "6.001" ]); vs (pick [ "systems"; "databases" ]) |]
      in
      let rows () = List.init (Util.Prng.int prng 4) (fun _ -> row ()) in
      let rel = P.Peer.stored_pred mit "subject" in
      let rec grams n =
        n = 0
        ||
        (ignore
           (P.Propagate.push prop
              (P.Updategram.make ~rel ~deletes:(rows ()) ~inserts:(rows ()) ()));
         List.for_all (replica_agrees prop catalog) queries && grams (n - 1))
      in
      grams 12)

(* Every dependent replica sits on a downed peer: the push converges
   none of them, yet the shared relation still takes the gram exactly
   once, and reconciling catches every replica up with the answer path. *)
let test_propagate_all_lagging () =
  let catalog, uw, mit = two_peer_catalog `Equality in
  let prop = P.Propagate.create catalog in
  let queries =
    List.filter (fun (_, at, _) -> String.equal at "uw") (propagate_queries uw mit)
  in
  List.iter
    (fun (name, at, query) -> ignore (P.Propagate.materialise prop ~name ~at query))
    queries;
  let network = P.Distributed.network_of_catalog catalog ~latency_ms:1.0 in
  P.Network.Fault.fail_peer network "uw";
  let rel = P.Peer.stored_pred mit "subject" in
  let stored = Relalg.Database.find (P.Catalog.global_db catalog) rel in
  let version = Relalg.Relation.version stored in
  let touched =
    P.Propagate.push prop ~network
      (P.Updategram.make ~rel ~inserts:[ [| vs "6.001"; vs "systems" |] ] ())
  in
  check_i "no replica converged" 0 (List.length touched);
  check_i "one mutation" (version + 1) (Relalg.Relation.version stored);
  check_i "row landed" 3 (Relalg.Relation.cardinality stored);
  check_i "every replica lags" (List.length queries)
    (List.length (P.Propagate.lagging prop));
  check_i "stale replica" 2 (P.Propagate.cardinality prop ~name:"at-uw");
  P.Network.Fault.heal_peer network "uw";
  List.iter
    (fun (name, _, _) ->
      check_b ("reconciled " ^ name) true (P.Propagate.reconcile prop ~network ~name))
    queries;
  check_b "caught up with the answer path" true
    (List.for_all (replica_agrees prop catalog) queries)

(* ------------------------------------------------------------------ *)
(* Observability: tracing must be invisible in the answers, and the
   span tree must reflect the answer path's phases. *)

(* answers_list with the memory sink on vs. trace off must be
   byte-identical, for any jobs — instrumentation cannot perturb
   evaluation. *)
let prop_trace_changes_no_answers =
  QCheck.Test.make ~name:"memory-sink trace changes no answers (any jobs)"
    ~count:25
    (QCheck.make QCheck.Gen.(int_bound 10_000) ~print:string_of_int)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let kind =
        match seed mod 4 with
        | 0 -> P.Topology.Chain
        | 1 -> P.Topology.Star
        | 2 -> P.Topology.Ring
        | _ -> P.Topology.Mesh 1
      in
      let topology = P.Topology.generate ~prng kind ~n:(4 + (seed mod 3)) in
      let g = Workload.Peers_gen.generate prng ~topology ~tuples_per_peer:3 () in
      let catalog = g.Workload.Peers_gen.catalog in
      let query = Workload.Peers_gen.course_query g ~at:(seed mod 2) in
      let jobs = 1 + (seed mod 4) in
      let plain =
        P.Answer.answers_list
          (P.Answer.answer ~exec:(P.Exec.make ~jobs ()) catalog query)
      in
      let sink = Obs.Sink.memory () in
      let traced_exec =
        P.Exec.make ~jobs ~trace:(Obs.Trace.create sink) ()
      in
      let traced =
        P.Answer.answers_list (P.Answer.answer ~exec:traced_exec catalog query)
      in
      plain = traced && List.length (Obs.Sink.spans sink) = 1)

let test_answer_span_tree () =
  let prng = Util.Prng.create 2003 in
  let d = Workload.University.build_delearning prng ~courses_per_peer:3 in
  let _, stanford = List.hd d.Workload.University.peers in
  let sink = Obs.Sink.memory () in
  let exec = P.Exec.make ~trace:(Obs.Trace.create sink) () in
  let result =
    P.Answer.answer ~exec d.Workload.University.catalog
      (Workload.University.course_query stanford)
  in
  check_b "answers found" true (P.Answer.answers_list result <> []);
  match Obs.Sink.spans sink with
  | [ root ] ->
      (* The exact phase sequence of the answer path, in order; batch
         evaluation nests the trie planner and walk under "eval". *)
      Alcotest.(check (list string))
        "phases in order"
        [ "answer"; "reformulate"; "sweep"; "eval"; "plan"; "trie_eval" ]
        (Obs.Span.names root);
      let sweep = Option.get (Obs.Span.find root "sweep") in
      let attr_i name sp =
        match List.assoc_opt name sp.Obs.Span.attrs with
        | Some (Obs.Span.Int i) -> i
        | _ -> Alcotest.failf "missing int attr %s" name
      in
      check_b "sweep saw the rewritings" true (attr_i "input" sweep > 0);
      let eval = Option.get (Obs.Span.find root "eval") in
      check_i "eval answers attr matches result" (attr_i "answers" eval)
        (List.length (P.Answer.answers_list result));
      check_b "reformulate counts rewritings" true
        (attr_i "rewritings" (Option.get (Obs.Span.find root "reformulate"))
         > 0)
  | spans -> Alcotest.failf "expected one root span, got %d" (List.length spans)

let test_cache_stats_accessor () =
  let catalog, uw, mit = two_peer_catalog `Equality in
  let cache = P.Cache.create ~capacity:2 catalog () in
  let query i =
    q (atom "ans" [ v "X"; v "Y"; Term.Const (vs (string_of_int i)) ])
      [ P.Peer.atom uw "course" [ v "X"; v "Y" ] ]
  in
  let s0 = P.Cache.stats cache in
  check_i "fresh hits" 0 s0.P.Cache.hits;
  check_i "fresh misses" 0 s0.P.Cache.misses;
  ignore (P.Cache.answer cache (query 0));
  ignore (P.Cache.answer cache (query 0));
  ignore (P.Cache.answer cache (query 1));
  let s1 = P.Cache.stats cache in
  check_i "one hit" 1 s1.P.Cache.hits;
  check_i "two misses" 2 s1.P.Cache.misses;
  check_i "no evictions yet" 0 s1.P.Cache.evictions;
  (* Overflow the capacity-2 cache: the third distinct query evicts. *)
  ignore (P.Cache.answer cache (query 2));
  check_i "one eviction" 1 (P.Cache.stats cache).P.Cache.evictions;
  (* Invalidation is counted separately from eviction; the rewritings
     read MIT's stored relation (the only one holding data). *)
  let stored = P.Peer.stored_pred mit "subject" in
  ignore (P.Cache.invalidate cache (P.Updategram.make ~rel:stored ()));
  let s2 = P.Cache.stats cache in
  check_b "invalidated counted" true (s2.P.Cache.invalidated > 0);
  check_i "evictions unchanged by invalidate" 1 s2.P.Cache.evictions;
  (* stats agrees with the legacy accessors. *)
  check_i "hits accessor agrees" (P.Cache.hits cache) s2.P.Cache.hits;
  check_i "misses accessor agrees" (P.Cache.misses cache) s2.P.Cache.misses

(* ------------------------------------------------------------------ *)
(* Placement *)

let test_placement_greedy_improves () =
  let net = P.Network.create () in
  P.Network.connect net "a" "b" ~latency_ms:50.0;
  P.Network.connect net "b" "c" ~latency_ms:50.0;
  let workloads =
    [ {
        P.Placement.view_name = "calendar";
        query_freq = [ ("a", 10.0); ("c", 10.0) ];
        update_rate = 0.1;
        result_size = 1024;
      } ]
  in
  let initial = [ ("calendar", [ "b" ]) ] in
  let before = P.Placement.cost net workloads initial in
  let placed = P.Placement.greedy net workloads ~initial ~max_replicas:3 in
  let after = P.Placement.cost net workloads placed in
  check_b "cost not worse" true (after <= before);
  check_b "replicated" true
    (List.length (List.assoc "calendar" placed) >= 2)

(* ------------------------------------------------------------------ *)
(* Reformulation golden: the join and course queries at every peer of
   three generated PDMSs. Each row pins the MD5 of the rewritings (one
   [Query.to_string] per line, in order) and the seven [stats] fields
   [nodes_expanded; emitted; pruned_history; pruned_visited;
   pruned_subsumed; pruned_depth; lav_invocations], recorded before the
   catalog was compiled into predicate indexes. Any change to the search
   — its order, its pruning or its variable naming — fails here. *)

let golden_pdms =
  [ ("mesh2-12", P.Topology.Mesh 2, 12);
    ("mesh1-16", P.Topology.Mesh 1, 16);
    ("chain-10", P.Topology.Chain, 10) ]

let golden_rows =
  [
    ("mesh2-12", "join", 0, "8042903eb1878d9f57c7b5ed1880c281", [ 4684; 144; 3240; 3686; 284; 0; 428 ]);
    ("mesh2-12", "join", 1, "3d5dbcae7d2fc091c3c0dd69cf99f3d0", [ 4597; 144; 3020; 3666; 264; 0; 408 ]);
    ("mesh2-12", "join", 2, "d0b37d3817a080bc848c5d96639485eb", [ 4740; 144; 3780; 3726; 288; 0; 432 ]);
    ("mesh2-12", "join", 3, "ab06ba44d02b65506904d0a9457e486b", [ 4741; 144; 3508; 3734; 288; 0; 432 ]);
    ("mesh2-12", "join", 4, "85e1c63587fdf43b4a64b4f152858ed7", [ 4671; 144; 3384; 3670; 284; 0; 428 ]);
    ("mesh2-12", "join", 5, "a38ce9007f24c7372e524ef4750c2dc7", [ 4614; 144; 3696; 3622; 282; 0; 426 ]);
    ("mesh2-12", "join", 6, "a3627c1651c59c9c0e318212a169112d", [ 4758; 144; 3288; 3746; 288; 0; 432 ]);
    ("mesh2-12", "join", 7, "35a149a8845927108b18c27f0fd5cdfa", [ 4709; 144; 3408; 3714; 286; 0; 430 ]);
    ("mesh2-12", "join", 8, "99f21ccfd4e871f35e7c99e7a4d7214a", [ 4660; 144; 3724; 3676; 284; 0; 428 ]);
    ("mesh2-12", "join", 9, "5c59581f16b12dfb5ae4fe2b1b2cd897", [ 4654; 144; 3408; 3678; 284; 0; 428 ]);
    ("mesh2-12", "join", 10, "e762f837a7f49b5018e8171db3aa7bcb", [ 4724; 144; 3408; 3754; 286; 0; 430 ]);
    ("mesh2-12", "join", 11, "3e4c3d4cae6fb8798d770db1ab752bbd", [ 4755; 144; 3780; 3726; 288; 0; 432 ]);
    ("mesh2-12", "course", 0, "132b89db37ab5b0b1e401e4f7c454fa5", [ 71; 12; 32; 36; 0; 0; 12 ]);
    ("mesh2-12", "course", 1, "8caed35cac94659b54673a21c478c01f", [ 71; 12; 32; 36; 0; 0; 12 ]);
    ("mesh2-12", "course", 2, "7ec3004b9c6e7442cf844eae3150dacb", [ 71; 12; 38; 36; 0; 0; 12 ]);
    ("mesh2-12", "course", 3, "12e9f1a7e1a576c19b5f7085d9617d6d", [ 71; 12; 34; 36; 0; 0; 12 ]);
    ("mesh2-12", "course", 4, "ae88fe6ec5e181a912c3d5e9cf511fda", [ 71; 12; 34; 36; 0; 0; 12 ]);
    ("mesh2-12", "course", 5, "bc01147d6a80e6df1c5691598213ce4f", [ 71; 12; 38; 36; 0; 0; 12 ]);
    ("mesh2-12", "course", 6, "89b2b5141f12704012dcf14ccc788588", [ 71; 12; 30; 36; 0; 0; 12 ]);
    ("mesh2-12", "course", 7, "582d3977b643a9f1ccbb2b49bf1ad057", [ 71; 12; 34; 36; 0; 0; 12 ]);
    ("mesh2-12", "course", 8, "3a1f431262cbbefb648474b47d1ab306", [ 71; 12; 38; 36; 0; 0; 12 ]);
    ("mesh2-12", "course", 9, "0b4c95b2d4d4e482c289afd25d793f99", [ 71; 12; 34; 36; 0; 0; 12 ]);
    ("mesh2-12", "course", 10, "063fd5f19d28fe36853d5e027e09b01b", [ 71; 12; 34; 36; 0; 0; 12 ]);
    ("mesh2-12", "course", 11, "8bdc2c4c832e02d0bb02800262b2590a", [ 71; 12; 38; 36; 0; 0; 12 ]);
    ("mesh1-16", "join", 0, "0fa1e8df24e35b810b7e3ad0158b1641", [ 3950; 256; 8432; 2166; 444; 0; 700 ]);
    ("mesh1-16", "join", 1, "e029bf3a362704b6bda9cd5160896382", [ 4391; 256; 7116; 2320; 492; 0; 748 ]);
    ("mesh1-16", "join", 2, "fa0b8f25b93c202fe53946d69e929970", [ 4457; 256; 8488; 2382; 496; 0; 752 ]);
    ("mesh1-16", "join", 3, "cb8b040ce5a9f57efe48c3f0e4c5e600", [ 4383; 256; 9656; 2294; 486; 0; 742 ]);
    ("mesh1-16", "join", 4, "11036b6562ceaa86019e00189678d273", [ 4118; 256; 7204; 2188; 450; 0; 706 ]);
    ("mesh1-16", "join", 5, "d7b2ac6d200baa0552a6b96c2b720792", [ 4264; 256; 9676; 2234; 500; 0; 756 ]);
    ("mesh1-16", "join", 6, "8d3535a96c30c89fc9108e0918c246ce", [ 4425; 256; 7980; 2392; 504; 0; 760 ]);
    ("mesh1-16", "join", 7, "484af794fe6cfd5d34ce49ac047c0588", [ 4408; 256; 9240; 2354; 498; 0; 754 ]);
    ("mesh1-16", "join", 8, "678be68e824a2454a4106c7fb4aef179", [ 4421; 256; 10048; 2354; 504; 0; 760 ]);
    ("mesh1-16", "join", 9, "bb7762605694658cab40cc90ac54428b", [ 4055; 256; 11660; 2048; 470; 0; 726 ]);
    ("mesh1-16", "join", 10, "8f5f53e23100d93784dad345c6204012", [ 4024; 256; 10984; 2020; 452; 0; 708 ]);
    ("mesh1-16", "join", 11, "f4f93a5d38559d4cfc35eaf443434598", [ 4074; 256; 9192; 2064; 442; 0; 698 ]);
    ("mesh1-16", "join", 12, "71f04881579ceca0e19c3e84bf855b26", [ 4377; 256; 9926; 2256; 496; 0; 752 ]);
    ("mesh1-16", "join", 13, "9ad74bf58d6808958cde14836388b6cc", [ 3955; 256; 9532; 2032; 442; 0; 698 ]);
    ("mesh1-16", "join", 14, "2dc52841be8ed017a8077999293d1cc0", [ 4048; 256; 8136; 2146; 436; 0; 692 ]);
    ("mesh1-16", "join", 15, "be0048dd49f66320180557e07f509175", [ 4136; 256; 11800; 2096; 494; 0; 750 ]);
    ("mesh1-16", "course", 0, "6211c59d2d4da07510f7104b1716218d", [ 67; 16; 74; 20; 0; 0; 16 ]);
    ("mesh1-16", "course", 1, "768dc9e21dd6d5671cf77532ef6ae1fb", [ 67; 16; 56; 20; 0; 0; 16 ]);
    ("mesh1-16", "course", 2, "83ed0147ed92908368d8e0c86fd966a0", [ 67; 16; 64; 20; 0; 0; 16 ]);
    ("mesh1-16", "course", 3, "08265b8cff1b7474e28350831afda696", [ 67; 16; 64; 20; 0; 0; 16 ]);
    ("mesh1-16", "course", 4, "371d93b53bef88c8318692d7f4797b46", [ 67; 16; 58; 20; 0; 0; 16 ]);
    ("mesh1-16", "course", 5, "b1973d287ff5019119a5c087e4d4b65c", [ 67; 16; 80; 20; 0; 0; 16 ]);
    ("mesh1-16", "course", 6, "6319546ea8a304d6fd2cd5e02b10f67c", [ 67; 16; 62; 20; 0; 0; 16 ]);
    ("mesh1-16", "course", 7, "1ffc474c526060046228005d2393a30f", [ 67; 16; 68; 20; 0; 0; 16 ]);
    ("mesh1-16", "course", 8, "f0c319c19e5d270d632949f08b7abd9b", [ 67; 16; 74; 20; 0; 0; 16 ]);
    ("mesh1-16", "course", 9, "97450d844bad92e5eff87e95fa4e072a", [ 67; 16; 88; 20; 0; 0; 16 ]);
    ("mesh1-16", "course", 10, "5b5309b9ba52c75b486376d3879564ac", [ 67; 16; 84; 20; 0; 0; 16 ]);
    ("mesh1-16", "course", 11, "15242ad57a8a28afc303afce5916f4de", [ 67; 16; 68; 20; 0; 0; 16 ]);
    ("mesh1-16", "course", 12, "2f4c604952a4e0ba1c404e6b80eb6ce8", [ 67; 16; 68; 20; 0; 0; 16 ]);
    ("mesh1-16", "course", 13, "a169b975aff8122c9d2b1ff69f82f2fb", [ 67; 16; 78; 20; 0; 0; 16 ]);
    ("mesh1-16", "course", 14, "9d0adca954aee61994053e1778c47765", [ 67; 16; 70; 20; 0; 0; 16 ]);
    ("mesh1-16", "course", 15, "72b25cf3b20b4da55dccaca6ffe5263c", [ 67; 16; 96; 20; 0; 0; 16 ]);
    ("chain-10", "join", 0, "e8ac2620e8927981761e806998552f06", [ 308; 100; 1800; 0; 0; 0; 100 ]);
    ("chain-10", "join", 1, "11350f0424e240b1622791c795045a3f", [ 310; 100; 1480; 0; 0; 0; 100 ]);
    ("chain-10", "join", 2, "bdec2d775e5b3e22e6fc41f2de4cbdfb", [ 312; 100; 1240; 0; 0; 0; 100 ]);
    ("chain-10", "join", 3, "37409e406d01379b7eab409f00e355cf", [ 314; 100; 1080; 0; 0; 0; 100 ]);
    ("chain-10", "join", 4, "d6871cd531eb8be44d2d8e21bcb1df0b", [ 316; 100; 1000; 0; 0; 0; 100 ]);
    ("chain-10", "join", 5, "489b19ec9d21e94ed5cd61fe3c1008a8", [ 316; 100; 1000; 0; 0; 0; 100 ]);
    ("chain-10", "join", 6, "6c26b0a006c510bc284113ea1f062a7d", [ 314; 100; 1080; 0; 0; 0; 100 ]);
    ("chain-10", "join", 7, "fd0b1f877548c58e07c6db016554373b", [ 312; 100; 1240; 0; 0; 0; 100 ]);
    ("chain-10", "join", 8, "e21c3262de95afce75c6a43744a0b8a4", [ 310; 100; 1480; 0; 0; 0; 100 ]);
    ("chain-10", "join", 9, "9c897322cb62f81379f3a7860ac43ca2", [ 308; 100; 1800; 0; 0; 0; 100 ]);
    ("chain-10", "course", 0, "e2c07ebe81daedc3912b3468a38c43f9", [ 29; 10; 90; 0; 0; 0; 10 ]);
    ("chain-10", "course", 1, "8649cec5830529151a91ac591cd3e840", [ 29; 10; 74; 0; 0; 0; 10 ]);
    ("chain-10", "course", 2, "63af83106ad5730907171de5ebfc35cc", [ 29; 10; 62; 0; 0; 0; 10 ]);
    ("chain-10", "course", 3, "06114802404d20c17476b609302c6e65", [ 29; 10; 54; 0; 0; 0; 10 ]);
    ("chain-10", "course", 4, "e2f4b1238398e49bc5ac7b6b07e49248", [ 29; 10; 50; 0; 0; 0; 10 ]);
    ("chain-10", "course", 5, "c4cb594e378b074c96157ce86e76e78d", [ 29; 10; 50; 0; 0; 0; 10 ]);
    ("chain-10", "course", 6, "e661a23bc3caddee7e3ecf824ea2647a", [ 29; 10; 54; 0; 0; 0; 10 ]);
    ("chain-10", "course", 7, "c2fc7959e48915d3fb48557294e41675", [ 29; 10; 62; 0; 0; 0; 10 ]);
    ("chain-10", "course", 8, "3b9ed4a13fe57b220d3762d8feb21242", [ 29; 10; 74; 0; 0; 0; 10 ]);
    ("chain-10", "course", 9, "83377424c54ce0e03e806e7fbe0fdabb", [ 29; 10; 90; 0; 0; 0; 10 ]);
  ]

let stats_fields (s : P.Reformulate.stats) =
  P.Reformulate.
    [ s.nodes_expanded; s.emitted; s.pruned_history; s.pruned_visited;
      s.pruned_subsumed; s.pruned_depth; s.lav_invocations ]

let rewritings_digest (o : P.Reformulate.outcome) =
  String.concat "\n" (List.map Query.to_string o.P.Reformulate.rewritings)
  |> Digest.string |> Digest.to_hex

let test_reformulation_golden () =
  let generated =
    List.map
      (fun (name, kind, n) ->
        let topology =
          P.Topology.generate ~prng:(Util.Prng.create 2003) kind ~n
        in
        ( name,
          Workload.Peers_gen.generate (Util.Prng.create 1) ~topology
            ~tuples_per_peer:2 ~with_join:true () ))
      golden_pdms
  in
  check_i "one row per peer and query" (2 * (12 + 16 + 10))
    (List.length golden_rows);
  List.iter
    (fun (name, kind, at, digest, stats) ->
      let g = List.assoc name generated in
      let query =
        match kind with
        | "join" -> Workload.Peers_gen.join_query g ~at
        | _ -> Workload.Peers_gen.course_query g ~at
      in
      let o = P.Reformulate.reformulate g.Workload.Peers_gen.catalog query in
      let label = Printf.sprintf "%s %s at %d" name kind at in
      Alcotest.(check (list int))
        (label ^ " stats") stats
        (stats_fields o.P.Reformulate.stats);
      Alcotest.(check string) (label ^ " rewritings") digest (rewritings_digest o))
    golden_rows

(* The catalog compiles its indexes lazily: every mutation path must
   drop the compiled form. Reformulate after each mutation and compare
   with a catalog built fresh with the same contents. *)
let test_compiled_catalog_invalidation () =
  let schema = [ ("course", [ "code"; "title" ]) ] in
  let build steps =
    let catalog = P.Catalog.create () in
    let peers =
      List.map
        (fun name ->
          let p = P.Peer.create ~name ~schema in
          P.Catalog.add_peer catalog p;
          p)
        [ "a"; "b"; "c" ]
    in
    let a, b, c =
      match peers with [ a; b; c ] -> (a, b, c) | _ -> assert false
    in
    let equality p p' =
      let side peer =
        q (atom "m" [ v "C"; v "T" ]) [ P.Peer.atom peer "course" [ v "C"; v "T" ] ]
      in
      P.Peer_mapping.equality ~lhs:(side p') ~rhs:(side p)
    in
    ignore (P.Catalog.store_identity catalog b ~rel:"course");
    ignore (P.Catalog.add_mapping catalog (equality a b));
    let mutations =
      [ (fun () -> ignore (P.Catalog.add_mapping catalog (equality a c)));
        (fun () ->
          P.Catalog.add_storage catalog (P.Storage_desc.identity c ~rel:"course"));
        (fun () -> ignore (P.Catalog.store_identity catalog a ~rel:"course")) ]
    in
    (catalog, a, List.filteri (fun i _ -> i < steps) mutations)
  in
  let query a =
    q (atom "ans" [ v "X"; v "Y" ]) [ P.Peer.atom a "course" [ v "X"; v "Y" ] ]
  in
  let render (o : P.Reformulate.outcome) =
    ( List.map Query.to_string o.P.Reformulate.rewritings,
      stats_fields o.P.Reformulate.stats )
  in
  let reformulate catalog a = render (P.Reformulate.reformulate catalog (query a)) in
  let live, a, mutations = build 3 in
  let first = reformulate live a in
  let last =
    List.fold_left
      (fun (prev, steps) mutate ->
        mutate ();
        let steps = steps + 1 in
        let got = reformulate live a in
        let fresh, fresh_a, fresh_mutations = build steps in
        List.iter (fun m -> m ()) fresh_mutations;
        let expected = reformulate fresh fresh_a in
        let label = Printf.sprintf "after mutation %d" steps in
        Alcotest.(check (pair (list string) (list int))) label expected got;
        check_b (label ^ " changes the result") true (got <> prev);
        (got, steps))
      (first, 0) mutations
  in
  check_i "three rewritings at the end" 3 (List.length (fst (fst last)))

(* [pdms.reformulate.lav_views] counts the views handed to MiniCon after
   the predicate filter; the span attribute reports the same number. *)
let test_lav_views_counter () =
  let g =
    Workload.Peers_gen.generate (Util.Prng.create 1)
      ~topology:
        (P.Topology.generate ~prng:(Util.Prng.create 2003) (P.Topology.Mesh 2)
           ~n:6)
      ~tuples_per_peer:1 ~with_join:true ()
  in
  let query = Workload.Peers_gen.join_query g ~at:0 in
  let sink = Obs.Sink.memory () in
  let exec = P.Exec.make ~trace:(Obs.Trace.create sink) () in
  let counted () =
    Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) "pdms.reformulate.lav_views"
  in
  let before = counted () in
  let o = P.Reformulate.reformulate ~exec g.Workload.Peers_gen.catalog query in
  let delta = counted () - before in
  let attr =
    match Obs.Sink.spans sink with
    | [ root ] -> (
        match List.assoc_opt "lav_views" root.Obs.Span.attrs with
        | Some (Obs.Span.Int i) -> i
        | _ -> Alcotest.fail "missing lav_views attr")
    | _ -> Alcotest.fail "expected one root span"
  in
  check_i "counter = span attr" attr delta;
  check_b "some views per LAV step" true
    (delta >= o.P.Reformulate.stats.P.Reformulate.lav_invocations);
  (* Each equality mapping alone contributes two views to the catalog. *)
  let mappings = P.Catalog.mapping_count g.Workload.Peers_gen.catalog in
  check_b "fewer views per LAV step than the catalog has mappings" true
    (delta < o.P.Reformulate.stats.P.Reformulate.lav_invocations * mappings);
  let before = counted () in
  Obs.Metrics.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled true)
    (fun () -> ignore (P.Reformulate.reformulate g.Workload.Peers_gen.catalog query));
  check_i "nothing counted with metrics off" before (counted ())

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "pdms"
    [ ("reformulation",
       [ Alcotest.test_case "two-peer equality" `Quick test_two_peer_equality;
         Alcotest.test_case "inclusion directionality" `Quick
           test_two_peer_inclusion_directionality;
         Alcotest.test_case "definitional mapping" `Quick test_definitional_mapping;
         Alcotest.test_case "typed constants stay apart" `Quick
           test_typed_constants_stay_apart;
         Alcotest.test_case "chain transitive closure" `Quick test_chain_transitive_closure;
         Alcotest.test_case "linear mapping count" `Quick test_chain_mapping_count_linear;
         Alcotest.test_case "reachability" `Quick test_reachability;
         Alcotest.test_case "same mapping twice" `Quick test_same_mapping_twice_in_one_query;
         Alcotest.test_case "local + remote" `Quick test_local_plus_remote_union;
         Alcotest.test_case "join through mappings" `Quick test_join_query_through_mapping;
         Alcotest.test_case "mesh completeness" `Quick test_mesh_completeness;
         Alcotest.test_case "no-pruning agrees" `Quick test_no_pruning_terminates_and_agrees;
         Alcotest.test_case "projection mapping" `Quick test_projection_mapping;
         Alcotest.test_case "storage description selection" `Quick
           test_storage_description_selection;
         Alcotest.test_case "golden rewritings and stats" `Quick
           test_reformulation_golden;
         Alcotest.test_case "compiled catalog follows mutations" `Quick
           test_compiled_catalog_invalidation ]);
      ("topology",
       [ Alcotest.test_case "shapes" `Quick test_topology_shapes ]);
      ("network",
       [ Alcotest.test_case "routing" `Quick test_network_routing;
         Alcotest.test_case "edge dedupe" `Quick test_network_edge_dedupe;
         Alcotest.test_case "faults" `Quick test_network_faults;
         Alcotest.test_case "retry under flakiness" `Quick
           test_network_retry_flaky;
         Alcotest.test_case "of_topology" `Quick test_network_of_topology ]);
      ("updategram",
       [ Alcotest.test_case "compose" `Quick test_updategram_compose ]);
      ("view-maintenance",
       [ Alcotest.test_case "basic" `Quick test_view_maintenance_basic;
         Alcotest.test_case "typed rows stay apart" `Quick
           test_typed_rows_stay_apart;
         Alcotest.test_case "repeated row under a self-join" `Quick
           test_view_maintenance_repeated_row;
         Alcotest.test_case "traced maintenance" `Quick
           test_view_maintenance_trace ]
       @ qc [ prop_view_maintenance_matches_recompute ]);
      ("keyword",
       [ Alcotest.test_case "cross-peer search" `Quick test_keyword_search;
         Alcotest.test_case "skips down peers" `Quick
           test_keyword_skips_down_peer;
         Alcotest.test_case "incremental reindex" `Quick
           test_kwindex_incremental;
         Alcotest.test_case "lru eviction" `Quick test_kwindex_lru_eviction;
         Alcotest.test_case "truncation falls back to rebuild" `Quick
           test_kwindex_truncation_fallback;
         Alcotest.test_case "compaction keeps hits" `Quick
           test_kwindex_compaction;
         Alcotest.test_case "corpus memo per reachable set" `Quick
           test_kwindex_memo_per_reachable_set ]
       @ qc
           [ prop_indexed_matches_brute;
             prop_kwindex_incremental_matches_rebuild;
             prop_kwindex_patched_stats_bit_exact ]);
      ("distributed",
       [ Alcotest.test_case "owner parsing" `Quick test_distributed_owner_parsing;
         Alcotest.test_case "beats central" `Quick test_distributed_beats_central;
         Alcotest.test_case "matches answer" `Quick test_distributed_answers_match_answer;
         Alcotest.test_case "counts executed messages only" `Quick
           test_distributed_messages_count_executed_only;
         Alcotest.test_case "partitioned six universities" `Quick
           test_distributed_partitioned_six_universities ]
       @ qc
           [ prop_distributed_no_faults_matches_answer;
             prop_batch_matches_nobatch ]);
      ("cache",
       [ Alcotest.test_case "hit and invalidate" `Quick test_cache_hit_and_invalidate;
         Alcotest.test_case "freshness" `Quick test_cache_reflects_updates_after_invalidation;
         Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
         Alcotest.test_case "lru touch protects" `Quick
           test_cache_lru_touch_protects;
         Alcotest.test_case "invalidate exact" `Quick
           test_cache_invalidate_exact;
         Alcotest.test_case "typed constants stay apart" `Quick
           test_cache_typed_constants;
         Alcotest.test_case "delta probe keeps unaffected entries" `Quick
           test_cache_delta_probe ]
       @ qc [ prop_cache_lru_reference_model ]);
      ("datalog-reference",
       [ Alcotest.test_case "inclusion chain agreement" `Quick
           test_datalog_reference_agreement ]);
      ("pdms_file",
       [ Alcotest.test_case "parse and answer" `Quick test_pdms_file_parse_and_answer;
         Alcotest.test_case "roundtrip" `Quick test_pdms_file_roundtrip;
         Alcotest.test_case "tricky rows" `Quick test_pdms_file_tricky_rows;
         Alcotest.test_case "errors" `Quick test_pdms_file_errors ]
       @ qc [ prop_pdms_file_roundtrip; prop_pdms_value_roundtrip ]);
      ("persist",
       [ Alcotest.test_case "init, apply, reopen" `Quick
           test_persist_init_apply_reopen;
         Alcotest.test_case "apply traces the wal append" `Quick
           test_persist_apply_traces_wal_append;
         Alcotest.test_case "parallel answers follow updates" `Quick
           test_parallel_answers_follow_updates;
         Alcotest.test_case "fsck detects damage" `Quick
           test_persist_fsck_detects_damage;
         Alcotest.test_case "kill-point sweep" `Quick
           test_persist_kill_point_sweep ]
       @ qc [ prop_persist_crash_recovery ]);
      ("propagate",
       [ Alcotest.test_case "remote replica" `Quick test_propagate_to_remote_replica;
         Alcotest.test_case "multiple replicas" `Quick
           test_propagate_multiple_replicas_consistent;
         Alcotest.test_case "lag and reconcile" `Quick
           test_propagate_lag_and_reconcile;
         Alcotest.test_case "every replica lags" `Quick
           test_propagate_all_lagging ]
       @ qc [ prop_propagate_matches_answer ]);
      ("placement",
       [ Alcotest.test_case "greedy improves" `Quick test_placement_greedy_improves ]);
      ("parallel",
       [ Alcotest.test_case "delearning jobs=4 = jobs=1" `Quick
           test_parallel_answer_delearning;
         Alcotest.test_case "keyword ranking jobs=4 = jobs=1" `Quick
           test_parallel_keyword_ranking ]
       @ qc
           [ prop_parallel_answer_matches_sequential;
             prop_parallel_reformulation_matches_sequential ]);
      ("observability",
       [ Alcotest.test_case "answer span tree" `Quick test_answer_span_tree;
         Alcotest.test_case "lav_views counter and span attr" `Quick
           test_lav_views_counter;
         Alcotest.test_case "cache stats accessor" `Quick
           test_cache_stats_accessor ]
       @ qc [ prop_trace_changes_no_answers ]) ]
