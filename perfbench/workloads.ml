(* The three workloads.  Each turns a seed into inputs the program only
   sees as text (catalog, queries) or as updategrams, then exposes a
   timed set-up and a step function the loop in main.ml runs. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Per-phase bookkeeping. *)

type recorder = {
  lat : (string, float list) Hashtbl.t;  (** op kind -> latencies (ms) *)
  cal : (string, float list) Hashtbl.t;
      (** op kind -> latencies in calibration units (see [calibration_ms]) *)
  mutable ops : int;  (** ops attempted *)
  mutable failed : int;  (** ops that raised or failed a check *)
  mutable check_s : float;  (** wall time spent in reference checks *)
  mutable failures : string list;  (** first few failure messages *)
}

let recorder () =
  { lat = Hashtbl.create 4; cal = Hashtbl.create 4; ops = 0; failed = 0; check_s = 0.0; failures = [] }

let fail r msg =
  r.failed <- r.failed + 1;
  if List.length r.failures < 5 then r.failures <- msg :: r.failures

let latencies r kind =
  match Hashtbl.find_opt r.lat kind with Some l -> l | None -> []

let cal_latencies r kind =
  match Hashtbl.find_opt r.cal kind with Some l -> l | None -> []

(* The most recent {!Calibration.run_ms}, kept current by the loop. *)
let calibration_ms = ref 1.0

(* Run and time one op; an exception counts it as failed. *)
let timed r kind f =
  r.ops <- r.ops + 1;
  let t0 = now () in
  match f () with
  | v ->
      let ms = (now () -. t0) *. 1000. in
      Hashtbl.replace r.lat kind (ms :: latencies r kind);
      Hashtbl.replace r.cal kind ((ms /. !calibration_ms) :: cal_latencies r kind);
      Some v
  | exception e ->
      fail r (Printf.sprintf "%s raised %s" kind (Printexc.to_string e));
      None

(* A check returns [Some message] on failure; its time is kept out of
   the throughput denominator. *)
let check r f =
  let t0 = now () in
  (match f () with
  | None -> ()
  | Some msg -> fail r msg
  | exception e -> fail r ("check raised " ^ Printexc.to_string e));
  r.check_s <- r.check_s +. (now () -. t0)

(* The benchmark's own spans, around calls that have none inside the
   program. *)
let span (exec : Pdms.Exec.t) name f = Obs.Trace.span exec.Pdms.Exec.trace name f

(* ------------------------------------------------------------------ *)

type session = {
  step : Pdms.Exec.t -> recorder -> int -> unit;
      (** run loop step [i]: one or more timed ops, each checked *)
  transcript : unit -> string list;
      (** one digest per step run so far (durable-mix only) *)
  finish : recorder -> (string * float) list;
      (** end-of-run checks; returns extra measurements *)
  close : unit -> unit;  (** drop a set-up that will not be looped *)
}

type prepared = {
  phase : unit -> Pdms.Exec.t -> recorder -> session;
      (** [phase ()] readies fresh copies of any mutable inputs (untimed)
          and returns the timed set-up over them; the set-up may be
          called several times on one phase. *)
}

type t = {
  name : string;
  read_kind : string;  (** the op kind behind [query_cal_*] *)
  setups : int;  (** timed set-ups per run; [setup_s] is their median *)
  prepare : seed:int -> work:string -> prepared;
      (** [work] is a scratch directory the caller creates and removes *)
}

(* ------------------------------------------------------------------ *)
(* univ-join and mesh-join: one CQ posed at each peer in turn. *)

let answer_op exec r catalog queries i expected =
  let query = queries.(i mod Array.length queries) in
  match
    timed r "answer" (fun () ->
        let result = Pdms.Answer.answer ~exec catalog query in
        span exec "render" (fun () -> Pdms.Answer.answers_list result))
  with
  | None -> ()
  | Some rows -> check r (fun () -> Refcheck.first_difference expected rows)

let join_session ~text ~queries ~expected exec r =
  let catalog =
    span exec "pdms_file.parse" (fun () -> Pdms.Pdms_file.parse_exn text)
  in
  let queries = Array.of_list (List.map Cq.Parser.parse_query_exn queries) in
  (* Warm-up: every distinct op once, so lazy indexes and statistics are
     built inside the set-up. *)
  Array.iteri (fun i _ -> answer_op exec r catalog queries i expected) queries;
  {
    step = (fun exec r i -> answer_op exec r catalog queries i expected);
    transcript = (fun () -> []);
    finish = (fun _ -> []);
    close = ignore;
  }

let stored peer rel =
  Relalg.Database.find (Pdms.Peer.stored_db peer) (Pdms.Peer.stored_pred peer rel)

let join_workload ~name ~setups ~generate =
  let prepare ~seed ~work:_ =
    let catalog, queries, parts, reference = generate seed in
    let text = Pdms.Pdms_file.render catalog in
    let expected = Refcheck.union_join parts reference in
    let setup = join_session ~text ~queries ~expected in
    { phase = (fun () -> setup) }
  in
  { name; read_kind = "answer"; setups; prepare }

let univ_join =
  join_workload ~name:"univ-join" ~setups:7 ~generate:(fun seed ->
      let d =
        Workload.University.build_delearning (Util.Prng.create seed)
          ~courses_per_peer:1000
      in
      let peers = List.map snd d.Workload.University.peers in
      let rel schema p = stored p (fst (schema (Pdms.Peer.name p))) in
      ( d.Workload.University.catalog,
        List.map
          (fun p ->
            Cq.Query.to_string (Workload.University.course_instructor_query p))
          peers,
        [ ("course_all", List.map (rel Workload.University.peer_course_schema) peers);
          ("instr_all",
            List.map (rel Workload.University.peer_instructor_schema) peers) ],
        "ans(T, P) :- course_all(T, S), instr_all(P, T)" ))

(* The mapping graph is fixed per workload and only the rows and
   keyword queries follow the seed: reformulation cost is a function of
   the graph's shape, and a seeded graph would make the spread of answer
   latency across seeds mostly a spread of topologies. *)
let topology kind ~n =
  Pdms.Topology.generate ~prng:(Util.Prng.create 2003) kind ~n

let mesh_join =
  join_workload ~name:"mesh-join" ~setups:3 ~generate:(fun seed ->
      let g =
        Workload.Peers_gen.generate (Util.Prng.create seed)
          ~topology:(topology (Pdms.Topology.Mesh 2) ~n:12)
          ~tuples_per_peer:200 ~with_join:true ()
      in
      let peers = Array.to_list g.Workload.Peers_gen.peers in
      ( g.Workload.Peers_gen.catalog,
        List.init (Array.length g.Workload.Peers_gen.peers) (fun at ->
            Cq.Query.to_string (Workload.Peers_gen.join_query g ~at)),
        [ ("course_all", List.map (fun p -> stored p "course") peers);
          ("instr_all", List.map (fun p -> stored p "instr") peers) ],
        "ans(T, P) :- course_all(C, T, I), instr_all(C, P)" ))

(* ------------------------------------------------------------------ *)
(* durable-mix: fsynced updates beside keyword searches on a data dir. *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let copy_dir src dst =
  rm_rf dst;
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
          output_string oc (read_file (Filename.concat src f))))
    (Sys.readdir src)

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

let preloaded_grams = 2_000
let snapshot_at = 1_500
let searches_per_step = 3

(* E19's update stream: gram [i] inserts one row into the stored
   relations round-robin and, once the stream has wrapped, retracts the
   row inserted a full lap earlier. *)
let gram rels i =
  let k = Array.length rels in
  let rel, arity = rels.(i mod k) in
  let row j =
    Array.init arity (fun c -> Relalg.Value.Str (Printf.sprintf "delta%d col%d" j c))
  in
  let deletes = if i >= k then [ row (i - k) ] else [] in
  (Pdms.Updategram.make ~rel ~inserts:[ row i ] ~deletes (), row i, deletes)

(* [Persist.apply ~sync:true], as `revere update` runs it, with the
   fsync split off so it gets a span of its own.  [Persist.tee] passes no
   trace to [Storage.Wal.append], so the WAL append is part of
   [delta.apply]'s self time. *)
let durable_update exec p u =
  Pdms.Persist.apply ~exec p u;
  span exec "wal.fsync" (fun () -> Pdms.Persist.sync p)

(* Recovery has no inner spans; traced set-ups also time its stages by
   calling them on their own, under a separate root so [recover] is not
   counted twice. *)
let recovery_stages exec dir =
  span exec "recover.stages" @@ fun () ->
  (match span exec "snapshot.load" (fun () -> Storage.Snapshot.load_latest ~dir) with
  | Some (_, payload) ->
      ignore (span exec "pdms_file.parse" (fun () -> Pdms.Pdms_file.parse_exn payload))
  | None -> failwith "no snapshot");
  match span exec "wal.read" (fun () -> Storage.Wal.read (Storage.Wal.file ~dir)) with
  | Ok res ->
      Obs.Trace.attr_i exec.Pdms.Exec.trace "wal.records_decoded"
        (List.length res.Storage.Wal.records)
  | Error msg -> failwith msg

let durable_session ~dir ~rels ~queries exec r =
  let p = Pdms.Persist.open_dir_exn ~exec dir in
  if Obs.Trace.enabled exec.Pdms.Exec.trace then recovery_stages exec dir;
  let catalog = Pdms.Persist.catalog p in
  let search exec r k =
    timed r "search" (fun () ->
        Pdms.Keyword.search ~limit:10 ~exec catalog queries.(k))
  in
  Array.iteri (fun k _ -> ignore (search exec r k)) queries;
  let digests = ref [] in
  let step exec r i =
    let u, inserted, deleted = gram rels (preloaded_grams + i) in
    (match timed r "update" (fun () -> durable_update exec p u) with
    | None -> ()
    | Some () ->
        check r (fun () ->
            let rel = Relalg.Database.find (Pdms.Persist.db p) u.Pdms.Updategram.rel in
            if
              Relalg.Relation.mem rel inserted
              && not (List.exists (Relalg.Relation.mem rel) deleted)
            then None
            else Some (Printf.sprintf "update %d did not land" i)));
    let lines =
      List.init searches_per_step (fun j ->
          let k = ((searches_per_step * i) + j) mod Array.length queries in
          match search exec r k with
          | Some hits -> queries.(k) :: List.map Pdms.Keyword.render_hit hits
          | None -> [ queries.(k); "failed" ])
    in
    digests := Refcheck.digest (List.concat lines) :: !digests
  in
  let finish r =
    let live = Pdms.Pdms_file.render catalog in
    Pdms.Persist.close p;
    check r (fun () ->
        let reopened = Pdms.Persist.open_dir_exn dir in
        let recovered = Pdms.Pdms_file.render (Pdms.Persist.catalog reopened) in
        Pdms.Persist.close reopened;
        if String.equal recovered live then None
        else Some "recovered catalog does not render like the live one");
    [ ("disk_amplification",
        float_of_int (dir_bytes dir) /. float_of_int (String.length live)) ]
  in
  {
    step;
    transcript = (fun () -> List.rev !digests);
    finish;
    close = (fun () -> Pdms.Persist.close p);
  }

let durable_mix =
  let prepare ~seed ~work =
    let prng = Util.Prng.create seed in
    let g =
      Workload.Peers_gen.generate prng
        ~topology:(topology (Pdms.Topology.Mesh 1) ~n:16)
        ~tuples_per_peer:200 ~with_join:true ()
    in
    let queries =
      Array.of_list (Workload.Peers_gen.keyword_queries g (Util.Prng.split prng) ~n:96)
    in
    let text = Pdms.Pdms_file.render g.Workload.Peers_gen.catalog in
    (* The pristine data directory: the init snapshot, [preloaded_grams]
       WAL records and a snapshot at [snapshot_at], so every set-up
       decodes the whole log and replays its tail. *)
    let base = Filename.concat work "base" in
    let catalog = Pdms.Pdms_file.parse_exn text in
    Pdms.Persist.init ~dir:base catalog;
    let p = Pdms.Persist.open_dir_exn base in
    let db = Pdms.Persist.db p in
    let rels =
      List.sort String.compare (Relalg.Database.names db)
      |> List.map (fun n ->
             (n, Relalg.Schema.arity (Relalg.Relation.schema (Relalg.Database.find db n))))
      |> Array.of_list
    in
    for i = 0 to preloaded_grams - 1 do
      if i = snapshot_at then ignore (Pdms.Persist.snapshot p);
      let u, _, _ = gram rels i in
      Pdms.Persist.apply p u
    done;
    Pdms.Persist.sync p;
    Pdms.Persist.close p;
    let phases = ref 0 in
    let phase () =
      incr phases;
      let dir = Filename.concat work (Printf.sprintf "live%d" !phases) in
      copy_dir base dir;
      durable_session ~dir ~rels ~queries
    in
    { phase }
  in
  { name = "durable-mix"; read_kind = "search"; setups = 9; prepare }

let all = [ univ_join; mesh_join; durable_mix ]
