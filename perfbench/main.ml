(* REVERE profile benchmark: one closed-loop client, Exec.default
   (jobs = 1), seeded workloads, every output checked against a
   reference.  See README.md for the workloads, the metrics and how to
   run it. *)

open Workloads

let usage =
  "usage: main.exe --workload (univ-join|mesh-join|durable-mix) --seed N \
   --seconds S --trace (0|1) [--repeat N]"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2)
    fmt

type args = {
  workload : Workloads.t;
  seed : int;
  seconds : float;
  trace : bool;
  repeat : int;
}

let parse_args argv =
  let get = Hashtbl.create 8 in
  let rec go = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        Hashtbl.replace get key value;
        go rest
    | [] -> ()
    | x :: _ -> die "unexpected argument %S\n%s" x usage
  in
  go (List.tl (Array.to_list argv));
  let int key ~default =
    match Hashtbl.find_opt get key with
    | None -> (
        match default with Some d -> d | None -> die "missing %s\n%s" key usage)
    | Some v -> (
        match int_of_string_opt v with
        | Some n -> n
        | None -> die "%s expects an integer, got %S" key v)
  in
  let name =
    match Hashtbl.find_opt get "--workload" with
    | Some n -> n
    | None -> die "missing --workload\n%s" usage
  in
  let workload =
    match List.find_opt (fun w -> w.name = name) Workloads.all with
    | Some w -> w
    | None -> die "unknown workload %S\n%s" name usage
  in
  let seconds = int "--seconds" ~default:None in
  if seconds < 1 then die "--seconds must be at least 1";
  let trace =
    match int "--trace" ~default:(Some 0) with
    | 0 -> false
    | 1 -> true
    | n -> die "--trace expects 0 or 1, got %d" n
  in
  let repeat = int "--repeat" ~default:(Some 1) in
  if repeat < 1 then die "--repeat must be at least 1";
  { workload; seed = int "--seed" ~default:None; seconds = float_of_int seconds;
    trace; repeat }

(* ------------------------------------------------------------------ *)
(* Phases *)

let untraced = Pdms.Exec.default
let traced () =
  let sink = Obs.Sink.memory () in
  (Pdms.Exec.make ~trace:(Obs.Trace.create sink) (), sink)

(* Fold and drop the spans collected so far, so a long traced loop keeps
   only the per-name totals in memory. *)
let drain sink fold =
  Selftime.add_all fold (Obs.Sink.spans sink);
  Obs.Sink.clear sink

(* Set-up time is normalised like op latency (see [run_loop]): its wall
   time is divided by the kernel's time around it (the mean of two
   medians of five kernel runs, one just before the set-up and one just
   after) and scaled back to seconds on a host where the kernel takes
   [reference_kernel_ms]. *)
let reference_kernel_ms = 3.0

(* Forget the program's global caches (the Kwindex store, column
   statistics) and collect, so every set-up starts from the same
   state. *)
let reset_program_caches () =
  Pdms.Kwindex.reset ();
  Relalg.Stats.reset_cache ();
  Gc.full_major ()

(* Run the timed set-up [w.setups] times, keeping the last session;
   returns the wall times and the normalised times, both in seconds. *)
let set_up ?(on_each = ignore) w setup exec r =
  let times = ref [] and last = ref None in
  for _ = 1 to w.setups do
    Option.iter (fun s -> s.close ()) !last;
    reset_program_caches ();
    let k0 = Calibration.median_ms 5 in
    let t0 = now () in
    let s = setup exec r in
    let wall = now () -. t0 in
    let k1 = Calibration.median_ms 5 in
    times := (wall, wall *. reference_kernel_ms /. ((k0 +. k1) /. 2.)) :: !times;
    on_each ();
    last := Some s
  done;
  (List.split (List.rev !times), Option.get !last)

(* One session stepped by the loop, with the wall time and allocation of
   its own steps only. *)
type lane = {
  session : session;
  exec : Pdms.Exec.t;
  r : recorder;
  after : unit -> unit;  (** untimed bookkeeping after each step *)
  mutable wall_s : float;
  mutable minor_words : float;
  mutable majors : int;
}

let lane ?(after = ignore) session exec r =
  { session; exec; r; after; wall_s = 0.0; minor_words = 0.0; majors = 0 }

(* The host's speed is re-measured at most this often; op latencies are
   divided by the latest figure. *)
let cal_period_s = 0.05
let cal_samples = ref []

(* Closed loop: step every lane in turn until [seconds] have passed.
   Interleaving lanes step by step keeps a slow spell of the host from
   landing on one lane only.  Returns the number of steps per lane. *)
let run_loop ~seconds lanes =
  let deadline = now () +. seconds in
  let i = ref 0 and last_cal = ref neg_infinity in
  while now () < deadline do
    List.iter
      (fun l ->
        if now () -. !last_cal >= cal_period_s then begin
          let ms = Calibration.run_ms () in
          calibration_ms := ms;
          cal_samples := ms :: !cal_samples;
          last_cal := now ()
        end;
        let g0 = Gc.quick_stat () in
        let t0 = now () in
        l.session.step l.exec l.r !i;
        l.wall_s <- l.wall_s +. (now () -. t0);
        let g1 = Gc.quick_stat () in
        l.minor_words <- l.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
        l.majors <- l.majors + (g1.Gc.major_collections - g0.Gc.major_collections);
        l.after ())
      lanes;
    incr i
  done;
  !i

let ops_per_s l = float_of_int l.r.ops /. (l.wall_s -. l.r.check_s)

(* ------------------------------------------------------------------ *)
(* Reporting *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let json_line ~attempted ~failed metrics =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
       (failed = 0) attempted failed);
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" x.name x.value
           x.unit_))
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter (fun x -> Printf.printf "  %-38s %14.4f %s\n" x.name x.value x.unit_) metrics

let stamp args =
  Printf.printf
    "perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d ocaml=%s \
     jobs=%d flush=sync:true-every-update client=closed-loop-1\n"
    args.workload.name args.seed args.seconds (Bool.to_int args.trace)
    (Domain.recommended_domain_count ()) Sys.ocaml_version untraced.Pdms.Exec.jobs

let report_failures rs =
  List.iter
    (fun r -> List.iter (fun f -> Printf.printf "FAILED: %s\n" f) (List.rev r.failures))
    rs

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6
let heap_peak_mb () = mb (Gc.quick_stat ()).Gc.top_heap_words

(* The heap still reachable, after a full collection. *)
let heap_live_mb () =
  Gc.full_major ();
  mb (Gc.stat ()).Gc.live_words

(* [p] in [\[0, 100\]]. *)
let pct r kind p =
  match latencies r kind with [] -> 0.0 | l -> Util.Stats.percentile p l

(* ------------------------------------------------------------------ *)
(* --trace 0: the end-to-end metrics, measured untraced. *)

let end_to_end args prep =
  let w = args.workload in
  let rs = recorder () and r = recorder () in
  let setup = prep.phase () in
  (* The program's footprint after set-up: the live heap then, less the
     live heap before it, when only the benchmark's own inputs (catalog
     text, reference answers, queries) are alive.  Taken before the
     loop's own bookkeeping (latency lists, transcripts) grows with the
     host's speed. *)
  reset_program_caches ();
  let base = heap_live_mb () in
  let (setup_walls, setup_times), session = set_up w setup untraced rs in
  let live = heap_live_mb () -. base in
  let loop = lane session untraced r in
  let steps = run_loop ~seconds:args.seconds [ loop ] in
  let extra = session.finish r in
  let cal = cal_latencies r w.read_kind and peak = heap_peak_mb () in
  (* Durable-mix: replay the opening steps traced, from a fresh copy of
     the directory, and compare the search-hit transcripts. *)
  let rc = recorder () in
  if session.transcript () <> [] then begin
    let exec, _ = traced () in
    let replay = (prep.phase ()) exec rc in
    for i = 0 to min 20 steps - 1 do
      replay.step exec rc i
    done;
    ignore (replay.finish rc);
    check rc (fun () ->
        if Refcheck.same_prefix (session.transcript ()) (replay.transcript ()) then None
        else Some "search transcript differs between untraced and traced runs")
  end;
  let metrics =
    [ m "setup_s" "s" (Util.Stats.median setup_times);
      m "query_cal_p50" "cal" (Util.Stats.percentile 50. cal);
      m "query_cal_p90" "cal" (Util.Stats.percentile 90. cal);
      m "heap_live_mb" "MB" live ]
  in
  let attempted = rs.ops + r.ops + rc.ops and failed = rs.failed + r.failed + rc.failed in
  print_table "end-to-end (untraced)" metrics;
  Printf.printf "  %-38s %14.4f ms (median of %d)\n" "calibration kernel"
    (Util.Stats.median !cal_samples) (List.length !cal_samples);
  Printf.printf "  %-38s %14.4f s (median of %d, not normalised)\n" "set-up wall time"
    (Util.Stats.median setup_walls) (List.length setup_walls);
  Printf.printf "  set-up times, s: %s\n"
    (String.concat " "
       (List.map2 (Printf.sprintf "%.3f/%.3f") setup_walls setup_times));
  Printf.printf "  %-38s %14.4f 1/s\n" "ops_per_s" (ops_per_s loop);
  Printf.printf "  %-38s %14.4f MB\n" "heap_peak_mb" peak;
  Printf.printf "  %-38s %14d\n" "steps" steps;
  Hashtbl.iter
    (fun kind l ->
      let c = cal_latencies r kind in
      Printf.printf
        "  %-38s %14d samples, p50 %.4f ms, p90 %.4f ms, p50 %.4f cal, p90 %.4f cal\n"
        (kind ^ " ops") (List.length l) (Util.Stats.percentile 50. l)
        (Util.Stats.percentile 90. l) (Util.Stats.percentile 50. c)
        (Util.Stats.percentile 90. c))
    r.lat;
  List.iter (fun (k, v) -> Printf.printf "  %-38s %14.4f\n" k v) extra;
  Printf.printf "  %-38s %14.6f (%d of %d)\n" "failed_ops_frac"
    (float_of_int failed /. float_of_int (max 1 attempted)) failed attempted;
  report_failures [ rs; r; rc ];
  (attempted, failed, metrics)

(* ------------------------------------------------------------------ *)
(* --trace 1: per-layer metrics from a traced session, stepped in turn
   with an untraced one for the overhead and coverage figures. *)

let span_ms =
  [ "answer"; "reformulate"; "sweep"; "eval"; "plan"; "trie_eval"; "render";
    "keyword.search"; "kwindex.build"; "kwindex.probe"; "rank"; "delta.apply";
    "wal.fsync" ]

let counters =
  [ "pdms.reformulate.nodes_expanded"; "pdms.reformulate.emitted";
    "pdms.reformulate.pruned_history"; "pdms.reformulate.pruned_visited";
    "pdms.reformulate.lav_invocations"; "cq.containment.tests";
    "cq.containment.hom_tests"; "cq.plan.nodes"; "cq.plan.bindings_reused";
    "pdms.eval.tuples"; "pdms.eval.dedup_dropped"; "pdms.kwindex.df_merges";
    "pdms.kwindex.candidates"; "pdms.delta.patched_postings"; "pdms.wal.bytes" ]

let ratio a b = if b = 0.0 then 0.0 else a /. b

let per_layer args prep =
  let w = args.workload in
  let exec, sink = traced () in
  let rs = recorder () and ru = recorder () and rt = recorder () in
  let _, su = set_up { w with setups = 1 } (prep.phase ()) untraced rs in
  (* Traced set-ups, folded apart from the loop. *)
  let setup_fold = Selftime.create () and root_attrs = ref [] in
  let on_each () =
    List.iter
      (fun (s : Obs.Span.t) -> root_attrs := s.Obs.Span.attrs @ !root_attrs)
      (Obs.Sink.spans sink);
    drain sink setup_fold
  in
  let _, st = set_up ~on_each w (prep.phase ()) exec rs in
  (* The untraced and the traced session take turns, step by step. *)
  let loop_fold = Selftime.create () in
  let lu = lane su untraced ru and lt = lane ~after:(fun () -> drain sink loop_fold) st exec rt in
  let before = Obs.Metrics.snapshot () in
  ignore (run_loop ~seconds:args.seconds [ lu; lt ]);
  let after = Obs.Metrics.snapshot () in
  let extra = su.finish ru in
  ignore (st.finish rt);
  check rt (fun () ->
      if su.transcript () = [] || Refcheck.same_prefix (su.transcript ()) (st.transcript ())
      then None
      else Some "search transcript differs between untraced and traced runs");
  let ops_t = float_of_int rt.ops and ops_u = float_of_int ru.ops in
  let setups = float_of_int w.setups in
  let per_op name = Selftime.self_ms loop_fold name /. ops_t in
  let count name =
    float_of_int
      (Obs.Metrics.counter_value after name - Obs.Metrics.counter_value before name)
  in
  let per_setup name = Selftime.self_ms setup_fold name /. setups in
  let attr_sum key =
    List.fold_left
      (fun acc (k, v) -> match v with Obs.Span.Int n when k = key -> acc + n | _ -> acc)
      0 !root_attrs
    |> float_of_int
  in
  let decoded = attr_sum "wal.records_decoded" /. setups in
  let replayed = attr_sum "wal.replayed" /. setups in
  let mean_ms r =
    Hashtbl.fold (fun _ l acc -> acc +. List.fold_left ( +. ) 0.0 l) r.lat 0.0
    /. float_of_int r.ops
  in
  let untraced_ms_per_op = mean_ms ru in
  let layers_ms_per_op = Selftime.total_self_ms loop_fold /. ops_t in
  let metrics =
    List.map (fun n -> m (n ^ "_ms") "ms" (per_op n)) span_ms
    @ [ m "pdms_file.parse_ms" "ms" (per_setup "pdms_file.parse");
        m "recover_ms" "ms" (per_setup "recover");
        m "snapshot.load_ms" "ms" (per_setup "snapshot.load");
        m "wal.read_ms" "ms" (per_setup "wal.read");
        m "wal.records_decoded" "count" decoded;
        m "wal.records_replayed" "count" replayed;
        m "wal.replayed_per_decoded" "ratio" (ratio replayed decoded) ]
    (* Both lanes do the same work, and both count. *)
    @ List.map
        (fun n ->
          m n (if n = "pdms.wal.bytes" then "B" else "count") (count n /. (ops_t +. ops_u)))
        counters
    @ [ m "reformulate.emitted_per_expanded" "ratio"
          (ratio (count "pdms.reformulate.emitted")
             (count "pdms.reformulate.nodes_expanded"));
        m "containment.prefilter_reject_rate" "ratio"
          (ratio (count "cq.containment.prefilter_rejects") (count "cq.containment.tests"));
        m "eval.answers_per_tuple" "ratio"
          (ratio
             (count "pdms.eval.tuples" -. count "pdms.eval.dedup_dropped")
             (count "pdms.eval.tuples"));
        m "kwindex.skip_rate" "ratio"
          (ratio (count "pdms.kwindex.skipped_by_bound")
             (count "pdms.kwindex.relations_indexed"));
        m "gc.minor_words_per_op" "count" (lu.minor_words /. ops_u);
        m "gc.major_collections" "count" (float_of_int lu.majors /. ops_u);
        m "host.cal_ms" "ms" (Util.Stats.median !cal_samples);
        m "heap_peak_mb" "MB" (heap_peak_mb ());
        m "query_ms_p50" "ms" (pct ru w.read_kind 50.);
        m "query_ms_p90" "ms" (pct ru w.read_kind 90.);
        m "ops_per_s" "1/s" (ops_per_s lu);
        m "update_ms_p50" "ms" (pct ru "update" 50.);
        m "update_ms_p90" "ms" (pct ru "update" 90.);
        m "update_cal_p50" "cal"
          (match cal_latencies ru "update" with
          | [] -> 0.0
          | l -> Util.Stats.percentile 50. l);
        m "disk_amplification" "ratio"
          (Option.value ~default:0.0 (List.assoc_opt "disk_amplification" extra));
        m "trace.ops_per_s_ratio" "ratio" (ratio (ops_per_s lt) (ops_per_s lu));
        m "layer.coverage" "ratio" (ratio layers_ms_per_op untraced_ms_per_op) ]
  in
  Printf.printf "per-layer self time, ms per op (%d traced ops)\n" rt.ops;
  List.iter
    (fun n ->
      Printf.printf "  %-38s %14.4f  %5.1f%% of untraced latency  (%d spans)\n" n
        (per_op n)
        (100. *. ratio (per_op n) untraced_ms_per_op)
        (Selftime.count loop_fold n))
    (Selftime.names loop_fold);
  Printf.printf "  %-38s %14.4f  traced, %d ops\n" "latency per op" (mean_ms rt) rt.ops;
  Printf.printf "  %-38s %14.4f  untraced, %d ops\n" "latency per op" untraced_ms_per_op
    ru.ops;
  Printf.printf "per-layer self time, traced set-up, ms per set-up\n";
  List.iter
    (fun n -> Printf.printf "  %-38s %14.4f\n" n (per_setup n))
    (Selftime.names setup_fold);
  print_table "per-layer metrics" metrics;
  let attempted = rs.ops + ru.ops + rt.ops and failed = rs.failed + ru.failed + rt.failed in
  Printf.printf "  %-38s %14.6f (%d of %d)\n" "failed_ops_frac"
    (float_of_int failed /. float_of_int (max 1 attempted)) failed attempted;
  report_failures [ rs; ru; rt ];
  (attempted, failed, metrics)

(* ------------------------------------------------------------------ *)
(* --repeat N: run the workload N times as child processes, seeds
   seed .. seed+N-1, and summarise each metric's spread. *)

let metric_re =
  Str.regexp {|"\([A-Za-z0-9_.-]+\)": {"value": \([-+0-9.eE]+\), "unit": "\([^"]*\)"}|}

let parse_metrics line =
  let rec go pos acc =
    match Str.search_forward metric_re line pos with
    | _ ->
        let x =
          m (Str.matched_group 1 line) (Str.matched_group 3 line)
            (float_of_string (Str.matched_group 2 line))
        in
        go (Str.match_end ()) (x :: acc)
    | exception Not_found -> List.rev acc
  in
  go 0 []

let run_child args seed =
  let argv =
    [| Sys.executable_name; "--workload"; args.workload.name; "--seed";
       string_of_int seed; "--seconds"; Printf.sprintf "%.0f" args.seconds;
       "--trace"; (if args.trace then "1" else "0") |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process argv.(0) argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  let _, status = Unix.waitpid [] pid in
  let last =
    match List.rev (String.split_on_char '\n' (String.trim out)) with
    | l :: _ -> l
    | [] -> ""
  in
  (status = Unix.WEXITED 0, parse_metrics last)

let repeat args =
  let runs = List.init args.repeat (fun i -> run_child args (args.seed + i)) in
  let ok = List.for_all fst runs in
  let names =
    match List.find_opt (fun (_, ms) -> ms <> []) runs with Some (_, ms) -> ms | None -> []
  in
  Printf.printf "%d runs of %s, seeds %d..%d, %s\n" args.repeat args.workload.name
    args.seed (args.seed + args.repeat - 1) (if ok then "all correct" else "SOME FAILED");
  Printf.printf "  %-38s %14s %14s %14s %8s\n" "metric" "q1" "median" "q3" "spread";
  List.iter
    (fun x ->
      let values =
        List.filter_map
          (fun (_, ms) ->
            List.find_map (fun y -> if y.name = x.name then Some y.value else None) ms)
          runs
      in
      if List.length values >= 2 then
        let q1, q2, q3 = Stats.quartiles values in
        Printf.printf "  %-38s %14.4f %14.4f %14.4f %7.2f%% %s\n" x.name q1 q2 q3
          (100. *. Stats.spread values) x.unit_)
    names;
  exit (if ok then 0 else 1)

(* ------------------------------------------------------------------ *)

let () =
  let args = parse_args Sys.argv in
  if args.repeat > 1 then repeat args;
  stamp args;
  let work = Filename.concat ".perfbench" (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Workloads.rm_rf work;
  Workloads.mkdir_p work;
  let prep = args.workload.prepare ~seed:args.seed ~work in
  let attempted, failed, metrics =
    Fun.protect
      ~finally:(fun () -> Workloads.rm_rf work)
      (fun () -> if args.trace then per_layer args prep else end_to_end args prep)
  in
  let finite = List.for_all (fun x -> Float.is_finite x.value) metrics in
  if failed > 0 || not finite then begin
    if not finite then prerr_endline "perfbench: a metric is not a finite number";
    exit 1
  end;
  print_endline (json_line ~attempted ~failed metrics)
