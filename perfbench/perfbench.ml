(* The repository benchmark: four workloads over the paths users run
   (offline replay of a recorded trace, one daemon session at a time,
   crash-state exploration), each checked against a reference.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with no instrumentation;
   --trace 1 is the separate traced run that attributes the workload's
   wall time to the modules it calls. The last stdout line is one JSON
   object: {"correct", "attempted", "failed", "metrics"}. The process
   exits 1 on any output mismatch. See README.md in this directory. *)

open Pmtrace
module D = Pmdebugger.Detector
module W = Workloads.Workload
module CE = Faultinject.Crash_explore
module P = Perfbench_stats.Pstats

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Arguments and scratch space                                          *)
(* ------------------------------------------------------------------ *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME replay_btree | replay_memcached | serve_sessions | crash_explore");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1"

let traced = !trace = 1

(* Files live under the working directory (the checkout), one directory
   per process, removed at exit. *)
let scratch = Filename.concat ".perfbench" (string_of_int (Unix.getpid ()))

let () =
  (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir scratch 0o755;
  at_exit (fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat scratch f)) (Sys.readdir scratch);
      Unix.rmdir scratch;
      try Unix.rmdir ".perfbench" with Unix.Unix_error _ -> ())

let scratch_file name = Filename.concat scratch name

(* ------------------------------------------------------------------ *)
(* Result reporting                                                     *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0
let mismatches = ref []

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    if List.length !mismatches < 10 then mismatches := what :: !mismatches
  end

(* A deterministic count that must read the same every time it is
   taken; a drift is a failed operation. *)
let same_count what = function
  | [] -> 0.0
  | x :: rest ->
      List.iter (fun y -> check (Printf.sprintf "%s repeats (%.17g vs %.17g)" what x y) (x = y)) rest;
      x

let metrics : (string * float * string) list ref = ref []
let metric name unit_ value = metrics := (name, value, unit_) :: !metrics

let finish () =
  let ms = List.rev !metrics in
  let ratio = float_of_int !failed /. float_of_int (max 1 !attempted) in
  Printf.printf "%s (seed %d, %s run): %d attempted, %d failed, fail_ratio %g\n" !workload !seed
    (if traced then "traced" else "end-to-end")
    !attempted !failed ratio;
  List.iter (fun (n, v, u) -> Printf.printf "  %-28s %18.6f %s\n" n v u) ms;
  List.iter (fun m -> Printf.printf "  MISMATCH: %s\n" m) (List.rev !mismatches);
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) ms in
  let correct = !failed = 0 && !attempted > 0 && finite in
  let json_metrics =
    String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n
             (if Float.is_finite v then Printf.sprintf "%.17g" v else "0")
             u)
         ms)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    (max 1 !attempted) !failed json_metrics;
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                  *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words allocated by the calling domain. OCaml 5 keeps this
   counter per domain, so only calls made on this domain are measured;
   it is exact, unlike the major-heap counters, which lag until a slice
   publishes them. Arrays too large for the minor heap are not counted. *)
let with_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  go ()

(* Repeat [f] until [seconds] have passed (at least [min_iters] times),
   stopping only after a multiple of [whole] calls. *)
let run_for ?(min_iters = 3) ?(whole = 1) secs f =
  let deadline = now () +. secs in
  let rec go i = if i < min_iters || i mod whole <> 0 || now () < deadline then (f i; go (i + 1)) in
  go 0

(* Host-speed calibration. On a shared 2-vCPU VM the CPU speed shifts by
   about a third for seconds to minutes at a time (the same loop takes
   17 ms, then 25 ms), which swamps the differences a 25-second run must
   resolve. So every CPU-bound sample is taken between two runs of a
   fixed kernel that uses no code of this repository, and is also
   reported at reference host speed: scaled by [reference_kernel_s] over
   the mean of the two kernel times. The kernel mixes random writes over
   a 2 MiB array with list allocation that reaches the major heap, like
   the replay and exploration paths it calibrates. Each kernel starts and
   ends on a collected heap, so it is never billed for a sample's garbage
   nor leaves its own to the next sample (which also keeps the heap, and
   so peak RSS, from drifting between runs). *)
let reference_kernel_s = 0.020

let kernel_array = Array.make 262144 0

let kernel () =
  Gc.full_major ();
  let (), dt =
    timed (fun () ->
        let x = ref 1 in
        for _ = 1 to 8 do
          for i = 0 to (Array.length kernel_array / 2) - 1 do
            x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
            kernel_array.(!x land (Array.length kernel_array - 1)) <- kernel_array.(i) + i
          done;
          let l = ref [] in
          for i = 1 to 100_000 do
            l := i :: !l
          done;
          ignore (Sys.opaque_identity !l)
        done)
  in
  Gc.full_major ();
  dt

type sample = { raw_s : float; ref_s : float  (** at reference host speed *) }

(* Consecutive samples share the kernel between them. *)
let last_kernel = ref None

(* [measure f] times [f ()] from a collected heap, between two kernels. *)
let measure f =
  let before = match !last_kernel with Some k -> k | None -> kernel () in
  Gc.full_major ();
  let r, dt = timed f in
  let after = kernel () in
  last_kernel := Some after;
  (r, { raw_s = dt; ref_s = dt *. 2.0 *. reference_kernel_s /. (before +. after) })

(* [calibrated secs f] measures [f i] repeatedly for [secs] (see
   {!run_for}), handing each result to [check] outside the timing. *)
let calibrated ~check secs f =
  let out = ref [] in
  run_for secs (fun i ->
      let r, s = measure (fun () -> f i) in
      check r;
      out := (r, s) :: !out);
  List.rev !out

(* Set-up runs [setup_reps] times; the median is [setup_s], at reference
   host speed when [calibrate]. Every repetition but the last is torn
   down again, outside the timing. *)
let setup_reps = 3

let timed_setup ~calibrate ~setup ~teardown =
  let rec go i acc =
    let state, dt = if calibrate then let r, s = measure setup in (r, s.ref_s) else timed setup in
    let acc = dt :: acc in
    if i = setup_reps then (state, P.median acc)
    else begin
      teardown state;
      go (i + 1) acc
    end
  in
  go 1 []

(* Per-layer spans, taken in this file around calls into each module:
   every duration, measured like an end-to-end sample and at reference
   host speed, recorded under a name; layer metrics are medians. *)
let spans : (string, float list) Hashtbl.t = Hashtbl.create 32

let record name dt = Hashtbl.replace spans name (dt :: Option.value (Hashtbl.find_opt spans name) ~default:[])

let span name f =
  let r, s = measure f in
  record name s.ref_s;
  r

let span_median name = match Hashtbl.find_opt spans name with Some l -> P.median l | None -> 0.0

(* The end-to-end metric set, in BENCHMARK.json order. Workloads without
   crash images report images_per_s and bugs_per_100_images as 1 (not
   applicable); every metric must be present and non-zero. *)
let report_end_to_end ~setup_s ~events_per_s ~latencies ?raw_latencies ?(images_per_s = 1.0)
    ?(bugs_per_100_images = 1.0) () =
  metric "setup_s" "s" setup_s;
  metric "events_per_s" "events/s" events_per_s;
  metric "session_p50_s" "s" (P.percentile latencies 0.5);
  metric "session_p90_s" "s" (P.percentile latencies 0.9);
  Printf.printf "%s: %d timed session(s)\n" !workload (List.length latencies);
  Option.iter
    (fun raw ->
      Printf.printf "%s: at host speed as measured, session p50 %.6f s, p90 %.6f s\n" !workload
        (P.percentile raw 0.5) (P.percentile raw 0.9))
    raw_latencies;
  metric "images_per_s" "images/s" images_per_s;
  metric "bugs_per_100_images" "count" bugs_per_100_images;
  metric "peak_rss_mb" "MB" (peak_rss_mb ())

(* Every per-layer metric is printed on every workload; layers a
   workload does not exercise read 0. *)
let layer_metrics =
  [
    ("trace_io.parse_s", "s"); ("trace_io.events", "count"); ("engine.dispatch_s", "s");
    ("detector.create_s", "s"); ("detector.create_words", "words"); ("detector.feed_s", "s");
    ("detector.rules_s", "s"); ("detector.finish_s", "s"); ("detector.words_per_event", "words");
    ("detector.findings", "count"); ("space.bookkeeping_s", "s"); ("space.array_hits", "count");
    ("space.fence_migrations", "count"); ("space.interval_merges", "count");
    ("space.reorganizations", "count"); ("space.tree_size_peak", "count");
    ("shard_router.events_per_s", "events/s"); ("shard_router.vs_plain", "ratio"); ("serve.ingest_s", "s");
    ("serve.offline_s", "s"); ("serve.wait_s", "s"); ("serve.backpressure_stalls", "count");
    ("serve.events", "count"); ("faultinject.capture_s", "s"); ("faultinject.exhaustive_s", "s");
    ("faultinject.guided_s", "s"); ("faultinject.images", "count"); ("faultinject.prefixes_replayed", "count");
    ("faultinject.recovery_s", "s"); ("pmem.apply_s", "s"); ("pmem.crash_images_s", "s");
    ("infer.analyze_s", "s"); ("attr.trace_io_s", "s"); ("attr.engine_s", "s"); ("attr.detector_s", "s");
    ("attr.space_s", "s"); ("attr.shard_router_s", "s"); ("attr.serve_s", "s"); ("attr.faultinject_s", "s");
    ("attr.pmem_s", "s"); ("attr.infer_s", "s"); ("unattributed_s", "s"); ("wall_s", "s");
    ("tracing_overhead", "ratio");
  ]

let report_layers values =
  List.iter
    (fun (name, unit_) -> metric name unit_ (Option.value (List.assoc_opt name values) ~default:0.0))
    layer_metrics;
  List.iter
    (fun (name, _) -> if not (List.mem_assoc name layer_metrics) then failwith ("undeclared metric " ^ name))
    values

(* The attribution block: [wall] split over module self times, with the
   remainder reported explicitly. *)
let attribution ~wall ~traced_wall parts =
  let attributed = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 parts in
  parts
  @ [ ("unattributed_s", wall -. attributed); ("wall_s", wall); ("tracing_overhead", traced_wall /. wall) ]

let canon (r : Bug.report) = Bug.render_canonical { r with Bug.bugs = List.sort Bug.compare_canonical r.Bug.bugs }

let counter snap name = float_of_int (Obs.Metrics.counter_value snap name)

let gauge snap name = match Obs.Metrics.find snap name with Some (Obs.Metrics.V_gauge g) -> g | _ -> 0.0

(* ------------------------------------------------------------------ *)
(* replay_btree / replay_memcached: Trace_io.iter_file -> Engine ->     *)
(* Detector, built with the workload's own persistency model.           *)
(* ------------------------------------------------------------------ *)

let streamed_replay ?metrics model path =
  let det = D.create ~model ?metrics () in
  let engine = Engine.create () in
  Engine.attach engine (D.sink det);
  match Trace_io.iter_file path ~f:(Engine.emit engine) with
  | Error msg -> failwith msg
  | Ok st -> (
      match Engine.finish_all engine with
      | [ r ] -> (r, st.Trace_io.events)
      | _ -> failwith "one sink, one report")

let replay_workload (spec : W.spec) n =
  let model = spec.W.model in
  let path = scratch_file "trace.pmt" in
  let (trace : Recorder.trace), setup_s =
    timed_setup ~calibrate:true ~teardown:ignore ~setup:(fun () ->
        let trace = Recorder.record (fun e -> spec.W.run (W.params ~seed:!seed ~n ()) e) in
        Trace_io.save path trace;
        trace)
  in
  let events = Array.length trace in
  (* Reference: the plain detector over the in-memory trace. *)
  let expected = canon (Recorder.replay trace (D.sink (D.create ~model ()))) in
  let check_replay (r, ev) = check "streamed replay equals the in-memory reference" (canon r = expected && ev = events) in
  if not traced then begin
    let samples = calibrated ~check:check_replay !seconds (fun _ -> streamed_replay model path) in
    let latencies = List.map (fun (_, s) -> s.ref_s) samples in
    report_end_to_end ~setup_s
      ~events_per_s:(P.median (List.map (fun dt -> float_of_int events /. dt) latencies))
      ~latencies
      ~raw_latencies:(List.map (fun (_, s) -> s.raw_s) samples)
      ()
  end
  else begin
    let counts = Hashtbl.create 8 in
    let count name v = Hashtbl.replace counts name (v :: Option.value (Hashtbl.find_opt counts name) ~default:[]) in
    let shard = spec.W.name = "b_tree" in
    run_for ~min_iters:2 !seconds (fun _ ->
        check_replay (span "replay.wall" (fun () -> streamed_replay model path));
        let reg = Obs.Metrics.create () in
        check_replay (span "replay.traced" (fun () -> streamed_replay ~metrics:reg model path));
        let snap = Obs.Metrics.snapshot reg in
        count "space.array_hits" (counter snap "space_array_hits_total");
        count "space.fence_migrations" (counter snap "space_fence_migrations_total");
        count "space.interval_merges" (counter snap "space_interval_merges_total");
        count "space.reorganizations" (counter snap "space_reorganizations_total");
        count "space.tree_size_peak" (gauge snap "space_tree_size_peak");
        (* The detector is fed straight from the file, so its events are
           as fresh in cache as in the replay; feeds are reported minus
           the parse they include. *)
        let stream_into name (sink : Sink.t) =
          match span name (fun () -> with_words (fun () -> Trace_io.iter_file path ~f:sink.Sink.on_event)) with
          | Ok st, words ->
              count "trace_io.events" (float_of_int st.Trace_io.events);
              words
          | Error msg, _ -> failwith msg
        in
        let parse_words = stream_into "trace_io.parse" (Sink.noop "noop") in
        let engine = Engine.create () in
        Engine.attach engine (Sink.noop "noop");
        span "engine.dispatch" (fun () -> Array.iter (Engine.emit engine) trace);
        ignore (Engine.finish_all engine);
        let det, words = span "detector.create" (fun () -> with_words (fun () -> D.create ~model ())) in
        count "detector.create_words" words;
        let sink = D.sink det in
        let feed_words = stream_into "detector.parse_feed" sink in
        count "detector.words_per_event" ((feed_words -. parse_words) /. float_of_int events);
        let r = span "detector.finish" sink.Sink.finish in
        check "direct detector feed equals the reference" (canon r = expected);
        count "detector.findings" (float_of_int (List.length r.Bug.bugs));
        let bare = D.sink (D.create ~model ~rules:D.all_rules_off ()) in
        ignore (stream_into "space.parse_feed" bare);
        ignore (bare.Sink.finish ());
        if shard then begin
          let router =
            Shard_router.sink ~shards:2 (fun _ -> D.worker (D.create ~model ~walk_dedup:false ()))
          in
          let r = span "shard_router.replay" (fun () -> Recorder.replay trace router) in
          check "2-shard framed replay equals the reference" (canon r = expected)
        end);
    let m = span_median in
    let counted name = same_count name (Option.value (Hashtbl.find_opt counts name) ~default:[]) in
    let parse_s = m "trace_io.parse" in
    let feed_s = m "detector.parse_feed" -. parse_s and bookkeeping_s = m "space.parse_feed" -. parse_s in
    let rules_s = feed_s -. bookkeeping_s in
    let layers =
      [
        ("trace_io.parse_s", parse_s); ("trace_io.events", counted "trace_io.events");
        ("engine.dispatch_s", m "engine.dispatch"); ("detector.create_s", m "detector.create");
        ("detector.create_words", counted "detector.create_words"); ("detector.feed_s", feed_s);
        ("detector.rules_s", rules_s); ("detector.finish_s", m "detector.finish");
        ("detector.words_per_event", counted "detector.words_per_event");
        ("detector.findings", counted "detector.findings"); ("space.bookkeeping_s", bookkeeping_s);
        ("space.array_hits", counted "space.array_hits");
        ("space.fence_migrations", counted "space.fence_migrations");
        ("space.interval_merges", counted "space.interval_merges");
        ("space.reorganizations", counted "space.reorganizations");
        ("space.tree_size_peak", counted "space.tree_size_peak");
      ]
      @
      if shard then
        let shard_rate = float_of_int events /. m "shard_router.replay" in
        [
          ("shard_router.events_per_s", shard_rate);
          ("shard_router.vs_plain", shard_rate /. (float_of_int events /. feed_s));
        ]
      else []
    in
    report_layers
      (layers
      @ attribution ~wall:(m "replay.wall") ~traced_wall:(m "replay.traced")
          [
            ("attr.trace_io_s", parse_s); ("attr.engine_s", m "engine.dispatch");
            ("attr.detector_s", m "detector.create" +. rules_s +. m "detector.finish");
            ("attr.space_s", bookkeeping_s);
          ])
  end

(* ------------------------------------------------------------------ *)
(* serve_sessions: an in-process daemon, one worker domain, one client  *)
(* in a closed loop, one connection at a time.                          *)
(* ------------------------------------------------------------------ *)

(* Session sizes in memcached operations, log-stratified over
   [100, 6000] (about 300 to 17k events): the seed jitters each size
   within the middle half of its stratum and orders the sessions, so
   every seed sends nearly the same size mix. *)
let session_kinds = 32

let session_sizes rng =
  List.init session_kinds (fun i ->
      let u = (float_of_int i +. 0.25 +. Random.State.float rng 0.5) /. float_of_int session_kinds in
      int_of_float (100.0 *. (60.0 ** u)))

type daemon = { domain : unit Domain.t; socket : string }

let start_daemon ?metrics socket =
  let cfg = { (Serve.Daemon.default_config ~socket) with Serve.Daemon.workers = 1 } in
  let daemon =
    Serve.Daemon.create ?metrics ~make_sink:(fun ~heatmap:_ -> D.sink (D.create ~model:D.Strict ())) cfg
  in
  { domain = Domain.spawn (fun () -> Serve.Daemon.run daemon); socket }

let stop_daemon s =
  (match Serve.Client.stop ~socket:s.socket with Ok () -> () | Error msg -> failwith msg);
  Domain.join s.domain

let serve_workload () =
  let spec = Workloads.Memcached.spec in
  let socket = scratch_file "d.sock" in
  let rng = Random.State.make [| !seed |] in
  let sizes = session_sizes rng in
  let gen () =
    Array.of_list
      (List.mapi
         (fun i n ->
           let trace = Recorder.record (fun e -> spec.W.run (W.params ~seed:((!seed * 1000) + i) ~n ()) e) in
           (trace, Trace_io.to_string trace))
         sizes)
  in
  let (inputs, first_daemon), setup_s =
    timed_setup ~calibrate:false
      ~teardown:(fun (_, d) -> stop_daemon d)
      ~setup:(fun () ->
        let inputs = gen () in
        (inputs, start_daemon socket))
  in
  let expected = Array.map (fun (trace, _) -> canon (Recorder.replay trace (D.sink (D.create ~model:D.Strict ())))) inputs in
  let order = Array.init session_kinds Fun.id in
  let next_kind i =
    if i mod session_kinds = 0 then
      for k = session_kinds - 1 downto 1 do
        let j = Random.State.int rng (k + 1) in
        let t = order.(k) in
        order.(k) <- order.(j);
        order.(j) <- t
      done;
    order.(i mod session_kinds)
  in
  (* One session: connect, stream, wait for the result frame. The
     worker's Detector.create is inside this time. *)
  let session socket i k =
    let frame, dt = timed (fun () -> Serve.Client.replay_string ~socket ~name:(Printf.sprintf "s%d" i) (snd inputs.(k))) in
    (match frame with
    | Ok f ->
        check
          (Printf.sprintf "session %d status %s" i (Serve.Status.name f.Serve.Wire.status))
          (f.Serve.Wire.status = Serve.Status.Ok);
        check (Printf.sprintf "session %d report equals offline replay" i)
          (match f.Serve.Wire.report with Some r -> canon r = expected.(k) | None -> false)
    | Error msg -> check (Printf.sprintf "session %d: %s" i msg) false);
    (k, dt)
  in
  let run_sessions ~min_iters socket secs =
    let out = ref [] in
    run_for ~min_iters ~whole:session_kinds secs (fun i -> out := session socket i (next_kind i) :: !out);
    List.rev !out
  in
  let events_of k = Array.length (fst inputs.(k)) in
  if not traced then begin
    let done_ = run_sessions ~min_iters:100 socket !seconds in
    stop_daemon first_daemon;
    let latencies = List.map snd done_ in
    let total_events = List.fold_left (fun acc (k, _) -> acc + events_of k) 0 done_ in
    report_end_to_end ~setup_s
      ~events_per_s:(float_of_int total_events /. List.fold_left ( +. ) 0.0 latencies)
      ~latencies ()
  end
  else begin
    (* An untraced pass for a third of the time, then the same sessions
       against a daemon with its metrics registry on. *)
    let plain = run_sessions ~min_iters:session_kinds socket (!seconds /. 3.0) in
    stop_daemon first_daemon;
    let reg = Obs.Metrics.create () in
    let d = start_daemon ~metrics:reg socket in
    let traced_sessions = List.mapi (fun i (k, _) -> session socket i k) plain in
    let snap = match Serve.Client.stats ~socket with Ok s -> s | Error msg -> failwith msg in
    stop_daemon d;
    let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l in
    (* Per-kind costs, medians of three, summed over the sessions run. *)
    let per_kind f = Array.init session_kinds (fun k -> P.median (List.init 3 (fun _ -> snd (timed (fun () -> f k))))) in
    let body k = snd inputs.(k) in
    let ingest =
      per_kind (fun k ->
          let s = Serve.Session.create ~id:k ~name:"ingest" ~lenient:false ~now:0.0 in
          let b = Bytes.unsafe_of_string (body k) in
          let len = Bytes.length b in
          let rec feed off =
            if off < len then begin
              let n = min 65536 (len - off) in
              (match Serve.Session.feed s ~now:0.0 b ~off ~len:n with Ok () -> () | Error msg -> failwith msg);
              while Serve.Session.pop_pending s <> None do () done;
              feed (off + n)
            end
          in
          feed 0;
          (match Serve.Session.flush_partial s with Ok () -> () | Error msg -> failwith msg);
          Serve.Session.ensure_end s;
          while Serve.Session.pop_pending s <> None do () done)
    in
    let parse = per_kind (fun k -> match Trace_io.of_string (body k) with Ok _ -> () | Error msg -> failwith msg) in
    let offline = per_kind (fun k -> ignore (Recorder.replay (fst inputs.(k)) (D.sink (D.create ~model:D.Strict ())))) in
    let over a = sum (fun (k, _) -> a.(k)) plain in
    let wall = sum snd plain in
    let ingest_s = over ingest and parse_s = over parse and offline_s = over offline in
    let create = List.init 5 (fun _ -> with_words (fun () -> timed (fun () -> D.create ~model:D.Strict ()))) in
    report_layers
      ([
         ("trace_io.parse_s", parse_s);
         ("trace_io.events", sum (fun (k, _) -> float_of_int (events_of k)) plain);
         ("detector.create_s", P.median (List.map (fun ((_, dt), _) -> dt) create));
         ("detector.create_words", same_count "detector.create_words" (List.map snd create));
         ("serve.ingest_s", ingest_s); ("serve.offline_s", offline_s);
         ("serve.wait_s", wall -. ingest_s -. offline_s);
         ("serve.backpressure_stalls", counter snap "serve_backpressure_stalls_total");
         ("serve.events", counter snap "serve_events_total");
       ]
      @ attribution ~wall ~traced_wall:(sum snd traced_sessions)
          [ ("attr.trace_io_s", parse_s); ("attr.serve_s", ingest_s -. parse_s); ("attr.detector_s", offline_s) ])
  end

(* ------------------------------------------------------------------ *)
(* crash_explore: exhaustive exploration of a short real-pool b_tree    *)
(* run, and guided exploration at a 25% image budget of a long         *)
(* commit-rounds trace with planted ordering bugs.                      *)
(* ------------------------------------------------------------------ *)

(* The b_tree run inserts [btree_ops] seeded keys in ascending order, so
   every seed produces the same store pattern and image count. *)
let btree_ops = 12
let pool_size = 1 lsl 20
let pool_log_capacity = 64 lsl 10
let rounds = 300
let planted_rounds = 6
let planted_max_images = 4
let budget_pct = 25

(* A formatted pool header names a root inside the pool. *)
let btree_recovery img =
  let magic = Pmem.Image.get_i64 img Minipmdk.Pool.off_magic in
  magic = 0L
  || magic = Minipmdk.Pool.magic
     &&
     let root = Pmem.Image.get_int img Minipmdk.Pool.off_root_off in
     root >= 0 && root < pool_size

let backup_addr = 0
let counter_addr = 64

(* The counter must never run ahead of its backup. *)
let rounds_recovery img =
  Int64.compare (Pmem.Image.get_i64 img counter_addr) (Pmem.Image.get_i64 img backup_addr) <= 0

(* One planted round per stratum of [rounds / planted_rounds], away from
   the stratum edges so planted rounds never neighbour each other. *)
let planted rng =
  let stride = rounds / planted_rounds in
  List.init planted_rounds (fun i -> (i * stride) + 3 + Random.State.int rng (stride - 6))

let rounds_program planted e =
  Engine.register_pmem e ~base:0 ~size:4096;
  for r = 1 to rounds do
    let v = Int64.of_int r in
    let commit ~addr =
      Engine.store_i64 e ~addr v;
      Engine.persist e ~addr ~size:8
    in
    if List.mem r planted then (commit ~addr:counter_addr; commit ~addr:backup_addr)
    else (commit ~addr:backup_addr; commit ~addr:counter_addr)
  done

let indexes (o : CE.outcome) = List.map (fun f -> f.CE.index) o.CE.result.CE.failures

let crash_workload () =
  let rng = Random.State.make [| !seed |] in
  let planted = planted rng in
  let keys = List.sort_uniq compare (List.init btree_ops (fun i -> (i * 1_000_000) + Random.State.int rng 1_000_000)) in
  let btree_program e =
    let tree = Workloads.Btree.create (Minipmdk.Pool.create ~log_capacity:pool_log_capacity e ~size:pool_size) in
    List.iter (fun key -> Workloads.Btree.insert tree ~key ~value:(key land 0xFFFF)) keys;
    Engine.program_end e
  in
  let capture () =
    let b = Faultinject.Replay.capture btree_program in
    (b, Faultinject.Replay.capture (rounds_program planted))
  in
  (* Set-up records both programs, writes their traces, and scans the
     rounds trace exhaustively once: its image count sets the budget and
     its failures are the reference set. *)
  let (btree, rounds_steps, ref_rounds), setup_s =
    timed_setup ~calibrate:true ~teardown:ignore ~setup:(fun () ->
        let btree, rounds_steps = capture () in
        Trace_io.save (scratch_file "btree.pmt") (Faultinject.Replay.events_of_steps btree);
        Trace_io.save (scratch_file "rounds.pmt") (Faultinject.Replay.events_of_steps rounds_steps);
        let plan = CE.make_plan ~max_images:planted_max_images rounds_steps in
        (btree, rounds_steps, CE.run ~recovery:rounds_recovery plan CE.exhaustive))
  in
  let btree_plan () = CE.make_plan btree in
  let ref_btree = CE.run ~recovery:btree_recovery (btree_plan ()) CE.exhaustive in
  let ref_set = indexes ref_rounds in
  let budget = ref_rounds.CE.result.CE.images_checked * budget_pct / 100 in
  let rounds_plan () = CE.make_plan ~max_images:planted_max_images ~budget rounds_steps in
  let events = Array.length btree + Array.length rounds_steps in
  (* Both explorations, checked, with the time each took. *)
  let explore ?metrics ?(recovery_wrap = Fun.id) () =
    let ex, ex_s =
      timed (fun () -> CE.run ?metrics ~recovery:(recovery_wrap btree_recovery) (btree_plan ()) CE.exhaustive)
    in
    let gd, gd_s =
      timed (fun () -> CE.run ?metrics ~recovery:(recovery_wrap rounds_recovery) (rounds_plan ()) CE.guided)
    in
    check "exhaustive failure count equals the reference"
      (List.length ex.CE.result.CE.failures = List.length ref_btree.CE.result.CE.failures);
    check "guided failures are a subset of the exhaustive failures"
      (List.for_all (fun i -> List.mem i ref_set) (indexes gd));
    (ex, gd, ex_s, gd_s)
  in
  let images (ex, gd, _, _) = ex.CE.result.CE.images_checked + gd.CE.result.CE.images_checked in
  if not traced then begin
    let samples = calibrated ~check:ignore !seconds (fun _ -> explore ()) in
    let latencies = List.map (fun (_, s) -> s.ref_s) samples in
    let rate f = P.median (List.map (fun (r, s) -> float_of_int (f r) /. s.ref_s) samples) in
    let _, gd, _, _ = fst (List.hd samples) in
    report_end_to_end ~setup_s ~events_per_s:(rate (fun _ -> events)) ~latencies
      ~raw_latencies:(List.map (fun (_, s) -> s.raw_s) samples)
      ~images_per_s:(rate images)
      ~bugs_per_100_images:
        (100.0 *. float_of_int (List.length (indexes gd)) /. float_of_int (max 1 gd.CE.result.CE.images_checked))
      ()
  end
  else begin
    let image_counts = ref [] and prefixes = ref [] in
    let recovery_s = ref 0.0 in
    let recovery_wrap f img =
      let ok, dt = timed (fun () -> f img) in
      recovery_s := !recovery_s +. dt;
      ok
    in
    (* Durations taken inside a measured call are scaled to reference
       host speed by that call's factor. *)
    let record_scaled (s : sample) name dt = record name (dt *. s.ref_s /. s.raw_s) in
    run_for ~min_iters:2 !seconds (fun _ ->
        let (_, _, ex_s, gd_s), s = measure (fun () -> explore ()) in
        record "wall" s.ref_s;
        record_scaled s "faultinject.exhaustive" ex_s;
        record_scaled s "faultinject.guided" gd_s;
        ignore (span "faultinject.capture" capture);
        let reg = Obs.Metrics.create () in
        recovery_s := 0.0;
        let r, s = measure (fun () -> explore ~metrics:reg ~recovery_wrap ()) in
        record "traced_wall" s.ref_s;
        record_scaled s "faultinject.recovery" !recovery_s;
        image_counts := float_of_int (images r) :: !image_counts;
        prefixes := counter (Obs.Metrics.snapshot reg) "crash_explore_prefixes_replayed_total" :: !prefixes;
        (* One forward pass over the b_tree steps, deriving the crash
           images at every store/CLF/fence boundary. *)
        let apply_s = ref 0.0 and images_s = ref 0.0 in
        let add acc f = let (), dt = timed f in acc := !acc +. dt in
        let (), s =
          measure (fun () ->
              let st = Pmem.State.create () in
              Array.iter
                (fun step ->
                  add apply_s (fun () -> Faultinject.Replay.apply st step);
                  if Faultinject.Replay.(is_store step || is_clf step || is_fence step) then
                    add images_s (fun () -> ignore (Pmem.State.crash_images st ())))
                btree)
        in
        record_scaled s "pmem.apply" !apply_s;
        record_scaled s "pmem.crash_images" !images_s;
        ignore (span "infer.analyze" (fun () -> CE.plan_invariants (rounds_plan ()))));
    let m = span_median in
    let apply_s = m "pmem.apply" and images_s = m "pmem.crash_images" in
    let analyze_s = m "infer.analyze" in
    let ex_s = m "faultinject.exhaustive" and gd_s = m "faultinject.guided" in
    report_layers
      ([
         ("faultinject.capture_s", m "faultinject.capture"); ("faultinject.exhaustive_s", ex_s);
         ("faultinject.guided_s", gd_s); ("faultinject.images", same_count "faultinject.images" !image_counts);
         ("faultinject.prefixes_replayed", same_count "faultinject.prefixes_replayed" !prefixes);
         ("faultinject.recovery_s", m "faultinject.recovery"); ("pmem.apply_s", apply_s);
         ("pmem.crash_images_s", images_s); ("infer.analyze_s", analyze_s);
       ]
      @ attribution ~wall:(m "wall") ~traced_wall:(m "traced_wall")
          [
            ("attr.faultinject_s", ex_s +. gd_s -. apply_s -. images_s -. analyze_s);
            ("attr.pmem_s", apply_s +. images_s); ("attr.infer_s", analyze_s);
          ])
  end

let () =
  (match !workload with
  | "replay_btree" -> replay_workload Workloads.Btree.spec 20_000
  | "replay_memcached" -> replay_workload Workloads.Memcached.spec 60_000
  | "serve_sessions" -> serve_workload ()
  | "crash_explore" -> crash_workload ()
  | w ->
      Printf.eprintf "perfbench: unknown workload %S\n" w;
      exit 2);
  finish ()
