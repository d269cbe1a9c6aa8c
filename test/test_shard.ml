(* The sharded detection pipeline: the frame ring, router parity against
   the single-detector run (the equality contract), cross-shard
   prior-seq merging, finish_all ordering and the flat baseline
   backend. *)

open Pmtrace
module D = Pmdebugger.Detector
module SI = Pmdebugger.Store_intf

(* The plain detector reports findings in discovery order, the sharded
   merge in canonical order; sort both before comparing renders. *)
let canon (r : Bug.report) =
  Bug.render_canonical { r with Bug.bugs = List.sort Bug.compare_canonical r.Bug.bugs }

let replay_plain ?mode ?backend ?(model = D.Strict) trace =
  let backend = match backend with Some b -> b | None -> Pmdebugger.Space.backend ?mode () in
  Recorder.replay trace (D.sink (D.create ~model ~backend ()))

let replay_sharded ?mode ?(model = D.Strict) ?(domains = false) ~shards trace =
  Recorder.replay trace
    (Shard_router.sink ~shards ~domains (fun _ ->
         D.worker (D.create ~model ~backend:(Pmdebugger.Space.backend ?mode ()) ~walk_dedup:false ())))

(* ---------------------------------------------------------------- *)
(* Frame_ring: the batched transport                                 *)
(* ---------------------------------------------------------------- *)

(* One event of every constructor (plus each annotation), so the
   encoder/decoder pair is exercised over the whole Event.t surface. *)
let every_event =
  [
    Event.Store { addr = 40; size = 16; tid = 1 };
    Event.Clf { addr = 0; size = 64; kind = Event.Clwb; tid = 2 };
    Event.Clf { addr = 64; size = 64; kind = Event.Clflush; tid = 0 };
    Event.Clf { addr = 128; size = 64; kind = Event.Clflushopt; tid = 0 };
    Event.Fence { tid = 3 };
    Event.Register_pmem { base = 0; size = 4096 };
    Event.Epoch_begin { tid = 0 };
    Event.Epoch_end { tid = 0 };
    Event.Strand_begin { tid = 0; strand = 2 };
    Event.Strand_end { tid = 0; strand = 2 };
    Event.Join_strand { tid = 0 };
    Event.Tx_log { obj_addr = 96; size = 24; tid = 1 };
    Event.Register_var { name = "head_ptr"; addr = 8; size = 8 };
    Event.Register_var { name = ""; addr = 16; size = 8 };
    Event.Call { func = "persist_obj"; tid = 1 };
    Event.Annotation (Event.Assert_durable { addr = 0; size = 8 });
    Event.Annotation (Event.Assert_ordered { first_addr = 0; first_size = 8; then_addr = 8; then_size = 16 });
    Event.Annotation (Event.Assert_fresh { addr = 24; size = 8 });
    Event.Program_end;
  ]

let test_frame_roundtrip () =
  let ring = Frame_ring.create ~slots:4 ~frame_events:64 () in
  List.iteri (fun i ev -> ignore (Frame_ring.push ring ~seq:(i + 1) ~silent:(i land 1 = 0) ev)) every_event;
  Alcotest.(check int) "all staged below the threshold" (List.length every_event) (Frame_ring.staged ring);
  let n = Frame_ring.flush ring in
  Alcotest.(check int) "flush publishes the partial frame" (List.length every_event) n;
  let got = ref [] in
  (match Frame_ring.try_consume ring ~f:(fun ~seq ~silent ev -> got := (seq, silent, ev) :: !got) with
  | `Frame n' -> Alcotest.(check int) "consumed count" n n'
  | `Stop _ | `Empty -> Alcotest.fail "expected a plain frame");
  let expected = List.mapi (fun i ev -> (i + 1, i land 1 = 0, ev)) every_event in
  Alcotest.(check bool) "every constructor roundtrips with seq and silent bit" true (List.rev !got = expected)

let test_frame_boundary_and_stop_partial () =
  let ring = Frame_ring.create ~slots:4 ~frame_events:4 () in
  let published = ref [] in
  for i = 1 to 10 do
    let n = Frame_ring.push ring ~seq:i ~silent:false (Event.Fence { tid = i }) in
    if n > 0 then published := n :: !published
  done;
  Alcotest.(check (list int)) "publishes exactly at the frame boundary" [ 4; 4 ] (List.rev !published);
  Alcotest.(check int) "two events staged" 2 (Frame_ring.staged ring);
  Frame_ring.push_stop ring;
  Alcotest.(check int) "stop published the partial frame" 0 (Frame_ring.staged ring);
  let seqs = ref [] in
  let finished = ref false in
  while not !finished do
    match Frame_ring.try_consume ring ~f:(fun ~seq ~silent:_ _ -> seqs := seq :: !seqs) with
    | `Frame _ -> ()
    | `Stop n ->
        Alcotest.(check int) "stop frame carried the partial tail" 2 n;
        finished := true
    | `Empty -> Alcotest.fail "ring empty before the stop frame"
  done;
  Alcotest.(check (list int)) "every event exactly once, in order" (List.init 10 (fun i -> i + 1))
    (List.rev !seqs)

let test_frame_oversized_record_grows_slot () =
  (* A record bigger than the whole slot: the staging buffer must grow
     rather than truncate or loop. *)
  let ring = Frame_ring.create ~frame_bytes:32 ~slots:2 ~frame_events:8 () in
  let long = String.make 600 'x' in
  ignore (Frame_ring.push ring ~seq:1 ~silent:false (Event.Store { addr = 0; size = 8; tid = 0 }));
  ignore (Frame_ring.push ring ~seq:2 ~silent:false (Event.Register_var { name = long; addr = 0; size = 8 }));
  ignore (Frame_ring.flush ring);
  let got = ref [] in
  let rec drain () =
    match Frame_ring.try_consume ring ~f:(fun ~seq:_ ~silent:_ ev -> got := ev :: !got) with
    | `Frame _ | `Stop _ -> drain ()
    | `Empty -> ()
  in
  drain ();
  match List.rev !got with
  | [ Event.Store _; Event.Register_var { name; _ } ] ->
      Alcotest.(check string) "long name intact" long name
  | evs -> Alcotest.failf "expected store + register_var, got %d event(s)" (List.length evs)

(* A push that fills the frame by *bytes* (string-carrying records
   bigger than the per-event estimate) used to discard the published
   count, returning 0: in Shard_router's inline framed mode nothing
   consumed those frames — after [slots] of them the full-ring wait
   deadlocked the router — and in domain mode shard_events_total
   undercounted. Every published frame must be accounted in some
   push/flush return value. *)
let test_frame_byte_full_publish_counted () =
  (* 69-byte Call records against 140-byte slots: every frame fills by
     bytes after two events, far below the 256-event threshold. *)
  let ring = Frame_ring.create ~frame_bytes:140 ~slots:8 ~frame_events:256 () in
  let long = String.make 48 'f' in
  let n = 10 in
  let published = ref 0 in
  for i = 1 to n do
    published := !published + Frame_ring.push ring ~seq:i ~silent:false (Event.Call { func = long; tid = 0 })
  done;
  Alcotest.(check bool) "byte-full frames were published" true (Frame_ring.length ring > 0);
  published := !published + Frame_ring.flush ring;
  Alcotest.(check int) "every event accounted in a push/flush return" n !published;
  let seqs = ref [] in
  let rec drain () =
    match Frame_ring.try_consume ring ~f:(fun ~seq ~silent:_ _ -> seqs := seq :: !seqs) with
    | `Frame _ | `Stop _ -> drain ()
    | `Empty -> ()
  in
  drain ();
  Alcotest.(check (list int)) "every event exactly once, in order" (List.init n (fun i -> i + 1))
    (List.rev !seqs)

let test_frame_wraparound () =
  let ring = Frame_ring.create ~slots:2 ~frame_events:3 () in
  for round = 0 to 40 do
    for i = 0 to 2 do
      ignore (Frame_ring.push ring ~seq:((round * 3) + i) ~silent:false (Event.Fence { tid = i }))
    done;
    let got = ref [] in
    (match Frame_ring.try_consume ring ~f:(fun ~seq ~silent:_ _ -> got := seq :: !got) with
    | `Frame 3 -> ()
    | _ -> Alcotest.fail "expected a full frame each round");
    Alcotest.(check (list int)) "frame contents in order"
      [ round * 3; (round * 3) + 1; (round * 3) + 2 ]
      (List.rev !got)
  done

let test_frame_cross_domain () =
  let n = 50_000 in
  let ring = Frame_ring.create ~slots:4 ~frame_events:7 () in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to n do
          ignore (Frame_ring.push ring ~seq:i ~silent:false (Event.Fence { tid = i land 7 }))
        done;
        Frame_ring.push_stop ring)
  in
  let next = ref 1 in
  let ok = ref true in
  let total = ref 0 in
  let finished = ref false in
  while not !finished do
    match
      Frame_ring.consume ring ~f:(fun ~seq ~silent:_ _ ->
          if seq <> !next then ok := false;
          incr next;
          incr total)
    with
    | `Frame _ -> ()
    | `Stop _ -> finished := true
  done;
  Domain.join producer;
  Alcotest.(check bool) "every event, in order" true !ok;
  Alcotest.(check int) "exactly n events" n !total

(* ---------------------------------------------------------------- *)
(* Stage latency: the publish-stamp law and the disabled-path cost    *)
(* ---------------------------------------------------------------- *)

(* QCheck law pinned in frame_ring.mli: the publish stamps of
   successive frames of one ring are non-decreasing at the consumer —
   across slot wraparound, random flush points and a stop carrying a
   partial frame. Residency attribution (now - last_frame_ts) relies
   on it. Ops: 0 = flush, k > 0 = push k events. slots = 2 forces
   wraparound constantly; draining at each publish keeps the inline
   producer from blocking on a full ring. *)
let prop_pub_ts_nondecreasing =
  QCheck.Test.make ~name:"frame ring: publish stamps non-decreasing (wraparound, flush, partial stop)"
    ~count:100
    QCheck.(list_of_size Gen.(1 -- 60) (int_bound 4))
    (fun ops ->
      let ring = Frame_ring.create ~slots:2 ~frame_events:3 () in
      let last = ref 0.0 in
      let ok = ref true in
      let note () =
        let ts = Frame_ring.last_frame_ts ring in
        if ts < !last then ok := false;
        last := ts
      in
      let drain () =
        let continue = ref true in
        while !continue do
          match Frame_ring.try_consume ring ~f:(fun ~seq:_ ~silent:_ _ -> ()) with
          | `Frame _ -> note ()
          | `Stop _ ->
              note ();
              continue := false
          | `Empty -> continue := false
        done
      in
      List.iteri
        (fun i op ->
          if op = 0 then (if Frame_ring.flush ring > 0 then drain ())
          else
            for _ = 1 to op do
              if Frame_ring.push ring ~seq:i ~silent:false (Event.Fence { tid = i }) > 0 then drain ()
            done)
        ops;
      Frame_ring.push_stop ring;
      drain ();
      !ok)

(* The same law with the producer on a real domain: wall-clock stamps
   taken on one domain, read on another, still non-decreasing in
   consume order (the ring's FIFO + the publishing store's ordering). *)
let test_frame_pub_ts_cross_domain () =
  let n = 20_000 in
  let ring = Frame_ring.create ~slots:4 ~frame_events:7 () in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to n do
          ignore (Frame_ring.push ring ~seq:i ~silent:false (Event.Fence { tid = i land 7 }));
          if i mod 613 = 0 then ignore (Frame_ring.flush ring)
        done;
        Frame_ring.push_stop ring)
  in
  let last = ref 0.0 in
  let ok = ref true in
  let frames = ref 0 in
  let finished = ref false in
  while not !finished do
    (match Frame_ring.consume ring ~f:(fun ~seq:_ ~silent:_ _ -> ()) with
    | `Frame _ -> incr frames
    | `Stop _ -> finished := true);
    let ts = Frame_ring.last_frame_ts ring in
    if ts < !last then ok := false;
    last := ts
  done;
  Domain.join producer;
  Alcotest.(check bool) "stamps non-decreasing across domains" true !ok;
  Alcotest.(check bool) "saw many frames" true (!frames > 100)

(* Close semantics (idempotence, producer poisoning, drain-then-raise,
   wake-ups) are exercised in the serve suite, where the daemon's
   per-session rings depend on them. *)
let fence i = Event.Fence { tid = i }

let raises_closed f = match f () with exception Frame_ring.Closed -> true | _ -> false

(* Exact delivery under a cross-domain close race: a publish that
   returns normally is always seen by the closer's final drain, so the
   consumer's tally never falls short of the producer's; it can exceed
   it by at most the one frame whose publish raised after its store. *)
let test_frame_close_race_exact_delivery () =
  let frame_events = 3 in
  for _round = 1 to 50 do
    let ring = Frame_ring.create ~slots:4 ~frame_events () in
    let producer =
      Domain.spawn (fun () ->
          let delivered = ref 0 in
          (try
             for i = 1 to max_int do
               delivered := !delivered + Frame_ring.push ring ~seq:i ~silent:false (fence i)
             done
           with Frame_ring.Closed -> ());
          !delivered)
    in
    let consumed = ref 0 in
    let f ~seq:_ ~silent:_ _ = incr consumed in
    (try
       (* A worker-style consumer: consume a while, then tear the stream
          down mid-flight and keep consuming — [consume] drains what was
          published before raising [Closed]. *)
       while !consumed < 100 do
         ignore (Frame_ring.consume ring ~f)
       done;
       Frame_ring.close ring;
       while true do
         ignore (Frame_ring.consume ring ~f)
       done
     with Frame_ring.Closed -> ());
    let delivered = Domain.join producer in
    if !consumed < delivered then
      Alcotest.failf "silent loss: producer published %d but consumer saw only %d" delivered !consumed;
    if !consumed > delivered + frame_events then
      Alcotest.failf "over-delivery: producer published %d but consumer saw %d" delivered !consumed
  done

(* The non-blocking push succeeds exactly when [push] would not wait.
   Byte-full staging needs two free slots — the full frame publishes
   and the event opens the next — so it must refuse up front rather
   than publish and then block. *)
let test_frame_try_push_byte_full () =
  (* 40-byte slots hold two 17-byte fence records. *)
  let ring = Frame_ring.create ~frame_bytes:40 ~slots:2 ~frame_events:8 () in
  let try_push i = Frame_ring.try_push ring ~seq:i ~silent:false (fence i) in
  Alcotest.(check (list bool)) "four events fit" [ true; true; true; true ] (List.map try_push [ 1; 2; 3; 4 ]);
  Alcotest.(check int) "one byte-full frame published" 1 (Frame_ring.length ring);
  Alcotest.(check bool) "fifth would publish into a full ring" false (try_push 5);
  Alcotest.(check int) "refusal staged nothing" 2 (Frame_ring.staged ring);
  Alcotest.(check int) "refusal published nothing" 1 (Frame_ring.length ring);
  let seqs = ref [] in
  let f ~seq ~silent:_ _ = seqs := seq :: !seqs in
  ignore (Frame_ring.try_consume ring ~f);
  Alcotest.(check bool) "room after a consume" true (try_push 5);
  Frame_ring.push_stop ring;
  let rec drain () = match Frame_ring.try_consume ring ~f with `Stop _ -> () | _ -> drain () in
  drain ();
  Alcotest.(check (list int)) "every event once, in order" [ 1; 2; 3; 4; 5 ] (List.rev !seqs)

(* Overhead guard for the stage-attribution path: with metrics
   disabled, routing through the framed transport pays one branch per
   frame and zero timing calls — an absolute bound on 200k events
   through a no-op worker catches an accidentally always-on path
   (10-100x), not CI noise. *)
let noop_worker _ =
  {
    Shard_router.w_event = (fun ~seq:_ ~silent:_ _ -> ());
    w_scan_store = (fun ~seq:_ ~tid:_ ~lo:_ ~hi:_ -> { Shard_router.so_overlapped = false; so_prior_seqs = [] });
    w_fire_store = (fun ~seq:_ ~addr:_ ~size:_ _ -> ());
    w_scan_clf = (fun ~seq:_ ~tid:_ ~lo:_ ~hi:_ -> { Shard_router.co_matched = 0; co_newly = 0; co_redundant = [] });
    w_fire_clf = (fun ~seq:_ ~addr:_ ~size:_ _ -> ());
    w_finish = (fun () -> Bug.empty_report "noop");
  }

let test_stage_latency_disabled_overhead () =
  let n = 200_000 in
  let sink = Shard_router.sink ~shards:2 ~domains:false noop_worker in
  let t0 = Unix.gettimeofday () in
  for i = 1 to n do
    sink.Sink.on_event (Event.Store { addr = (i land 1023) * 8; size = 8; tid = 0 })
  done;
  ignore (sink.Sink.finish ());
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "200k framed events with metrics off in %.3fs < 2s" dt) true (dt < 2.0)

(* ---------------------------------------------------------------- *)
(* Engine.finish_all ordering (regression for the documented          *)
(* guarantee the shard merge relies on)                               *)
(* ---------------------------------------------------------------- *)

let mk_named name = Sink.make ~name ~on_event:(fun _ -> ()) ~finish:(fun () -> Bug.empty_report name)

let drive_engine e =
  Engine.register_pmem e ~base:0 ~size:4096;
  Engine.store_int e ~addr:0 42;
  Engine.clwb e ~addr:0;
  Engine.sfence e;
  Engine.program_end e

let test_finish_all_attach_order () =
  let e = Engine.create () in
  Engine.attach e (mk_named "first");
  Engine.attach e (Shard_router.sink ~shards:2 ~domains:false (fun _ -> D.worker (D.create ~walk_dedup:false ())));
  Engine.attach e (mk_named "last");
  drive_engine e;
  let names = List.map (fun r -> r.Bug.detector) (Engine.finish_all e) in
  Alcotest.(check (list string)) "one report per sink, in attach order" [ "first"; "pmdebugger"; "last" ] names

let test_finish_all_order_survives_quarantine () =
  let e = Engine.create () in
  Engine.attach e (mk_named "a");
  Engine.attach e (Sink.make ~name:"boom" ~on_event:(fun _ -> ()) ~finish:(fun () -> failwith "kaboom"));
  Engine.attach e (mk_named "z");
  drive_engine e;
  let reports = Engine.finish_all e in
  Alcotest.(check int) "still three reports" 3 (List.length reports);
  Alcotest.(check string) "first in place" "a" (List.nth reports 0).Bug.detector;
  Alcotest.(check string) "last in place" "z" (List.nth reports 2).Bug.detector;
  Alcotest.(check bool) "middle carries the failure" true ((List.nth reports 1).Bug.failure <> None)

(* ---------------------------------------------------------------- *)
(* prior_seqs across shard boundaries (cap of the union = smallest 8) *)
(* ---------------------------------------------------------------- *)

let test_merge_store_obs_cap () =
  let o1 = { Shard_router.so_overlapped = true; so_prior_seqs = [ 1; 3; 5; 7; 9; 11; 13; 15 ] } in
  let o2 = { Shard_router.so_overlapped = false; so_prior_seqs = [ 2; 4; 6; 8; 10; 12; 14; 16 ] } in
  let m = Shard_router.merge_store_obs [ o1; o2 ] in
  Alcotest.(check bool) "overlap ORs" true m.Shard_router.so_overlapped;
  Alcotest.(check (list int))
    "cap keeps the smallest max_prior_seqs of the union" [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    m.Shard_router.so_prior_seqs;
  Alcotest.(check int) "the cap is 8" 8 Shard_router.max_prior_seqs;
  Alcotest.(check int) "backends share the constant" Shard_router.max_prior_seqs SI.max_prior_seqs

(* A store spanning two shards' cache lines with more prior stores than
   the cap: the merged chain must be the 8 smallest seqs of the union,
   exactly as a single-shard run reports. *)
let test_prior_seqs_span_two_shards () =
  let evs = ref [] in
  let emit e = evs := e :: !evs in
  emit (Event.Register_pmem { base = 0; size = 1024 });
  (* Twelve non-overlapping 4-byte stores: six on line 0, six on line 1
     (seqs 2..13), none durable. *)
  for i = 0 to 11 do
    emit (Event.Store { addr = 40 + (4 * i); size = 4; tid = 0 })
  done;
  (* Seq 14 overwrites all twelve across the line-0/line-1 boundary. *)
  emit (Event.Store { addr = 40; size = 48; tid = 0 });
  emit Event.Program_end;
  let trace = Array.of_list (List.rev !evs) in
  let single = replay_plain trace in
  let sharded = replay_sharded ~shards:2 trace in
  Alcotest.(check string) "reports identical" (canon single) (canon sharded);
  let mo =
    match List.find_opt (fun b -> b.Bug.kind = Bug.Multiple_overwrites) sharded.Bug.bugs with
    | Some b -> b
    | None -> Alcotest.fail "no multiple-overwrites finding"
  in
  Alcotest.(check int) "full range reported" 48 mo.Bug.size;
  let seqs =
    (* The chain's prior-store causes, without the trailing cause for
       the firing store itself. *)
    List.filter_map
      (fun c -> if c.Bug.c_class = "store" && c.Bug.c_seq <> mo.Bug.seq then Some c.Bug.c_seq else None)
      mo.Bug.chain
  in
  Alcotest.(check (list int)) "chain = 8 smallest priors of the union" [ 2; 3; 4; 5; 6; 7; 8; 9 ] seqs

(* ---------------------------------------------------------------- *)
(* merge_stats: union of keys (regression)                           *)
(* ---------------------------------------------------------------- *)

(* The merge used to map over shard 0's stat list only, silently
   dropping any key that first appears on a later shard (a backend
   counter that never tripped on shard 0's partition). *)
let mk_stat_worker stats shard =
  {
    Shard_router.w_event = (fun ~seq:_ ~silent:_ _ -> ());
    w_scan_store = (fun ~seq:_ ~tid:_ ~lo:_ ~hi:_ -> { Shard_router.so_overlapped = false; so_prior_seqs = [] });
    w_fire_store = (fun ~seq:_ ~addr:_ ~size:_ _ -> ());
    w_scan_clf = (fun ~seq:_ ~tid:_ ~lo:_ ~hi:_ -> { Shard_router.co_matched = 0; co_newly = 0; co_redundant = [] });
    w_fire_clf = (fun ~seq:_ ~addr:_ ~size:_ _ -> ());
    w_finish = (fun () -> { (Bug.empty_report "stats-worker") with Bug.stats = stats shard });
  }

let test_merge_stats_union () =
  let stats = function
    | 0 -> [ ("shared", 1.0); ("avg_everywhere", 4.0) ]
    | _ -> [ ("shared", 2.0); ("only_on_shard_1", 5.0); ("avg_only_on_shard_1", 7.0) ]
  in
  let report =
    Recorder.replay [| Event.Program_end |]
      (Shard_router.sink ~shards:2 ~domains:false (mk_stat_worker stats))
  in
  let get key =
    match List.assoc_opt key report.Bug.stats with
    | Some v -> v
    | None -> Alcotest.failf "stat %S missing from the merged report" key
  in
  Alcotest.(check (float 0.0)) "shared counters sum across shards" 3.0 (get "shared");
  Alcotest.(check (float 0.0)) "key present only on shard 1 survives the merge" 5.0 (get "only_on_shard_1");
  Alcotest.(check (float 0.0)) "avg_ key from the first shard carrying it" 7.0 (get "avg_only_on_shard_1");
  Alcotest.(check (float 0.0)) "avg_ key on shard 0 stays shard 0's" 4.0 (get "avg_everywhere");
  Alcotest.(check (list string)) "first-appearance key order"
    [ "shared"; "avg_everywhere"; "only_on_shard_1"; "avg_only_on_shard_1" ]
    (List.map fst report.Bug.stats)

(* ---------------------------------------------------------------- *)
(* Queue-depth gauge sampling (regression)                           *)
(* ---------------------------------------------------------------- *)

(* Sampling used to gate on the router's global event tick (every 64th
   event, nothing before event 64): a short run with real domains ended
   with no depth series at all. Now each shard samples on its own push
   cadence plus a final pre-stop sample, so even a tiny run records a
   peak for every shard that saw traffic. *)
let test_depth_gauge_on_small_runs () =
  let reg = Obs.Metrics.create () in
  let evs = ref [ Event.Register_pmem { base = 0; size = 512 } ] in
  for i = 1 to 10 do
    evs := Event.Store { addr = (i mod 2 * 64) + 8; size = 8; tid = 0 } :: !evs
  done;
  evs := Event.Program_end :: !evs;
  let trace = Array.of_list (List.rev !evs) in
  ignore
    (Recorder.replay trace
       (Shard_router.sink ~shards:2 ~metrics:reg (fun _ -> D.worker (D.create ~walk_dedup:false ()))));
  let snap = Obs.Metrics.snapshot reg in
  List.iter
    (fun shard ->
      if Obs.Metrics.find snap ~labels:[ ("shard", shard) ] "shard_queue_depth_peak" = None then
        Alcotest.failf "no depth peak for shard %s (<64 events routed)" shard)
    [ "0"; "1" ]

(* ---------------------------------------------------------------- *)
(* QCheck parity: random traces, sharded vs single                   *)
(* ---------------------------------------------------------------- *)

let lines = 8
let region = lines * 64

(* Random but contract-respecting traces: Register_pmem first, then
   optional Register_var pins (before any store), then a mix of
   (possibly line-crossing) stores, line-granular CLFs, fences, epoch
   and strand markers, tx-log appends and call markers. Small address
   space so line collisions, overwrites and cross-shard ranges are
   common. *)
let trace_of (vars, ops) =
  let evs = ref [] in
  let emit e = evs := e :: !evs in
  emit (Event.Register_pmem { base = 0; size = region });
  List.iter
    (fun (line, wide) ->
      let line = line mod lines in
      let size = if wide then 80 else 16 in
      let size = min size (region - (line * 64) - 8) in
      if size > 0 then emit (Event.Register_var { name = "v"; addr = (line * 64) + 8; size }))
    vars;
  let strand = ref 0 in
  List.iter
    (fun (op, (a, s)) ->
      match op with
      | 0 | 1 | 2 | 3 ->
          let addr = a land lnot 7 in
          let size = min (8 * s) (region - addr) in
          if size > 0 then emit (Event.Store { addr; size; tid = 0 })
      | 4 | 5 ->
          let addr = a / 64 * 64 in
          let size = min (if s > 2 then 128 else 64) (region - addr) in
          emit (Event.Clf { addr; size; kind = Event.Clwb; tid = 0 })
      | 6 -> emit (Event.Fence { tid = 0 })
      | 7 -> emit (if s land 1 = 0 then Event.Epoch_begin { tid = 0 } else Event.Epoch_end { tid = 0 })
      | 8 ->
          if s land 1 = 0 then begin
            incr strand;
            emit (Event.Strand_begin { tid = 0; strand = !strand land 3 })
          end
          else emit (Event.Join_strand { tid = 0 })
      | 9 -> emit (Event.Tx_log { obj_addr = a land lnot 7; size = 8; tid = 0 })
      | _ ->
          (* Alternate short and long names: records of several sizes
             share a frame. *)
          let func = if s land 1 = 0 then "persist_obj" else String.make 60 'p' in
          emit (Event.Call { func; tid = 0 })
    )
    ops;
  emit Event.Program_end;
  Array.of_list (List.rev !evs)

let gen_var = QCheck.(pair (int_range 0 (lines - 1)) bool)

let gen_op s = QCheck.(pair (int_range 0 10) (pair (int_range 0 (region - 1)) s))

let gen_trace =
  QCheck.(pair (list_of_size Gen.(0 -- 2) gen_var) (list_of_size Gen.(0 -- 60) (gen_op (int_range 1 4))))

(* Long traces that span several 256-event frames per shard, so
   full-frame publishes interleave with the partial-frame flushes of
   cross-shard barriers. Most ops use size code 1 (one-line stores and
   CLFs), which never stall; about one op in 40 is drawn from the full
   mix and may stall. *)
let gen_long_trace =
  QCheck.(
    pair
      (list_of_size Gen.(0 -- 2) gen_var)
      (list_of_size Gen.(600 -- 1500) (frequency [ (40, gen_op (always 1)); (1, gen_op (int_range 1 4)) ])))

let gen_parity_trace = QCheck.frequency [ (3, gen_trace); (1, gen_long_trace) ]

(* Crash-image findings (cross-failure) are vacuously equal here: the
   rule needs a live PM state, which neither the plain nor the sharded
   replay has — so the byte-identical report comparison covers every
   rule that can fire on a replayed trace. *)
let parity_prop ?mode ?(model = D.Strict) ~shards input =
  let trace = trace_of input in
  let expected = canon (replay_plain ?mode ~model trace) in
  canon (replay_sharded ?mode ~model ~shards trace) = expected

let prop_parity_modes =
  QCheck.Test.make ~name:"sharded report equals single run (3 modes x 2/4/8 shards, strict)" ~count:30
    gen_parity_trace
    (fun input ->
      List.for_all
        (fun mode ->
          List.for_all
            (fun shards -> parity_prop ~mode ~shards input)
            [ 2; 4; 8 ])
        [ Pmdebugger.Space.Hybrid; Pmdebugger.Space.Array_only; Pmdebugger.Space.Tree_only ])

let prop_parity_relaxed_models =
  QCheck.Test.make ~name:"sharded report equals single run (epoch and strand models)" ~count:25
    gen_parity_trace
    (fun input ->
      List.for_all (fun model -> List.for_all (fun shards -> parity_prop ~model ~shards input) [ 2; 4 ])
        [ D.Epoch; D.Strand ])

let prop_parity_domains =
  QCheck.Test.make ~name:"sharded report equals single run (real domains)" ~count:6 gen_long_trace
    (fun input ->
      let trace = trace_of input in
      canon (replay_sharded ~domains:true ~shards:2 trace) = canon (replay_plain trace))

(* Deterministic frame-boundary edge case: a cross-shard store arrives
   while both shards hold partially staged frames. The barrier must
   flush them before scanning (inline and with real domains), or the
   scans would run against workers that have not seen the preceding
   stores — and with domains the drain would spin on staged events no
   worker can see. *)
let test_barrier_mid_frame () =
  let trace =
    [|
      Event.Register_pmem { base = 0; size = region };
      Event.Store { addr = 0; size = 8; tid = 0 };
      Event.Store { addr = 64; size = 8; tid = 0 };
      Event.Store { addr = 56; size = 16; tid = 0 };
      Event.Clf { addr = 0; size = 128; kind = Event.Clwb; tid = 0 };
      Event.Fence { tid = 0 };
      Event.Program_end;
    |]
  in
  let expected = canon (replay_plain trace) in
  List.iter
    (fun domains ->
      Alcotest.(check string) "report survives a mid-frame barrier" expected
        (canon (replay_sharded ~domains ~shards:2 trace)))
    [ false; true ]

(* Router-level regression for the byte-full publish bug: long Call
   names make every frame fill by bytes (81-byte records in the default
   10,304-byte slots → byte-full at 127 events) while the 256-event
   threshold is never reached. The router used to learn nothing about
   these frames (push returned 0): inline mode hung forever once the
   ring's 4 slots filled, and shard_events_total missed their event
   counts. 1200 broadcast Calls fill each shard's ring twice over. *)
let test_framed_byte_full_inline () =
  let reg = Obs.Metrics.create () in
  let long = String.make 60 'f' in
  let calls = 1200 in
  let evs = ref [ Event.Register_pmem { base = 0; size = region } ] in
  for i = 1 to calls do
    evs := Event.Call { func = long; tid = i land 3 } :: !evs
  done;
  evs := Event.Store { addr = 8; size = 8; tid = 0 } :: !evs;
  evs := Event.Program_end :: !evs;
  let trace = Array.of_list (List.rev !evs) in
  let expected = canon (replay_plain trace) in
  let got =
    Recorder.replay trace
      (Shard_router.sink ~shards:2 ~domains:false ~metrics:reg (fun _ -> D.worker (D.create ~walk_dedup:false ())))
  in
  Alcotest.(check string) "report identical to the single run" expected (canon got);
  (* Shard 0 sees every event: the broadcasts (Register_pmem, the
     Calls, Program_end), the line-0 store, and the finish-time
     Program_end broadcast; shard 1 sees the broadcasts only.
     Exactness requires byte-full frames to be counted. *)
  let snap = Obs.Metrics.snapshot reg in
  let total shard = Obs.Metrics.counter_value snap ~labels:[ ("shard", shard) ] "shard_events_total" in
  Alcotest.(check int) "shard 0 total exact" (calls + 4) (total "0");
  Alcotest.(check int) "shard 1 total exact" (calls + 3) (total "1");
  (* One worker frame-latency observation per consumed frame. *)
  match Obs.Metrics.find snap ~labels:[ ("shard", "1") ] "shard_worker_frame_seconds" with
  | Some (Obs.Metrics.V_hist h) ->
      Alcotest.(check bool) "frames publish byte-full, below 256 events" true (h.Obs.Metrics.h_count >= calls / 127)
  | _ -> Alcotest.fail "no frame-latency histogram for shard 1"

let prop_flat_backend_equivalent =
  QCheck.Test.make ~name:"flat backend produces the hybrid backend's findings" ~count:40 gen_trace (fun input ->
      let trace = trace_of input in
      canon (replay_plain ~backend:(Pmdebugger.Flat_store.backend ()) trace) = canon (replay_plain trace))

(* ---------------------------------------------------------------- *)
(* Flat baseline backend semantics                                   *)
(* ---------------------------------------------------------------- *)

module F = Pmdebugger.Flat_store.Store

let test_flat_lifecycle () =
  let f = Pmdebugger.Flat_store.create () in
  ignore (F.process_store f ~addr:100 ~size:8 ~epoch:false ~seq:1 ~tid:0 ~strand:(-1) ());
  Alcotest.(check int) "tracked" 1 (Pmdebugger.Flat_store.pending_count f);
  let r = F.process_clf f ~lo:64 ~hi:128 in
  Alcotest.(check int) "matched" 1 r.SI.matched;
  Alcotest.(check int) "newly flushed" 1 r.SI.newly_flushed;
  F.process_fence f;
  Alcotest.(check int) "fence drains flushed" 0 (Pmdebugger.Flat_store.pending_count f)

let test_flat_partial_clf_splits () =
  let f = Pmdebugger.Flat_store.create () in
  (* One store straddling the flush boundary: the covered half persists,
     the remainder stays tracked unflushed. *)
  ignore (F.process_store f ~addr:60 ~size:8 ~epoch:false ~seq:1 ~tid:0 ~strand:(-1) ());
  ignore (F.process_clf f ~lo:0 ~hi:64);
  F.process_fence f;
  let remaining = ref [] in
  F.iter_pending f (fun ~addr ~size ~flushed ~epoch:_ ~seq:_ ~clf_seq:_ ~fence_seq:_ ->
      remaining := (addr, size, flushed) :: !remaining);
  Alcotest.(check (list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.bool)))
    "unflushed remainder survives" [ (64, 4, false) ] !remaining

let test_flat_overwrite_priors () =
  let f = Pmdebugger.Flat_store.create () in
  for i = 0 to 9 do
    ignore (F.process_store f ~addr:(8 * i) ~size:8 ~epoch:false ~seq:(i + 1) ~tid:0 ~strand:(-1) ())
  done;
  let r = F.process_store f ~check_overlap:true ~addr:0 ~size:80 ~epoch:false ~seq:11 ~tid:0 ~strand:(-1) () in
  Alcotest.(check bool) "overlap seen" true r.SI.overlapped;
  Alcotest.(check (list int)) "priors sorted, capped at 8" [ 1; 2; 3; 4; 5; 6; 7; 8 ] r.SI.prior_seqs

(* ---------------------------------------------------------------- *)
(* Diff: opt-in gauge gating                                         *)
(* ---------------------------------------------------------------- *)

let snap setup =
  let m = Obs.Metrics.create () in
  setup m;
  Obs.Metrics.snapshot m

let test_diff_gauge_gating () =
  let before = snap (fun m -> Obs.Metrics.set m "shard_queue_depth_peak" 10.0) in
  let after = snap (fun m -> Obs.Metrics.set m "shard_queue_depth_peak" 30.0) in
  let d = Obs.Diff.compute ~before ~after in
  Alcotest.(check int) "gauges never gate by default" 0 (List.length (Obs.Diff.regressions d));
  Alcotest.(check int) "grown gauge gates when opted in" 1
    (List.length (Obs.Diff.regressions ~gauge_threshold:0.5 d));
  (* (30 - 10) / 10 = 2.0 relative growth: below a looser threshold. *)
  Alcotest.(check int) "tolerated below its own threshold" 0
    (List.length (Obs.Diff.regressions ~gauge_threshold:3.0 d))

let test_diff_gauge_added () =
  let before = snap (fun _ -> ()) in
  let after = snap (fun m -> Obs.Metrics.set m "g" 5.0) in
  let d = Obs.Diff.compute ~before ~after in
  Alcotest.(check int) "added gauge ignored by default" 0 (List.length (Obs.Diff.regressions d));
  Alcotest.(check int) "added positive gauge gates when opted in" 1
    (List.length (Obs.Diff.regressions ~gauge_threshold:0.1 d))

let suite =
  [
    Alcotest.test_case "frame ring: all constructors roundtrip" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame ring: boundary publish and stop with partial frame" `Quick
      test_frame_boundary_and_stop_partial;
    Alcotest.test_case "frame ring: oversized record grows the slot" `Quick
      test_frame_oversized_record_grows_slot;
    Alcotest.test_case "frame ring: byte-full publishes are counted" `Quick
      test_frame_byte_full_publish_counted;
    Alcotest.test_case "frame ring: wraparound" `Quick test_frame_wraparound;
    Alcotest.test_case "framed routing: byte-full frames inline" `Quick test_framed_byte_full_inline;
    Alcotest.test_case "frame ring: cross-domain ordering" `Quick test_frame_cross_domain;
    QCheck_alcotest.to_alcotest prop_pub_ts_nondecreasing;
    Alcotest.test_case "frame ring: publish stamps across domains" `Quick test_frame_pub_ts_cross_domain;
    Alcotest.test_case "frame ring: close race loses nothing" `Quick test_frame_close_race_exact_delivery;
    Alcotest.test_case "frame ring: try_push refuses byte-full into a full ring" `Quick
      test_frame_try_push_byte_full;
    Alcotest.test_case "stage latency: disabled path overhead" `Quick test_stage_latency_disabled_overhead;
    Alcotest.test_case "finish_all: reports in attach order" `Quick test_finish_all_attach_order;
    Alcotest.test_case "finish_all: order survives quarantine" `Quick test_finish_all_order_survives_quarantine;
    Alcotest.test_case "merge_store_obs: cap of union" `Quick test_merge_store_obs_cap;
    Alcotest.test_case "prior seqs across a shard boundary" `Quick test_prior_seqs_span_two_shards;
    Alcotest.test_case "merge_stats: union of keys" `Quick test_merge_stats_union;
    Alcotest.test_case "depth gauge sampled on small runs" `Quick test_depth_gauge_on_small_runs;
    Alcotest.test_case "barrier with partial frames staged" `Quick test_barrier_mid_frame;
    QCheck_alcotest.to_alcotest prop_parity_modes;
    QCheck_alcotest.to_alcotest prop_parity_relaxed_models;
    QCheck_alcotest.to_alcotest prop_parity_domains;
    QCheck_alcotest.to_alcotest prop_flat_backend_equivalent;
    Alcotest.test_case "flat store: lifecycle" `Quick test_flat_lifecycle;
    Alcotest.test_case "flat store: partial CLF splits" `Quick test_flat_partial_clf_splits;
    Alcotest.test_case "flat store: overwrite priors" `Quick test_flat_overwrite_priors;
    Alcotest.test_case "diff: gauge gating opt-in" `Quick test_diff_gauge_gating;
    Alcotest.test_case "diff: added gauge" `Quick test_diff_gauge_added;
  ]
