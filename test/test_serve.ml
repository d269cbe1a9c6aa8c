(* The serving daemon: close semantics of the per-session frame ring,
   Engine.finish_all fault containment, the shared exit-code table, the wire protocol
   (parse + QCheck round-trip), the socket-free session state machine,
   the inline worker pool, the 8-client fault-tolerance gate over a
   real Unix-domain socket, a protocol fuzz through Client.raw, and
   connections that either side closes before the other is done. *)

open Pmtrace
module D = Pmdebugger.Detector

let canon (r : Bug.report) =
  Bug.render_canonical { r with Bug.bugs = List.sort Bug.compare_canonical r.Bug.bugs }

(* ---------------------------------------------------------------- *)
(* The per-session Frame_ring: close semantics                      *)
(* ---------------------------------------------------------------- *)

let fence i = Event.Fence { tid = i }

let raises_closed f = match f () with exception Frame_ring.Closed -> true | _ -> false

(* Close semantics, which the serve pool relies on for worker death:
   closing is idempotent, and every producer operation raises once the
   ring is closed — blocking or not. *)
let test_frame_close_poisons_producer () =
  let ring = Frame_ring.create ~slots:2 ~frame_events:1 () in
  ignore (Frame_ring.push ring ~seq:1 ~silent:false (fence 1));
  ignore (Frame_ring.push ring ~seq:2 ~silent:false (fence 2));
  Alcotest.(check bool) "try_push on a full ring" false (Frame_ring.try_push ring ~seq:3 ~silent:false (fence 3));
  Alcotest.(check bool) "try_push_stop on a full ring" false (Frame_ring.try_push_stop ring);
  Frame_ring.close ring;
  Alcotest.(check bool) "is_closed" true (Frame_ring.is_closed ring);
  Frame_ring.close ring (* idempotent *);
  Alcotest.(check bool) "push raises Closed" true
    (raises_closed (fun () -> Frame_ring.push ring ~seq:3 ~silent:false (fence 3)));
  Alcotest.(check bool) "try_push raises Closed" true
    (raises_closed (fun () -> Frame_ring.try_push ring ~seq:3 ~silent:false (fence 3)));
  Alcotest.(check bool) "push_stop raises Closed" true (raises_closed (fun () -> Frame_ring.push_stop ring));
  Alcotest.(check bool) "try_push_stop raises Closed" true
    (raises_closed (fun () -> Frame_ring.try_push_stop ring))

let test_frame_close_drains_then_raises () =
  let ring = Frame_ring.create ~slots:4 ~frame_events:2 () in
  for i = 1 to 5 do
    ignore (Frame_ring.push ring ~seq:i ~silent:false (fence i))
  done;
  (* Events 1-4 are published in two frames; event 5 is only staged. *)
  Frame_ring.close ring;
  let seqs = ref [] in
  let f ~seq ~silent:_ _ = seqs := seq :: !seqs in
  Alcotest.(check bool) "first frame" true (Frame_ring.consume ring ~f = `Frame 2);
  Alcotest.(check bool) "second frame" true (Frame_ring.consume ring ~f = `Frame 2);
  Alcotest.(check (list int)) "published events survive the close" [ 1; 2; 3; 4 ] (List.rev !seqs);
  Alcotest.(check bool) "try_consume on a drained closed ring" true (Frame_ring.try_consume ring ~f = `Empty);
  Alcotest.(check bool) "consume raises Closed once drained" true (raises_closed (fun () -> Frame_ring.consume ring ~f))

(* A producer blocked on a full ring must be woken by close — a dead
   consumer can never wedge the daemon's dispatch domain. *)
let test_frame_close_wakes_blocked_producer () =
  let ring = Frame_ring.create ~slots:2 ~frame_events:1 () in
  let producer =
    Domain.spawn (fun () ->
        raises_closed (fun () ->
            for i = 1 to 5 do
              ignore (Frame_ring.push ring ~seq:i ~silent:false (fence i))
            done))
  in
  (* Let the producer fill the ring and block on the third push. *)
  Unix.sleepf 0.05;
  Frame_ring.close ring;
  Alcotest.(check bool) "blocked producer observed Closed" true (Domain.join producer);
  let seqs = ref [] in
  let f ~seq ~silent:_ _ = seqs := seq :: !seqs in
  ignore (Frame_ring.consume ring ~f);
  ignore (Frame_ring.consume ring ~f);
  Alcotest.(check (list int)) "published frames survive" [ 1; 2 ] (List.rev !seqs)

let test_frame_close_wakes_blocked_consumer () =
  let ring = Frame_ring.create ~slots:2 ~frame_events:4 () in
  let consumer = Domain.spawn (fun () -> raises_closed (fun () -> Frame_ring.wait ring)) in
  Unix.sleepf 0.05;
  Frame_ring.close ring;
  Alcotest.(check bool) "blocked consumer observed Closed" true (Domain.join consumer)

(* ---------------------------------------------------------------- *)
(* Engine.finish_all survives a raising finish                       *)
(* ---------------------------------------------------------------- *)

let test_finish_all_survives_raising_finish () =
  let metrics = Obs.Metrics.create () in
  let e = Engine.create ~metrics () in
  let ok name = Sink.make ~name ~on_event:(fun _ -> ()) ~finish:(fun () -> Bug.empty_report name) in
  let bad = Sink.make ~name:"bad" ~on_event:(fun _ -> ()) ~finish:(fun () -> failwith "boom at finish") in
  Engine.attach e (ok "left");
  Engine.attach e bad;
  Engine.attach e (ok "right");
  Engine.register_pmem e ~base:0 ~size:4096;
  Engine.program_end e;
  let reports = Engine.finish_all e in
  Alcotest.(check int) "one report per sink" 3 (List.length reports);
  Alcotest.(check (list string)) "attach order preserved" [ "left"; "bad"; "right" ]
    (List.map (fun r -> r.Bug.detector) reports);
  let mid = List.nth reports 1 in
  Alcotest.(check bool) "raising finish recorded as failure" true
    (match mid.Bug.failure with Some msg -> String.length msg > 0 | None -> false);
  Alcotest.(check bool) "siblings unharmed" true
    ((List.nth reports 0).Bug.failure = None && (List.nth reports 2).Bug.failure = None);
  Alcotest.(check int) "exactly one quarantine" 1 (List.length (Engine.quarantined e));
  let snap = Obs.Metrics.snapshot metrics in
  Alcotest.(check int) "quarantine counter" 1
    (Obs.Metrics.counter_value snap ~labels:[ ("sink", "bad") ] "engine_sinks_quarantined_total")

(* ---------------------------------------------------------------- *)
(* Status: the shared exit-code table                                 *)
(* ---------------------------------------------------------------- *)

let test_status_exit_codes () =
  let module S = Serve.Status in
  List.iter
    (fun (st, code) -> Alcotest.(check int) (S.name st) code (S.exit_code st))
    [
      (S.Ok, 0);
      (S.Trace_error, 2);
      (S.Protocol_error, 2);
      (S.Detector_error, 3);
      (S.Evicted, 4);
      (S.Timeout, 5);
      (S.Shutdown, 6);
    ];
  List.iter
    (fun st ->
      Alcotest.(check bool) ("of_name round-trip " ^ S.name st) true (S.of_name (S.name st) = Some st))
    S.all;
  Alcotest.(check bool) "unknown name" true (S.of_name "nope" = None)

(* ---------------------------------------------------------------- *)
(* Wire protocol                                                     *)
(* ---------------------------------------------------------------- *)

let test_wire_parse_hello () =
  let module W = Serve.Wire in
  (match W.parse_hello "pmdb-serve/1 session tx.log-01" with
  | Ok (W.Session { name; lenient }) ->
      Alcotest.(check string) "name" "tx.log-01" name;
      Alcotest.(check bool) "strict by default" false lenient
  | _ -> Alcotest.fail "session hello rejected");
  (match W.parse_hello "pmdb-serve/1 session s lenient" with
  | Ok (W.Session { lenient; _ }) -> Alcotest.(check bool) "lenient flag" true lenient
  | _ -> Alcotest.fail "lenient hello rejected");
  Alcotest.(check bool) "stats verb" true (W.parse_hello "pmdb-serve/1 stats" = Ok W.Stats);
  Alcotest.(check bool) "stats_stream verb" true
    (W.parse_hello "pmdb-serve/1 stats_stream" = Ok (W.Stats_stream { frames = 0 }));
  Alcotest.(check bool) "bounded stats_stream" true
    (W.parse_hello "pmdb-serve/1 stats_stream 5" = Ok (W.Stats_stream { frames = 5 }));
  Alcotest.(check bool) "stop verb" true (W.parse_hello "pmdb-serve/1 stop" = Ok W.Stop);
  let rejected s = match W.parse_hello s with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "zero-frame stats_stream" true (rejected "pmdb-serve/1 stats_stream 0");
  Alcotest.(check bool) "negative stats_stream" true (rejected "pmdb-serve/1 stats_stream -3");
  Alcotest.(check bool) "non-numeric stats_stream" true (rejected "pmdb-serve/1 stats_stream many");
  Alcotest.(check bool) "bad magic" true (rejected "pmdb-serve/2 session s");
  Alcotest.(check bool) "bad verb" true (rejected "pmdb-serve/1 sessions s");
  Alcotest.(check bool) "empty name" true (rejected "pmdb-serve/1 session ");
  Alcotest.(check bool) "bad name chars" true (rejected "pmdb-serve/1 session a/b");
  Alcotest.(check bool) "name too long" true
    (rejected ("pmdb-serve/1 session " ^ String.make 65 'a'));
  Alcotest.(check bool) "empty line" true (rejected "");
  (* hello_line and parse_hello must agree. *)
  List.iter
    (fun h -> Alcotest.(check bool) "hello_line round-trip" true (W.parse_hello (W.hello_line h) = Ok h))
    [
      W.Session { name = "w1"; lenient = false };
      W.Session { name = "w1"; lenient = true };
      W.Stats;
      W.Stats_stream { frames = 0 };
      W.Stats_stream { frames = 3 };
      W.Stop;
    ]

let test_wire_malformed_json () =
  let module W = Serve.Wire in
  let bad s = match W.result_of_line s with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "not json" true (bad "not json at all");
  Alcotest.(check bool) "wrong schema" true (bad {|{"schema":"other/v1","status":"ok"}|});
  Alcotest.(check bool) "bad status" true (bad {|{"schema":"pmdb-serve/v1","status":"weird"}|})

let prop_wire_result_roundtrip =
  let module W = Serve.Wire in
  let frame_gen =
    QCheck.Gen.(
      let cause_gen =
        let* seq = int_range 1 10_000 in
        let* addr = int_range 0 65536 in
        let* size = int_range 1 64 in
        let* cls = oneofl [ "store"; "clf"; "fence"; "program_end" ] in
        let* note = oneofl [ "never flushed"; "crossed fence unpersisted"; ""; "re-covered" ] in
        return (Bug.cause ~addr ~size ~note ~cls seq)
      in
      let bug_gen =
        let* kind = oneofl Bug.all_kinds in
        let* addr = int_range 0 65536 in
        let* size = int_range 1 256 in
        let* seq = int_range 1 10_000 in
        let* detail = oneofl [ "store at 0x100"; "flushed twice"; ""; "a b c" ] in
        let* chain = list_size (int_range 0 4) cause_gen in
        return (Bug.make ~addr ~size ~seq ~detail ~chain kind)
      in
      let report_gen =
        let* bugs = list_size (int_range 0 5) bug_gen in
        let* events_processed = int_range 0 100_000 in
        let* failure = oneofl [ None; Some "detector raised: boom"; Some "" ] in
        let* stats = oneofl [ []; [ ("tree_size", 12.0) ]; [ ("a", 0.5); ("b", 2.25) ] ] in
        return { Bug.detector = "pmdebugger"; bugs; events_processed; stats; failure }
      in
      let* status = oneofl Serve.Status.all in
      let* events = int_range 0 100_000 in
      let* skipped = int_range 0 50 in
      let* synthesized_end = bool in
      let* error = oneofl [ None; Some "line 3: cannot parse event \"zap\""; Some "evicted" ] in
      let* report = oneof [ return None; map Option.some report_gen ] in
      return
        {
          W.status;
          events;
          skipped;
          synthesized_end;
          error;
          report;
        })
  in
  QCheck.Test.make ~name:"result frame JSON line roundtrip" ~count:300 (QCheck.make frame_gen) (fun f ->
      let line = Serve.Wire.result_to_line f in
      (* single line: the framing invariant *)
      (not (String.contains line '\n'))
      &&
      match Serve.Wire.result_of_line line with
      | Ok f' -> Serve.Wire.result_to_line f' = line
      | Error _ -> false)

(* ---------------------------------------------------------------- *)
(* Session: socket-free ingest state machine                          *)
(* ---------------------------------------------------------------- *)

let feed_string ?(chunk = max_int) s text =
  let b = Bytes.of_string text in
  let n = Bytes.length b in
  let rec go off acc =
    if off >= n then acc
    else
      let len = min chunk (n - off) in
      match Serve.Session.feed s ~now:0.0 b ~off ~len with
      | Ok () -> go (off + len) acc
      | Error e -> Error e
  in
  go 0 (Ok ())

let drain_events s =
  let rec go acc = match Serve.Session.pop_pending s with None -> List.rev acc | Some ev -> go (ev :: acc) in
  go []

let mk_session ?(lenient = false) () = Serve.Session.create ~id:0 ~name:"s" ~lenient ~now:0.0

let memcached_trace n =
  Recorder.record (fun e -> Workloads.Memcached.spec.Workloads.Workload.run (Workloads.Workload.params ~n ()) e)

let test_session_chunk_boundaries_invisible () =
  let text = "register_pmem 0 4096\nstore 1 0 8\nclf clwb 1 0 8\nfence 1\nprogram_end\n" in
  let whole = mk_session () in
  Alcotest.(check bool) "whole feed ok" true (feed_string whole text = Ok ());
  let bytewise = mk_session () in
  Alcotest.(check bool) "bytewise feed ok" true (feed_string ~chunk:1 bytewise text = Ok ());
  let evs_whole = drain_events whole and evs_byte = drain_events bytewise in
  Alcotest.(check int) "same event count" (List.length evs_whole) (List.length evs_byte);
  Alcotest.(check bool) "same events" true (evs_whole = evs_byte);
  Alcotest.(check int) "same bytes_read" (Serve.Session.bytes_read whole) (Serve.Session.bytes_read bytewise);
  (* A real ~10 KB trace body, unterminated last line included, at
     chunk sizes that split it everywhere: every size parses event for
     event like the offline parser, with the same byte accounting. *)
  let body = Trace_io.to_string (memcached_trace 300) in
  let body = String.sub body 0 (String.length body - 1) in
  let lines = List.length (String.split_on_char '\n' body) in
  if lines < 200 || lines > 1000 then Alcotest.failf "memcached body has %d lines" lines;
  let expected = match Trace_io.of_string body with Ok t -> Array.to_list t | Error e -> Alcotest.fail e in
  List.iter
    (fun chunk ->
      let s = mk_session () in
      Alcotest.(check bool) (Printf.sprintf "chunk %d feed ok" chunk) true (feed_string ~chunk s body = Ok ());
      Alcotest.(check int) (Printf.sprintf "chunk %d bytes_read" chunk) (String.length body)
        (Serve.Session.bytes_read s);
      let tail = String.length body - 1 - String.rindex body '\n' in
      Alcotest.(check bool) (Printf.sprintf "chunk %d holds the unterminated line" chunk) true
        (Serve.Session.live_bytes s >= tail);
      Alcotest.(check bool) (Printf.sprintf "chunk %d flush" chunk) true (Serve.Session.flush_partial s = Ok ());
      let evs = drain_events s in
      Alcotest.(check int) (Printf.sprintf "chunk %d event count" chunk) (List.length expected) (List.length evs);
      List.iteri
        (fun i (a, b) ->
          if a <> b then
            Alcotest.failf "chunk %d event %d: %s <> %s" chunk i (Trace_io.event_to_line a) (Trace_io.event_to_line b))
        (List.combine expected evs);
      Alcotest.(check int) (Printf.sprintf "chunk %d drained" chunk) 0 (Serve.Session.live_bytes s))
    [ 1; 7; 4096 ];
  (* A strict session stops at the first bad line whatever the chunking:
     same message, same events before it, nothing after it. *)
  let bad = String.concat "\n" [ "store 1 0 8"; "fence 1"; "zap!"; "store 1 64 8"; "" ] in
  List.iter
    (fun chunk ->
      let s = mk_session () in
      Alcotest.(check (result unit string))
        (Printf.sprintf "chunk %d strict stop" chunk)
        (Error "line 3: cannot parse event \"zap!\"")
        (feed_string ~chunk s bad);
      Alcotest.(check int) (Printf.sprintf "chunk %d events before the bad line" chunk) 2
        (Serve.Session.pending_events s))
    [ 1; 7; 4096 ]

let test_session_strict_error_position () =
  let s = mk_session () in
  match feed_string s "store 1 0 8\nzap!\n" with
  | Ok () -> Alcotest.fail "strict session accepted garbage"
  | Error msg ->
      Alcotest.(check bool) "line number in error" true
        (String.length msg >= 7 && String.sub msg 0 7 = "line 2:");
      Alcotest.(check bool) "status is trace-error" true (Serve.Session.status s = Serve.Status.Trace_error)

let test_session_lenient_skips () =
  let s = mk_session ~lenient:true () in
  Alcotest.(check bool) "lenient feed ok" true
    (feed_string s "store 1 0 8\nzap!\nfence 1\nalso bad\nprogram_end\n" = Ok ());
  Alcotest.(check int) "skipped" 2 (Serve.Session.skipped s);
  Alcotest.(check int) "parsed" 3 (Serve.Session.pending_events s)

let test_session_ensure_end () =
  (* Truncated stream: the final unterminated line still parses at
     flush, and a program_end is synthesized. *)
  let s = mk_session () in
  Alcotest.(check bool) "feed" true (feed_string s "store 1 0 8\nfence 1" = Ok ());
  Alcotest.(check bool) "flush_partial" true (Serve.Session.flush_partial s = Ok ());
  Serve.Session.ensure_end s;
  Alcotest.(check bool) "synthesized" true (Serve.Session.synthesized_end s);
  (match List.rev (drain_events s) with
  | Event.Program_end :: Event.Fence _ :: _ -> ()
  | _ -> Alcotest.fail "expected fence then synthesized program_end");
  (* A stream that carried its own program_end gets nothing added. *)
  let s2 = mk_session () in
  Alcotest.(check bool) "feed" true (feed_string s2 "store 1 0 8\nprogram_end\n" = Ok ());
  Serve.Session.ensure_end s2;
  Alcotest.(check bool) "not synthesized" false (Serve.Session.synthesized_end s2);
  Alcotest.(check int) "no extra event" 2 (Serve.Session.pending_events s2)

let test_session_live_bytes_accounting () =
  let s = mk_session () in
  Alcotest.(check int) "fresh session holds nothing" 0 (Serve.Session.live_bytes s);
  Alcotest.(check bool) "feed" true (feed_string s "store 1 0 8\nstore 1 8 8\npartial-line-without-newl" = Ok ());
  let before = Serve.Session.live_bytes s in
  Alcotest.(check bool) "queued events + partial line cost bytes" true (before > 0);
  ignore (Serve.Session.pop_pending s);
  Alcotest.(check bool) "pop releases bytes" true (Serve.Session.live_bytes s < before);
  Serve.Session.drop_pending s;
  Alcotest.(check int) "drop releases everything" 0 (Serve.Session.live_bytes s)

let test_session_terminate_first_wins () =
  let s = mk_session () in
  Serve.Session.terminate s Serve.Status.Trace_error (Some "line 1: bad");
  Serve.Session.terminate s Serve.Status.Shutdown None;
  Alcotest.(check bool) "first terminal status wins" true
    (Serve.Session.status s = Serve.Status.Trace_error);
  Alcotest.(check bool) "error preserved" true (Serve.Session.error s = Some "line 1: bad")

(* ---------------------------------------------------------------- *)
(* Pool, inline mode                                                  *)
(* ---------------------------------------------------------------- *)

let bug_trace_events =
  [
    Event.Register_pmem { base = 0; size = 4096 };
    Event.Store { addr = 0; size = 8; tid = 1 };
    Event.Store { addr = 0; size = 8; tid = 1 };
    Event.Clf { addr = 0; size = 8; kind = Event.Clwb; tid = 1 };
    Event.Fence { tid = 1 };
    Event.Store { addr = 64; size = 8; tid = 1 };
    Event.Program_end;
  ]

(* Inline mode consumes every published frame synchronously, so the
   ring never fills and every non-blocking offer succeeds. *)
let submit pool slot ev = Alcotest.(check bool) "inline ring never full" true (Serve.Pool.try_submit pool slot ev)

let test_pool_inline_roundtrip () =
  let pool =
    Serve.Pool.create ~domains:false ~wake:ignore ~workers:2 (fun ~heatmap:_ ->
        D.sink (D.create ~model:D.Strict ()))
  in
  let slot = Serve.Pool.open_session pool ~id:3 in
  List.iter (submit pool slot) bug_trace_events;
  Alcotest.(check int) "staged events count as queued" (List.length bug_trace_events)
    (Serve.Pool.queue_length slot);
  Serve.Pool.flush pool slot;
  Alcotest.(check int) "a flush hands everything to the worker" 0 (Serve.Pool.queue_length slot);
  Alcotest.(check bool) "no result before the end-of-stream frame" true (Serve.Pool.result slot = None);
  Alcotest.(check bool) "finish accepted" true (Serve.Pool.try_finish pool slot);
  (match Serve.Pool.result slot with
  | None -> Alcotest.fail "inline pool produced no report"
  | Some report ->
      Alcotest.(check bool) "found the planted bugs" true (List.length report.Bug.bugs >= 2);
      Alcotest.(check bool) "no failure" true (report.Bug.failure = None));
  Alcotest.(check bool) "no recording without ~flightrec" true
    (List.for_all (fun (_, r) -> not (Obs.Flightrec.is_on r)) (Serve.Pool.flightrec_rings pool));
  Serve.Pool.stop pool

let test_pool_inline_detector_failure () =
  let boom = Sink.make ~name:"boom" ~on_event:(fun _ -> failwith "detector exploded") ~finish:(fun () -> Bug.empty_report "boom") in
  let wakes = ref 0 in
  let pool = Serve.Pool.create ~domains:false ~wake:(fun () -> incr wakes) ~workers:1 (fun ~heatmap:_ -> boom) in
  let slot = Serve.Pool.open_session pool ~id:0 in
  submit pool slot (Event.Store { addr = 0; size = 8; tid = 0 });
  Serve.Pool.flush pool slot;
  Alcotest.(check bool) "failure surfaces in the slot" true (Serve.Pool.failed slot <> None);
  Alcotest.(check int) "the failure woke the dispatcher" 1 !wakes;
  Alcotest.(check bool) "finish accepted" true (Serve.Pool.try_finish pool slot);
  Alcotest.(check int) "the result woke the dispatcher" 2 !wakes;
  (match Serve.Pool.result slot with
  | Some report -> Alcotest.(check bool) "report carries the failure" true (report.Bug.failure <> None)
  | None -> Alcotest.fail "no report after finish");
  Serve.Pool.stop pool

(* ---------------------------------------------------------------- *)
(* The fault-tolerance gate: 8 concurrent clients over a real socket, *)
(* 2 of them misbehaving; 6 healthy reports byte-identical to the      *)
(* offline replay; the daemon stays up and answers stats.              *)
(* ---------------------------------------------------------------- *)

let temp_socket () =
  let path = Filename.temp_file "pmdb-serve-test" ".sock" in
  Sys.remove path;
  path

let trace_body =
  String.concat "\n"
    [
      "register_pmem 0 4096";
      "store 1 0 8";
      "store 1 0 8";
      "clf clwb 1 0 8";
      "fence 1";
      "store 1 64 8";
      "program_end";
    ]
  ^ "\n"

let offline_report body =
  match Trace_io.of_string body with
  | Error e -> Alcotest.fail ("offline parse failed: " ^ e)
  | Ok trace -> Recorder.replay trace (D.sink (D.create ~model:D.Strict ()))

let start_daemon ?(idle_timeout = 0.5) ?(workers = 2) ?(stream_interval = 1.0) ?session_budget ~metrics socket =
  let cfg = { (Serve.Daemon.default_config ~socket) with Serve.Daemon.workers; idle_timeout; stream_interval } in
  let cfg = match session_budget with Some b -> { cfg with Serve.Daemon.session_budget = b } | None -> cfg in
  let daemon =
    Serve.Daemon.create ~metrics ~make_sink:(fun ~heatmap -> D.sink (D.create ~model:D.Strict ~heatmap ())) cfg
  in
  let d = Domain.spawn (fun () -> Serve.Daemon.run daemon) in
  (* Wait for the listener to come up. *)
  let rec wait tries =
    if tries = 0 then Alcotest.fail "daemon never bound its socket"
    else if Sys.file_exists socket then ()
    else (
      Unix.sleepf 0.02;
      wait (tries - 1))
  in
  wait 250;
  d

let test_gate_eight_clients_two_misbehaving () =
  let socket = temp_socket () in
  let metrics = Obs.Metrics.create () in
  let handle = start_daemon ~metrics socket in
  let expected = canon (offline_report trace_body) in
  let healthy =
    List.init 6 (fun i ->
        Domain.spawn (fun () ->
            Serve.Client.replay_string ~socket ~name:(Printf.sprintf "healthy-%d" i) trace_body))
  in
  let garbage = Domain.spawn (fun () -> Serve.Client.probe ~socket ~name:"bad-garbage" Serve.Client.Garbage) in
  let hang = Domain.spawn (fun () -> Serve.Client.probe ~socket ~name:"bad-hang" Serve.Client.Hang) in
  List.iteri
    (fun i d ->
      match Domain.join d with
      | Error e -> Alcotest.fail (Printf.sprintf "healthy client %d: %s" i e)
      | Ok frame ->
          Alcotest.(check bool)
            (Printf.sprintf "healthy client %d status ok" i)
            true
            (frame.Serve.Wire.status = Serve.Status.Ok);
          (match frame.Serve.Wire.report with
          | None -> Alcotest.fail (Printf.sprintf "healthy client %d got no report" i)
          | Some r ->
              Alcotest.(check string)
                (Printf.sprintf "healthy client %d byte-identical to offline replay" i)
                expected (canon r)))
    healthy;
  (match Domain.join garbage with
  | Error e -> Alcotest.fail ("garbage probe: " ^ e)
  | Ok frame ->
      Alcotest.(check bool) "garbage session quarantined as trace-error" true
        (frame.Serve.Wire.status = Serve.Status.Trace_error);
      Alcotest.(check bool) "structured parse error" true
        (match frame.Serve.Wire.error with Some e -> String.length e > 0 | None -> false));
  (match Domain.join hang with
  | Error e -> Alcotest.fail ("hang probe: " ^ e)
  | Ok frame ->
      Alcotest.(check bool) "hung session reaped as timeout" true
        (frame.Serve.Wire.status = Serve.Status.Timeout));
  (* The daemon survived and its books balance. *)
  (match Serve.Client.stats ~socket with
  | Error e -> Alcotest.fail ("stats after the storm: " ^ e)
  | Ok snap ->
      let c ?labels name = Obs.Metrics.counter_value snap ?labels name in
      Alcotest.(check int) "sessions opened" 8 (c "serve_sessions_opened_total");
      Alcotest.(check int) "exactly one trace quarantine" 1
        (c ~labels:[ ("reason", "trace") ] "serve_quarantines_total");
      Alcotest.(check int) "exactly one timeout" 1 (c "serve_timeouts_total");
      Alcotest.(check int) "no evictions" 0 (c "serve_evictions_total");
      Alcotest.(check int) "six healthy closes" 6
        (c ~labels:[ ("status", "ok") ] "serve_sessions_closed_total");
      (* Domain-safe telemetry: the stats snapshot is merged across the
         dispatch domain and every worker's published registry — the
         per-domain serve_worker_events_total series must balance the
         events the dispatch side submitted. *)
      let sum name =
        List.fold_left
          (fun acc (s : Obs.Metrics.sample) ->
            match s.Obs.Metrics.value with
            | Obs.Metrics.V_counter n when s.Obs.Metrics.name = name -> acc + n
            | _ -> acc)
          0 snap
      in
      Alcotest.(check bool) "worker series non-zero" true (sum "serve_worker_events_total" > 0);
      Alcotest.(check int) "worker domains account for every submitted event"
        (sum "serve_events_total")
        (sum "serve_worker_events_total"));
  (match Serve.Client.stop ~socket with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("stop: " ^ e));
  Domain.join handle;
  Alcotest.(check bool) "socket unlinked on shutdown" false (Sys.file_exists socket)

(* [synthesized_end] in a result frame means "your trace was
   truncated". An evicted session gets an end appended too, but its
   client sent a complete trace, so its frame must not say so; a trace
   that really stops short at EOF still does. The complete trace spans
   many socket reads, so the eviction lands before its program_end. *)
let test_synthesized_end_only_at_eof () =
  let socket = temp_socket () in
  let metrics = Obs.Metrics.create () in
  let handle = start_daemon ~session_budget:2000 ~metrics socket in
  let complete = String.concat "" (List.init 20_000 (Printf.sprintf "store 1 %d 8\n")) ^ "program_end\n" in
  (match Serve.Client.replay_string ~socket ~name:"over-budget" complete with
  | Error e -> Alcotest.fail e
  | Ok frame ->
      Alcotest.(check string) "evicted" "evicted" (Serve.Status.name frame.Serve.Wire.status);
      Alcotest.(check bool) "evicted frame: no synthesized end" false frame.Serve.Wire.synthesized_end);
  (match Serve.Client.replay_string ~socket ~name:"unterminated" "store 1 0 8\nfence 1" with
  | Error e -> Alcotest.fail e
  | Ok frame ->
      Alcotest.(check string) "ok" "ok" (Serve.Status.name frame.Serve.Wire.status);
      Alcotest.(check bool) "truncated at EOF: synthesized end" true frame.Serve.Wire.synthesized_end);
  (match Serve.Client.stop ~socket with Ok () -> () | Error e -> Alcotest.fail ("stop: " ^ e));
  Domain.join handle

(* A client that half-closes and then closes without reading its
   result: the daemon's reply hits a closed peer. The daemon must drop
   that one connection and keep serving. SIGPIPE is reset first, so
   only the daemon's own handling can keep this process alive. *)
let test_client_closes_before_result () =
  Sys.set_signal Sys.sigpipe Sys.Signal_default;
  let socket = temp_socket () in
  let metrics = Obs.Metrics.create () in
  let handle = start_daemon ~metrics socket in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let msg = Serve.Wire.hello_line (Serve.Wire.Session { name = "early-close"; lenient = false }) ^ "\n" ^ trace_body in
  ignore (Unix.write_substring fd msg 0 (String.length msg));
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  Unix.close fd;
  (match Serve.Client.replay_string ~socket ~name:"after-early-close" trace_body with
  | Error e -> Alcotest.fail ("healthy client after an early close: " ^ e)
  | Ok frame -> (
      match frame.Serve.Wire.report with
      | None -> Alcotest.fail "healthy client got no report"
      | Some r ->
          Alcotest.(check string) "byte-identical to offline replay" (canon (offline_report trace_body)) (canon r)));
  (match Serve.Client.stats ~socket with
  | Error e -> Alcotest.fail ("stats: " ^ e)
  | Ok snap ->
      Alcotest.(check bool) "the unread reply failed as a connection error" true
        (Obs.Metrics.counter_value snap "serve_conn_errors_total" >= 1));
  (match Serve.Client.stop ~socket with Ok () -> () | Error e -> Alcotest.fail ("stop: " ^ e));
  Domain.join handle

(* A strict session whose first line is malformed, with a body far
   larger than the socket buffer: the daemon quarantines the session at
   line 1 and closes while the client is still sending. The client must
   stop sending and read the trace-error reply instead of reporting an
   i/o error. *)
let test_client_reads_reply_after_early_close () =
  let socket = temp_socket () in
  let metrics = Obs.Metrics.create () in
  let handle = start_daemon ~metrics socket in
  let body = "bogus\n" ^ String.concat "" (List.init 300_000 (fun _ -> "store 1 0 8\n")) in
  (match Serve.Client.replay_string ~socket ~name:"bad-first-line" body with
  | Error e -> Alcotest.fail ("client: " ^ e)
  | Ok frame ->
      Alcotest.(check string) "trace-error status" "trace-error" (Serve.Status.name frame.Serve.Wire.status);
      Alcotest.(check (option string)) "the offline diagnostic" (Some "line 1: cannot parse event \"bogus\"")
        frame.Serve.Wire.error);
  (match Serve.Client.stop ~socket with Ok () -> () | Error e -> Alcotest.fail ("stop: " ^ e));
  Domain.join handle

let temp_dir () =
  let d = Filename.temp_file "pmdb-trace" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

(* A session whose detector raises mid-stream is quarantined with a
   detector-error frame; its sibling on the same daemon is unharmed and
   byte-identical to an offline replay, with the flight recorder on
   (the daemon records only when it has a dump directory). The dump
   directory must then hold exactly two black-box dumps: the
   quarantine, naming the failing session, and the shutdown. *)
let test_gate_detector_quarantine_isolated () =
  let socket = temp_socket () in
  let tracedir = temp_dir () in
  let metrics = Obs.Metrics.create () in
  let calls = Atomic.make 0 in
  let cfg =
    {
      (Serve.Daemon.default_config ~socket) with
      Serve.Daemon.workers = 2;
      idle_timeout = 5.0;
      trace_out = Some tracedir;
    }
  in
  (* Session ids are assigned in accept order starting at 1; worker =
     id mod workers keeps both sessions apart, and the first session
     created on the daemon gets the exploding sink. *)
  let make_sink ~heatmap:_ =
    if Atomic.fetch_and_add calls 1 = 0 then
      Sink.make ~name:"boom"
        ~on_event:(fun ev -> match ev with Event.Fence _ -> failwith "boom mid-stream" | _ -> ())
        ~finish:(fun () -> Bug.empty_report "boom")
    else D.sink (D.create ~model:D.Strict ())
  in
  let daemon = Serve.Daemon.create ~metrics ~make_sink cfg in
  let handle = Domain.spawn (fun () -> Serve.Daemon.run daemon) in
  let rec wait tries =
    if tries = 0 then Alcotest.fail "daemon never bound its socket"
    else if Sys.file_exists socket then ()
    else (
      Unix.sleepf 0.02;
      wait (tries - 1))
  in
  wait 250;
  let first = Serve.Client.replay_string ~socket ~name:"doomed" trace_body in
  (match first with
  | Error e -> Alcotest.fail ("doomed client: " ^ e)
  | Ok frame ->
      Alcotest.(check bool) "detector failure becomes detector-error" true
        (frame.Serve.Wire.status = Serve.Status.Detector_error));
  (match Serve.Client.replay_string ~socket ~name:"bystander" trace_body with
  | Error e -> Alcotest.fail ("bystander client: " ^ e)
  | Ok frame -> (
      Alcotest.(check bool) "sibling session unaffected" true (frame.Serve.Wire.status = Serve.Status.Ok);
      match frame.Serve.Wire.report with
      | None -> Alcotest.fail "bystander got no report"
      | Some r ->
          Alcotest.(check string) "bystander byte-identical to offline replay while recording"
            (canon (offline_report trace_body)) (canon r)));
  (match Serve.Client.stop ~socket with Ok () -> () | Error e -> Alcotest.fail ("stop: " ^ e));
  Domain.join handle;
  Alcotest.(check (list string)) "one dump per dump event, nothing else"
    [ "trace-daemon-shutdown-1.perfetto.json"; "trace-doomed-detector-quarantine-0.perfetto.json" ]
    (List.sort compare (Array.to_list (Sys.readdir tracedir)));
  let check_dump file ~session ~reason =
    match Obs.Json.of_file (Filename.concat tracedir file) with
    | Error e -> Alcotest.fail (file ^ " unreadable: " ^ e)
    | Ok doc ->
        (match Obs.Perfetto.validate_json doc with
        | Error e -> Alcotest.fail (file ^ " malformed: " ^ e)
        | Ok n -> Alcotest.(check bool) (file ^ " non-empty") true (n > 0));
        let meta field =
          Option.bind (Obs.Json.member "metadata" doc) (fun m -> Option.bind (Obs.Json.member field m) Obs.Json.to_str)
        in
        Alcotest.(check (option string)) (file ^ " names the session") (Some session) (meta "session");
        Alcotest.(check (option string)) (file ^ " carries the reason") (Some reason) (meta "reason")
  in
  check_dump "trace-doomed-detector-quarantine-0.perfetto.json" ~session:"doomed" ~reason:"detector-quarantine";
  check_dump "trace-daemon-shutdown-1.perfetto.json" ~session:"daemon" ~reason:"shutdown"

(* ---------------------------------------------------------------- *)
(* stats_stream: live merged-snapshot frames                          *)
(* ---------------------------------------------------------------- *)

(* ---------------------------------------------------------------- *)
(* Wake-ups: neither a full ring nor a finished report waits for the  *)
(* select tick.                                                        *)
(* ---------------------------------------------------------------- *)

let wait_until ~what cond =
  let deadline = Unix.gettimeofday () +. 5.0 in
  while not (cond ()) do
    if Unix.gettimeofday () > deadline then Alcotest.failf "timed out waiting for %s" what;
    Unix.sleepf 0.0005
  done

(* A worker domain held on its first event lets the dispatch side fill
   the session's ring; releasing it must produce a wake-up once the
   ring has drained, and every later stall likewise ends with a wake. *)
let test_pool_wakes_on_drain () =
  let trace = memcached_trace 1000 in
  let gate = Atomic.make false in
  let woken = Atomic.make 0 in
  let pool =
    Serve.Pool.create ~wake:(fun () -> Atomic.incr woken) ~workers:1 (fun ~heatmap:_ ->
        let inner = D.sink (D.create ~model:D.Strict ()) in
        Sink.make ~name:inner.Sink.name
          ~on_event:(fun ev ->
            while not (Atomic.get gate) do
              Domain.cpu_relax ()
            done;
            inner.Sink.on_event ev)
          ~finish:inner.Sink.finish)
  in
  let slot = Serve.Pool.open_session pool ~id:0 in
  let stalls = ref 0 in
  let offer attempt =
    let seen = Atomic.get woken in
    if not (attempt ()) then begin
      incr stalls;
      Atomic.set gate true;
      wait_until ~what:"the drain wake-up" (fun () -> Atomic.get woken > seen);
      false
    end
    else true
  in
  Array.iter
    (fun ev ->
      while not (offer (fun () -> Serve.Pool.try_submit pool slot ev)) do
        ()
      done)
    trace;
  Serve.Pool.flush pool slot;
  while not (offer (fun () -> Serve.Pool.try_finish pool slot)) do
    ()
  done;
  wait_until ~what:"the result" (fun () -> Serve.Pool.result slot <> None);
  Alcotest.(check bool) "the held worker made the ring fill" true (!stalls > 0);
  (match Serve.Pool.result slot with
  | Some r ->
      Alcotest.(check string) "report equals offline replay"
        (canon (Recorder.replay trace (D.sink (D.create ~model:D.Strict ()))))
        (canon r)
  | None -> Alcotest.fail "no result");
  Serve.Pool.stop pool

(* With a 5 s tick, a session that fills its ring ~20 times and a short
   one that only waits for its report both return well under one tick:
   every hand-over and the result are driven by worker wake-ups. The
   wake bytes share the self-pipe with stop requests and must never
   read as one — the daemon keeps serving afterwards. *)
let test_daemon_wakes_not_ticks () =
  let socket = temp_socket () in
  let cfg = { (Serve.Daemon.default_config ~socket) with Serve.Daemon.workers = 1; tick = 5.0 } in
  let daemon =
    Serve.Daemon.create ~metrics:(Obs.Metrics.create ())
      ~make_sink:(fun ~heatmap:_ -> D.sink (D.create ~model:D.Strict ()))
      cfg
  in
  let handle = Domain.spawn (fun () -> Serve.Daemon.run daemon) in
  wait_until ~what:"the daemon socket" (fun () -> Sys.file_exists socket);
  let session name trace =
    let expected = canon (Recorder.replay trace (D.sink (D.create ~model:D.Strict ()))) in
    let t0 = Unix.gettimeofday () in
    let r = Serve.Client.replay_string ~socket ~name (Trace_io.to_string trace) in
    let dt = Unix.gettimeofday () -. t0 in
    (match r with
    | Error e -> Alcotest.failf "%s: %s" name e
    | Ok frame -> (
        Alcotest.(check bool) (name ^ " status ok") true (frame.Serve.Wire.status = Serve.Status.Ok);
        match frame.Serve.Wire.report with
        | Some r -> Alcotest.(check string) (name ^ " equals offline replay") expected (canon r)
        | None -> Alcotest.failf "%s: no report" name));
    if dt >= 1.0 then Alcotest.failf "%s (%d events) took %.2fs with a 5s tick" name (Array.length trace) dt
  in
  let long = memcached_trace 9000 in
  Alcotest.(check bool) "long session has at least 20k events" true (Array.length long >= 20_000);
  session "long" long;
  let short = memcached_trace 130 in
  session "short" short;
  (match Serve.Client.stats ~socket with
  | Ok snap ->
      Alcotest.(check int) "daemon still serving after the wake bytes" 2
        (Obs.Metrics.counter_value snap ~labels:[ ("status", "ok") ] "serve_sessions_closed_total")
  | Error e -> Alcotest.fail ("stats after the wake-ups: " ^ e));
  (match Serve.Client.stop ~socket with Ok () -> () | Error e -> Alcotest.fail ("stop: " ^ e));
  Domain.join handle

let test_stats_stream_follow () =
  let socket = temp_socket () in
  let metrics = Obs.Metrics.create () in
  let handle = start_daemon ~idle_timeout:5.0 ~stream_interval:0.05 ~metrics socket in
  (* Put a session through first so frames carry real counters. *)
  (match Serve.Client.replay_string ~socket ~name:"warm" trace_body with
  | Error e -> Alcotest.fail ("warm session: " ^ e)
  | Ok frame ->
      Alcotest.(check bool) "warm session ok" true (frame.Serve.Wire.status = Serve.Status.Ok));
  let frames = ref [] in
  (match
     Serve.Client.stats_follow ~socket ~frames:3
       ~on_frame:(fun snap ->
         frames := snap :: !frames;
         true)
       ()
   with
  | Error e -> Alcotest.fail ("stats_follow: " ^ e)
  | Ok n -> Alcotest.(check int) "stream closed after the requested frames" 3 n);
  Alcotest.(check int) "every frame delivered to on_frame" 3 (List.length !frames);
  List.iter
    (fun snap ->
      Alcotest.(check int) "frame sees the warm session" 1
        (Obs.Metrics.counter_value snap "serve_sessions_opened_total");
      Alcotest.(check bool) "frame is merged: worker series present" true
        (List.exists
           (fun (s : Obs.Metrics.sample) -> s.Obs.Metrics.name = "serve_worker_events_total")
           snap))
    !frames;
  (* The raw wire view: a bounded stream is exactly N newline-framed
     snapshot documents, each independently parseable. *)
  (match Serve.Client.raw ~socket "pmdb-serve/1 stats_stream 2\n" with
  | Error e -> Alcotest.fail ("raw stats_stream: " ^ e)
  | Ok reply ->
      let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' reply) in
      Alcotest.(check int) "two frames on the wire" 2 (List.length lines);
      List.iter
        (fun line ->
          match Obs.Json.of_string line with
          | Error e -> Alcotest.fail ("frame is not JSON: " ^ e)
          | Ok json -> (
              match Obs.Metrics.snapshot_of_json json with
              | Error e -> Alcotest.fail ("frame is not a snapshot: " ^ e)
              | Ok _ -> ()))
        lines);
  (match Serve.Client.stop ~socket with Ok () -> () | Error e -> Alcotest.fail ("stop: " ^ e));
  Domain.join handle

(* The observability verbs end to end: a daemon with the heatmap on
   serves the merged hot-line table over the wire and observes session
   end-to-end latency. *)
let test_heatmap_verb_and_e2e_latency () =
  let socket = temp_socket () in
  let metrics = Obs.Metrics.create () in
  let cfg =
    { (Serve.Daemon.default_config ~socket) with Serve.Daemon.workers = 2; idle_timeout = 5.0; heatmap_cap = 64 }
  in
  let daemon =
    Serve.Daemon.create ~metrics ~make_sink:(fun ~heatmap -> D.sink (D.create ~model:D.Strict ~heatmap ())) cfg
  in
  let handle = Domain.spawn (fun () -> Serve.Daemon.run daemon) in
  let rec wait tries =
    if tries = 0 then Alcotest.fail "daemon never bound its socket"
    else if Sys.file_exists socket then ()
    else (
      Unix.sleepf 0.02;
      wait (tries - 1))
  in
  wait 250;
  (match Serve.Client.replay_string ~socket ~name:"hot" trace_body with
  | Error e -> Alcotest.fail ("session: " ^ e)
  | Ok frame -> Alcotest.(check bool) "session ok" true (frame.Serve.Wire.status = Serve.Status.Ok));
  (* The heatmap verb returns the merged per-worker tables: trace_body
     touches lines 0 and 1, stores dominating line 0. *)
  (match Serve.Client.heatmap ~socket with
  | Error e -> Alcotest.fail ("heatmap verb: " ^ e)
  | Ok snap ->
      Alcotest.(check int) "both touched lines tracked" 2 snap.Obs.Heatmap.s_tracked;
      let r0 = List.find (fun r -> r.Obs.Heatmap.r_line = 0) snap.Obs.Heatmap.s_rows in
      Alcotest.(check int) "line 0 stores" 2 r0.Obs.Heatmap.r_stores;
      Alcotest.(check int) "line 0 clfs" 1 r0.Obs.Heatmap.r_clfs);
  (* Stage attribution reaches the daemon's registry: the session's
     end-to-end histogram observed exactly one session. *)
  (match Serve.Client.stats ~socket with
  | Error e -> Alcotest.fail ("stats: " ^ e)
  | Ok snap -> (
      match Obs.Metrics.find snap "serve_session_e2e_seconds" with
      | Some (Obs.Metrics.V_hist h) -> Alcotest.(check int) "one e2e observation" 1 h.Obs.Metrics.h_count
      | _ -> Alcotest.fail "serve_session_e2e_seconds histogram missing"));
  (match Serve.Client.stop ~socket with Ok () -> () | Error e -> Alcotest.fail ("stop: " ^ e));
  Domain.join handle

(* ---------------------------------------------------------------- *)
(* Protocol fuzz: whatever bytes arrive, the daemon answers every      *)
(* non-empty connection with one parseable result frame and stays up.  *)
(* ---------------------------------------------------------------- *)

let fuzz_input_gen =
  QCheck.Gen.(
    let hello =
      oneofl
        [
          "pmdb-serve/1 session fz";
          "pmdb-serve/1 session fz lenient";
          "pmdb-serve/1 session fz strict";
          "pmdb-serve/1 session bad/name";
          "pmdb-serve/1 bogusverb";
          "pmdb-serve/2 session fz";
          "not even close";
          "pmdb-serve/1 session";
          "pmdb-serve/1";
        ]
    in
    let body_line =
      oneofl
        [
          "store 1 0 8";
          "store 1 64 8";
          "clf clwb 1 0 8";
          "fence 1";
          "register_pmem 0 4096";
          "program_end";
          "zap!";
          "store 1 oops 8";
          "";
          "   ";
        ]
    in
    let* h = hello in
    let* lines = list_size (int_range 0 8) body_line in
    let* terminated = bool in
    let text = String.concat "\n" (h :: lines) in
    return (if terminated then text ^ "\n" else text))

let prop_fuzz_always_structured_reply socket =
  QCheck.Test.make ~name:"daemon answers garbage with structured frames" ~count:40
    (QCheck.make fuzz_input_gen) (fun input ->
      match Serve.Client.raw ~socket input with
      | Error _ -> false (* connection refused or reset: the daemon died *)
      | Ok reply ->
          let line = match String.index_opt reply '\n' with
            | Some i -> String.sub reply 0 i
            | None -> reply
          in
          String.length line > 0
          && (match Serve.Wire.result_of_line line with Ok _ -> true | Error _ -> false))

let test_fuzz_protocol () =
  let socket = temp_socket () in
  let metrics = Obs.Metrics.create () in
  let handle = start_daemon ~idle_timeout:5.0 ~workers:1 ~metrics socket in
  let res =
    try
      QCheck.Test.check_exn (prop_fuzz_always_structured_reply socket);
      Ok ()
    with e -> Error (Printexc.to_string e)
  in
  (* The daemon must still be alive and coherent after the barrage. *)
  (match Serve.Client.replay_string ~socket ~name:"after-fuzz" trace_body with
  | Error e -> Alcotest.fail ("daemon dead after fuzz: " ^ e)
  | Ok frame ->
      Alcotest.(check bool) "healthy session still works" true
        (frame.Serve.Wire.status = Serve.Status.Ok));
  (match Serve.Client.stop ~socket with Ok () -> () | Error e -> Alcotest.fail ("stop: " ^ e));
  Domain.join handle;
  match res with Ok () -> () | Error e -> Alcotest.fail e

(* ---------------------------------------------------------------- *)

let suite =
  [
    Alcotest.test_case "frame ring close poisons pushes" `Quick test_frame_close_poisons_producer;
    Alcotest.test_case "frame ring drains, then Closed" `Quick test_frame_close_drains_then_raises;
    Alcotest.test_case "frame ring close wakes producer" `Quick test_frame_close_wakes_blocked_producer;
    Alcotest.test_case "frame ring close wakes consumer" `Quick test_frame_close_wakes_blocked_consumer;
    Alcotest.test_case "finish_all survives a raising finish" `Quick test_finish_all_survives_raising_finish;
    Alcotest.test_case "status exit-code table" `Quick test_status_exit_codes;
    Alcotest.test_case "wire parse_hello" `Quick test_wire_parse_hello;
    Alcotest.test_case "wire rejects malformed frames" `Quick test_wire_malformed_json;
    QCheck_alcotest.to_alcotest prop_wire_result_roundtrip;
    Alcotest.test_case "session chunk boundaries invisible" `Quick test_session_chunk_boundaries_invisible;
    Alcotest.test_case "session strict error position" `Quick test_session_strict_error_position;
    Alcotest.test_case "session lenient skip counting" `Quick test_session_lenient_skips;
    Alcotest.test_case "session ensure_end" `Quick test_session_ensure_end;
    Alcotest.test_case "session live_bytes accounting" `Quick test_session_live_bytes_accounting;
    Alcotest.test_case "session first terminal status wins" `Quick test_session_terminate_first_wins;
    Alcotest.test_case "pool inline roundtrip" `Quick test_pool_inline_roundtrip;
    Alcotest.test_case "pool inline detector failure" `Quick test_pool_inline_detector_failure;
    Alcotest.test_case "gate: 8 clients, 2 misbehaving" `Quick test_gate_eight_clients_two_misbehaving;
    Alcotest.test_case "gate: detector quarantine is isolated" `Quick test_gate_detector_quarantine_isolated;
    Alcotest.test_case "pool wakes the dispatcher on drain" `Quick test_pool_wakes_on_drain;
    Alcotest.test_case "daemon wakes on drain and result, not on the tick" `Quick test_daemon_wakes_not_ticks;
    Alcotest.test_case "stats_stream follow" `Quick test_stats_stream_follow;
    Alcotest.test_case "heatmap verb and e2e latency" `Quick test_heatmap_verb_and_e2e_latency;
    Alcotest.test_case "protocol fuzz" `Quick test_fuzz_protocol;
    Alcotest.test_case "daemon survives an early close" `Quick test_client_closes_before_result;
    Alcotest.test_case "client reads early-close reply" `Quick test_client_reads_reply_after_early_close;
    Alcotest.test_case "synthesized_end only for a stream cut at EOF" `Quick test_synthesized_end_only_at_eof;
  ]
