open Pmtrace

let sample_trace () =
  Recorder.record (fun e ->
      Engine.register_pmem e ~base:0 ~size:4096;
      Engine.register_var e ~name:"head ptr" ~addr:0 ~size:8;
      Engine.call_marker e ~func:"main";
      Engine.epoch_begin e;
      Engine.store_i64 e ~addr:128 1L;
      Engine.tx_log e ~obj_addr:128 ~size:8;
      Engine.clflushopt e ~addr:128;
      Engine.sfence e;
      Engine.epoch_end e;
      Engine.strand_begin e ~strand:2;
      Engine.store_i64 e ~addr:256 2L;
      Engine.persist e ~addr:256 ~size:8;
      Engine.strand_end e ~strand:2;
      Engine.join_strand e;
      Engine.annotate e (Event.Assert_durable { addr = 128; size = 8 });
      Engine.annotate e (Event.Assert_ordered { first_addr = 128; first_size = 8; then_addr = 256; then_size = 8 });
      Engine.annotate e (Event.Assert_fresh { addr = 512; size = 8 });
      Engine.program_end e)

let test_roundtrip () =
  let trace = sample_trace () in
  match Trace_io.of_string (Trace_io.to_string trace) with
  | Error msg -> Alcotest.fail msg
  | Ok decoded ->
      Alcotest.(check int) "same length" (Array.length trace) (Array.length decoded);
      Array.iteri
        (fun i ev ->
          Alcotest.(check string)
            (Printf.sprintf "event %d" i)
            (Trace_io.event_to_line ev)
            (Trace_io.event_to_line decoded.(i)))
        trace

let test_comments_and_blanks () =
  match Trace_io.of_string "# a comment\n\nstore 0 128 8\n  \nfence 0\n" with
  | Ok trace -> Alcotest.(check int) "two events" 2 (Array.length trace)
  | Error msg -> Alcotest.fail msg

let test_malformed () =
  (match Trace_io.of_string "store 0 oops 8\n" with
  | Error msg -> Alcotest.(check bool) "line number in error" true (String.length msg > 0 && String.sub msg 0 6 = "line 1")
  | Ok _ -> Alcotest.fail "expected parse error");
  match Trace_io.of_string "bogus_event 1 2\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error"

let test_file_roundtrip () =
  let trace = sample_trace () in
  let path = Filename.temp_file "pmdebugger" ".pmt" in
  Trace_io.save path trace;
  (match Trace_io.load path with
  | Ok decoded -> Alcotest.(check int) "file roundtrip" (Array.length trace) (Array.length decoded)
  | Error msg -> Alcotest.fail msg);
  Sys.remove path

let test_replay_of_decoded_trace () =
  (* A decoded trace must drive a detector identically to the original. *)
  let trace =
    Recorder.record (fun e ->
        Engine.register_pmem e ~base:0 ~size:4096;
        Engine.store_i64 e ~addr:128 1L;
        Engine.clwb e ~addr:128;
        Engine.clwb e ~addr:128;
        Engine.sfence e;
        Engine.store_i64 e ~addr:512 1L;
        Engine.program_end e)
  in
  let decoded = match Trace_io.of_string (Trace_io.to_string trace) with Ok t -> t | Error m -> Alcotest.fail m in
  let report trace = Recorder.replay trace (Pmdebugger.Detector.sink (Pmdebugger.Detector.create ())) in
  let summary r = List.map (fun (b : Bug.t) -> (Bug.kind_name b.Bug.kind, b.Bug.addr)) r.Bug.bugs in
  Alcotest.(check (list (pair string int))) "identical findings" (summary (report trace)) (summary (report decoded))

(* Exhaustive over the Event type: every one of the 14 constructors,
   every clf kind and every annotation shape. Names are drawn from
   identifier-like strings (the line format is space-separated). *)
let event_gen =
  QCheck.Gen.(
    let* tag = int_range 0 13 in
    let* addr = int_range 0 100_000 in
    let* size = int_range 1 256 in
    let* tid = int_range 0 7 in
    let* strand = int_range 0 15 in
    let* kind = oneofl [ Event.Clwb; Event.Clflush; Event.Clflushopt ] in
    (* Multi-word names exercise the String.concat joins in the parser
       (the line format is space-separated, name comes last). *)
    let* name = oneofl [ "main"; "item_set_cas"; "do_slabs_free"; "x"; "head_ptr_1"; "head ptr"; "do slabs free" ] in
    let* ann =
      oneofl
        [
          Event.Assert_durable { addr; size };
          Event.Assert_ordered { first_addr = addr; first_size = size; then_addr = addr + size; then_size = size };
          Event.Assert_fresh { addr; size };
        ]
    in
    return
      (match tag with
      | 0 -> Event.Store { addr; size; tid }
      | 1 -> Event.Clf { addr; size; kind; tid }
      | 2 -> Event.Fence { tid }
      | 3 -> Event.Register_pmem { base = addr; size }
      | 4 -> Event.Epoch_begin { tid }
      | 5 -> Event.Epoch_end { tid }
      | 6 -> Event.Strand_begin { tid; strand }
      | 7 -> Event.Strand_end { tid; strand }
      | 8 -> Event.Join_strand { tid }
      | 9 -> Event.Tx_log { obj_addr = addr; size; tid }
      | 10 -> Event.Register_var { name; addr; size }
      | 11 -> Event.Call { func = name; tid }
      | 12 -> Event.Annotation ann
      | _ -> Event.Program_end))

let prop_event_roundtrip =
  QCheck.Test.make ~name:"event line roundtrip (all constructors)" ~count:1000 (QCheck.make event_gen) (fun ev ->
      match Trace_io.event_of_line (Trace_io.event_to_line ev) with
      | Ok (Some ev') -> Trace_io.event_to_line ev = Trace_io.event_to_line ev'
      | _ -> false)

(* The digit writer behind to_string/save against event_to_line, over
   the whole int range (negative numbers and min_int included). *)
let prop_writer_matches_event_to_line =
  let gen =
    QCheck.Gen.(
      let* a = int in
      let* b = int in
      let* tid = int in
      let* kind = oneofl [ Event.Clwb; Event.Clflush; Event.Clflushopt ] in
      oneof
        [
          oneofl
            [
              Event.Store { addr = a; size = b; tid };
              Event.Clf { addr = a; size = b; kind; tid };
              Event.Fence { tid };
              Event.Epoch_begin { tid };
              Event.Epoch_end { tid };
              Event.Store { addr = min_int; size = max_int; tid = 0 };
            ];
          event_gen;
        ])
  in
  QCheck.Test.make ~name:"to_string writes event_to_line bytes" ~count:1000
    (QCheck.make ~print:Trace_io.event_to_line gen) (fun ev ->
      Trace_io.to_string [| ev |] = Trace_io.event_to_line ev ^ "\n")

(* ------------------------------------------------------------------ *)
(* Lenient parsing.                                                    *)
(* ------------------------------------------------------------------ *)

let test_lenient_skips_malformed () =
  let text = "store 0 128 8\nnot an event\nfence 0\nstore 0 oops 8\nprogram_end\n" in
  let l = Trace_io.of_string_lenient text in
  Alcotest.(check int) "parsed events" 3 (Array.length l.Trace_io.trace);
  Alcotest.(check (list int)) "skipped line numbers" [ 2; 4 ] (List.map fst l.Trace_io.skipped);
  Alcotest.(check bool) "no synthesized end (explicit program_end)" false l.Trace_io.synthesized_end

let test_lenient_synthesizes_end () =
  let l = Trace_io.of_string_lenient "store 0 128 8\nfence 0\n" in
  Alcotest.(check bool) "synthesized" true l.Trace_io.synthesized_end;
  Alcotest.(check int) "end appended" 3 (Array.length l.Trace_io.trace);
  Alcotest.(check bool) "last is program_end" true (l.Trace_io.trace.(2) = Event.Program_end)

let test_lenient_strict_agree_on_clean_input () =
  let text = Trace_io.to_string (sample_trace ()) in
  match Trace_io.of_string text with
  | Error _ -> Alcotest.fail "strict parser must accept clean input"
  | Ok strict ->
      let l = Trace_io.of_string_lenient text in
      Alcotest.(check bool) "same trace" true (strict = l.Trace_io.trace);
      Alcotest.(check int) "nothing skipped" 0 (List.length l.Trace_io.skipped)

let test_lenient_load_truncated_file () =
  let trace = sample_trace () in
  let path = Filename.temp_file "pmdebugger" ".pmt" in
  Trace_io.save path trace;
  let text = In_channel.with_open_bin path In_channel.input_all in
  (* Chop mid-line to model a crash while the tracer was writing. *)
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (String.sub text 0 (String.length text - 7)));
  (match Trace_io.load path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "strict load must reject a truncated trace");
  (match Trace_io.load_lenient path with
  | Error msg -> Alcotest.fail msg
  | Ok l ->
      Alcotest.(check bool) "synthesized end" true l.Trace_io.synthesized_end;
      Alcotest.(check bool) "most events recovered" true (Array.length l.Trace_io.trace >= Array.length trace - 2));
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Streaming.                                                          *)
(* ------------------------------------------------------------------ *)

let with_trace_file text f =
  let path = Filename.temp_file "pmdebugger" ".pmt" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let dirty_text = "store 0 128 8\nnot an event\nclf clwb 0 128 8\nstore 0 oops 8\nfence 0\n"

let test_stream_matches_lenient_load () =
  (* One dirty file through both paths: the streamed fold must see the
     same events, the same skipped line positions and the same
     synthesized end as the materializing loader. *)
  with_trace_file dirty_text @@ fun path ->
  let l = match Trace_io.load_lenient path with Ok l -> l | Error m -> Alcotest.fail m in
  let streamed = ref [] in
  let stats =
    match Trace_io.iter_file path ~f:(fun ev -> streamed := ev :: !streamed) with
    | Ok stats -> stats
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check bool) "same events" true (Array.of_list (List.rev !streamed) = l.Trace_io.trace);
  Alcotest.(check int) "stats.events counts emitted events" (Array.length l.Trace_io.trace) stats.Trace_io.events;
  Alcotest.(check (list int))
    "same skipped lines" (List.map fst l.Trace_io.skipped)
    (List.map fst stats.Trace_io.skipped_lines);
  Alcotest.(check bool) "same synthesized flag" l.Trace_io.synthesized_end stats.Trace_io.synthesized

let test_stream_on_skip_callback () =
  with_trace_file dirty_text @@ fun path ->
  let seen = ref [] in
  (match Trace_io.iter_file ~on_skip:(fun lineno msg -> seen := (lineno, msg) :: !seen) path ~f:ignore with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check (list int)) "on_skip fired per bad line" [ 2; 4 ] (List.rev_map fst !seen)

let test_strict_stream_error_position () =
  (* The streamed strict parser must report the same per-line error
     position as the in-memory one. *)
  let text = "store 0 128 8\nfence 0\nstore 0 oops 8\n" in
  let in_memory = match Trace_io.of_string text with Error m -> m | Ok _ -> Alcotest.fail "expected error" in
  with_trace_file text @@ fun path ->
  match Trace_io.iter_file_strict path ~f:ignore with
  | Error m -> Alcotest.(check string) "same error" in_memory m
  | Ok () -> Alcotest.fail "expected error"

let test_fold_file_accumulates () =
  with_trace_file "store 0 128 8\nclf clwb 0 128 8\nfence 0\nprogram_end\n" @@ fun path ->
  match Trace_io.fold_file path ~init:0 ~f:(fun acc _ -> acc + 1) with
  | Ok (n, stats) ->
      Alcotest.(check int) "fold counts events" 4 n;
      Alcotest.(check bool) "no synthesis needed" false stats.Trace_io.synthesized
  | Error m -> Alcotest.fail m

let test_save_stream_counts_and_roundtrips () =
  let trace = sample_trace () in
  let path = Filename.temp_file "pmdebugger" ".pmt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let n = Trace_io.save_stream path (fun emit -> Array.iter emit trace) in
  Alcotest.(check int) "emit count returned" (Array.length trace) n;
  match Trace_io.load path with
  | Ok decoded -> Alcotest.(check bool) "roundtrip" true (decoded = trace)
  | Error m -> Alcotest.fail m

let test_save_is_byte_identical_to_to_string () =
  (* save must write in binary mode: the on-disk bytes are exactly
     to_string's, with no platform newline translation (open_out on
     Windows would emit \r\n and desync every reader, which all use
     open_in_bin). On Unix both modes agree, so this pins the contract
     rather than reproducing the Windows corruption. *)
  let trace = sample_trace () in
  let path = Filename.temp_file "pmdebugger" ".pmt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Trace_io.save path trace;
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check string) "byte-identical" (Trace_io.to_string trace) bytes

let test_replay_stream_matches_replay () =
  let trace =
    Recorder.record (fun e ->
        Engine.register_pmem e ~base:0 ~size:4096;
        Engine.store_i64 e ~addr:128 1L;
        Engine.store_i64 e ~addr:128 2L;
        Engine.clwb e ~addr:128;
        Engine.sfence e;
        Engine.store_i64 e ~addr:512 3L;
        Engine.program_end e)
  in
  let mk () = Pmdebugger.Detector.sink (Pmdebugger.Detector.create ()) in
  let summary (r : Bug.report) =
    (r.Bug.events_processed, List.map (fun (b : Bug.t) -> (Bug.kind_name b.Bug.kind, b.Bug.addr)) r.Bug.bugs)
  in
  let direct = Recorder.replay trace (mk ()) in
  let path = Filename.temp_file "pmdebugger" ".pmt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Trace_io.save path trace;
  let streamed =
    Recorder.replay_stream
      (fun emit ->
        match Trace_io.iter_file path ~f:emit with Ok _ -> () | Error m -> Alcotest.fail m)
      (mk ())
  in
  Alcotest.(check (pair int (list (pair string int))))
    "streamed file replay = in-memory replay" (summary direct) (summary streamed)

(* A file several 64 KiB blocks long, with one line far longer than a
   block: lines cut by a block boundary read the same as in memory. *)
let test_file_blocks_and_long_lines () =
  let stores n = Array.init n (fun i -> Event.Store { addr = i * 8; size = 8; tid = 1 }) in
  let long = Event.Register_var { name = String.make 150_000 'n'; addr = 0; size = 8 } in
  let trace = Array.concat [ stores 9_000; [| long |]; stores 11_000; sample_trace () ] in
  let text = Trace_io.to_string trace in
  with_trace_file text @@ fun path ->
  (match Trace_io.load path with
  | Ok decoded -> Alcotest.(check bool) "strict file read" true (decoded = trace)
  | Error m -> Alcotest.fail m);
  match Trace_io.load_lenient path with
  | Ok l -> Alcotest.(check bool) "lenient file read" true (l.Trace_io.trace = trace && l.Trace_io.skipped = [])
  | Error m -> Alcotest.fail m

let test_iter_file_missing_file () =
  match Trace_io.iter_file "/nonexistent/pmdb-no-such-trace.pmt" ~f:ignore with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error for missing file"

(* ------------------------------------------------------------------ *)
(* Scanner parity: every reader against event_of_line, line by line.   *)
(* ------------------------------------------------------------------ *)

(* One line: a canonical event line, often bent out of canonical shape
   so the scanner's fast path must decline it and agree with the
   oracle anyway. *)
let line_gen =
  QCheck.Gen.(
    let* line = map Trace_io.event_to_line event_gen in
    let words = Array.of_list (String.split_on_char ' ' line) in
    let* i = int_bound (Array.length words - 1) in
    let set w =
      let a = Array.copy words in
      a.(i) <- w;
      String.concat " " (Array.to_list a)
    in
    let* p = int_bound (String.length line - 1) in
    let* c = char in
    frequency
      [
        (8, return line);
        (1, return (line ^ "\r"));
        (1, return ("  " ^ line));
        (1, return (line ^ " "));
        (1, return (set (words.(i) ^ " ")));
        (1, return (set ("\t" ^ words.(i))));
        (1, return (line ^ "\t"));
        (1, return (set ("00" ^ words.(i))));
        (1, return (set "000000000000000042"));
        (1, return (set "1234567890123456789"));
        (1, return (set "99999999999999999999"));
        (1, return (set "-5"));
        (1, return (set "0x1f"));
        (1, return (set "1_000"));
        (1, return (String.mapi (fun j x -> if j = p then c else x) line));
        (1, return "# comment");
        (1, return "");
      ])

let text_gen =
  QCheck.Gen.(
    let* lines = list_size (int_range 0 24) line_gen in
    let* newline_at_end = bool in
    return (String.concat "\n" lines ^ if newline_at_end && lines <> [] then "\n" else ""))

(* The oracle: split on newlines, event_of_line per line. Returns the
   events in order, the first error as the strict readers word it,
   and every (line, error) a lenient reader skips. *)
let oracle text =
  let lines = String.split_on_char '\n' text in
  let lines = match List.rev lines with "" :: rest -> List.rev rest | _ -> lines in
  let _, evs, skipped =
    List.fold_left
      (fun (n, evs, skipped) l ->
        match Trace_io.event_of_line l with
        | Ok None -> (n + 1, evs, skipped)
        | Ok (Some ev) -> (n + 1, ev :: evs, skipped)
        | Error msg -> (n + 1, evs, (n, msg) :: skipped))
      (1, [], []) lines
  in
  let skipped = List.rev skipped in
  let strict =
    match skipped with
    | [] -> Ok (List.rev evs)
    | (n, msg) :: _ ->
        Error (Printf.sprintf "line %d: %s" n msg)
  in
  (strict, List.rev evs, skipped)

(* The events a strict reader has handed over before stopping at the
   first bad line. *)
let strict_prefix text =
  let prefix = ref [] in
  (try
     List.iter
       (fun l ->
         match Trace_io.event_of_line l with
         | Ok None -> ()
         | Ok (Some ev) -> prefix := ev :: !prefix
         | Error _ -> raise Exit)
       (String.split_on_char '\n' text)
   with Exit -> ());
  List.rev !prefix

let session_events ~lenient ~chunk text =
  let s = Serve.Session.create ~id:0 ~name:"parity" ~lenient ~now:0.0 in
  let b = Bytes.of_string text in
  let rec go off =
    if off >= Bytes.length b then Serve.Session.flush_partial s
    else
      let len = min chunk (Bytes.length b - off) in
      match Serve.Session.feed s ~now:0.0 b ~off ~len with Ok () -> go (off + len) | Error _ as e -> e
  in
  let r = go 0 in
  let rec drain acc = match Serve.Session.pop_pending s with None -> List.rev acc | Some ev -> drain (ev :: acc) in
  let evs = drain [] in
  Serve.Session.ensure_end s;
  (r, evs, Serve.Session.skipped s, Serve.Session.synthesized_end s)

let prop_scanner_parity =
  QCheck.Test.make ~name:"scanner = event_of_line (string, file, session; strict, lenient)" ~count:300
    (QCheck.make ~print:String.escaped text_gen) (fun text ->
      let strict, evs, skipped = oracle text in
      let synthesized = match List.rev evs with Event.Program_end :: _ -> false | _ -> true in
      let lenient_trace = Array.of_list (if synthesized then evs @ [ Event.Program_end ] else evs) in
      let as_list = Result.map Array.to_list in
      let same_lenient (l : Trace_io.lenient) =
        l.Trace_io.trace = lenient_trace && l.Trace_io.skipped = skipped && l.Trace_io.synthesized_end = synthesized
      in
      let file_ok =
        with_trace_file text @@ fun path ->
        as_list (Trace_io.load path) = strict
        && match Trace_io.load_lenient path with Ok l -> same_lenient l | Error _ -> false
      in
      let sessions_ok =
        List.for_all
          (fun chunk ->
            let r, got, _, _ = session_events ~lenient:false ~chunk text in
            let strict_ok =
              match strict with
              | Ok expected -> r = Ok () && got = expected
              | Error msg -> r = Error msg && got = strict_prefix text
            in
            let r, got, nskip, synth = session_events ~lenient:true ~chunk text in
            strict_ok && r = Ok () && got = evs && nskip = List.length skipped && synth = synthesized)
          [ 1; 7; 4096 ]
      in
      as_list (Trace_io.of_string text) = strict && same_lenient (Trace_io.of_string_lenient text) && file_ok && sessions_ok)

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "comments and blanks" `Quick test_comments_and_blanks;
    Alcotest.test_case "malformed input" `Quick test_malformed;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    Alcotest.test_case "decoded trace replays identically" `Quick test_replay_of_decoded_trace;
    Alcotest.test_case "lenient skips malformed lines" `Quick test_lenient_skips_malformed;
    Alcotest.test_case "lenient synthesizes program_end" `Quick test_lenient_synthesizes_end;
    Alcotest.test_case "lenient agrees with strict on clean input" `Quick test_lenient_strict_agree_on_clean_input;
    Alcotest.test_case "lenient load of truncated file" `Quick test_lenient_load_truncated_file;
    Alcotest.test_case "streamed fold matches lenient load" `Quick test_stream_matches_lenient_load;
    Alcotest.test_case "on_skip callback positions" `Quick test_stream_on_skip_callback;
    Alcotest.test_case "strict stream error position" `Quick test_strict_stream_error_position;
    Alcotest.test_case "fold_file accumulates" `Quick test_fold_file_accumulates;
    Alcotest.test_case "save_stream counts and roundtrips" `Quick test_save_stream_counts_and_roundtrips;
    Alcotest.test_case "save writes to_string bytes exactly" `Quick test_save_is_byte_identical_to_to_string;
    Alcotest.test_case "streamed file replay = in-memory replay" `Quick test_replay_stream_matches_replay;
    Alcotest.test_case "iter_file on missing file errors" `Quick test_iter_file_missing_file;
    Alcotest.test_case "file blocks and long lines" `Quick test_file_blocks_and_long_lines;
    QCheck_alcotest.to_alcotest prop_event_roundtrip;
    QCheck_alcotest.to_alcotest prop_writer_matches_event_to_line;
    QCheck_alcotest.to_alcotest prop_scanner_parity;
  ]
