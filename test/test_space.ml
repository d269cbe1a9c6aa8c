open Pmdebugger

let mk ?mode ?interval_metadata ?array_capacity ?merge_threshold () =
  Space.create ?mode ?interval_metadata ?array_capacity ?merge_threshold ()

let store ?(epoch = false) ?(seq = 0) sp ~addr ~size =
  Space.process_store sp ~addr ~size ~epoch ~seq ~tid:0 ~strand:(-1) ()

let pending sp =
  let acc = ref [] in
  Space.iter_pending sp (fun ~addr ~size ~flushed ~epoch:_ ~seq:_ ~clf_seq:_ ~fence_seq:_ ->
      acc := (addr, size, flushed) :: !acc);
  List.sort compare !acc

let test_store_then_flush_then_fence () =
  let sp = mk () in
  ignore (store sp ~addr:100 ~size:8);
  Alcotest.(check (list (triple int int bool))) "tracked unflushed" [ (100, 8, false) ] (pending sp);
  let r = Space.process_clf sp ~lo:64 ~hi:128 in
  Alcotest.(check int) "matched" 1 r.Space.matched;
  Alcotest.(check int) "newly flushed" 1 r.Space.newly_flushed;
  Alcotest.(check (list (triple int int bool))) "tracked flushed" [ (100, 8, true) ] (pending sp);
  Space.process_fence sp;
  Alcotest.(check int) "drained" 0 (Space.pending_count sp)

let test_fence_migrates_unflushed_to_tree () =
  let sp = mk () in
  ignore (store sp ~addr:100 ~size:8);
  ignore (store sp ~addr:500 ~size:8);
  ignore (Space.process_clf sp ~lo:64 ~hi:128);
  Space.process_fence sp;
  Alcotest.(check int) "one survivor" 1 (Space.pending_count sp);
  Alcotest.(check int) "survivor lives in the tree" 1 (Space.tree_size sp);
  Alcotest.(check (list (triple int int bool))) "survivor state" [ (500, 8, false) ] (pending sp)

let test_collective_interval_metadata () =
  let sp = mk () in
  (* Several stores to one line form one CLF interval persisted by one
     writeback (Pattern 2). *)
  for i = 0 to 5 do
    ignore (store sp ~addr:(256 + (i * 8)) ~size:8)
  done;
  let r = Space.process_clf sp ~lo:256 ~hi:320 in
  Alcotest.(check int) "collectively flushed" 6 r.Space.newly_flushed;
  Space.process_fence sp;
  Alcotest.(check int) "all dropped collectively" 0 (Space.pending_count sp);
  Alcotest.(check int) "tree untouched" 0 (Space.tree_size sp)

let test_partial_flush_splits () =
  let sp = mk () in
  (* A 100-byte store flushed one line at a time: the uncovered tail
     moves to the tree as an unflushed remainder. *)
  ignore (store sp ~addr:64 ~size:100);
  ignore (Space.process_clf sp ~lo:64 ~hi:128);
  let tracked = pending sp in
  Alcotest.(check (list (triple int int bool))) "split into covered+rest" [ (64, 64, true); (128, 36, false) ] tracked;
  ignore (Space.process_clf sp ~lo:128 ~hi:192);
  Space.process_fence sp;
  Alcotest.(check int) "both halves drained" 0 (Space.pending_count sp)

let test_overwrite_detection_and_unflush () =
  let sp = mk () in
  Alcotest.(check bool) "fresh store has no overlap" false (store sp ~addr:100 ~size:8).Space.overlapped;
  ignore (Space.process_clf sp ~lo:64 ~hi:128);
  let r = store sp ~addr:100 ~size:8 in
  Alcotest.(check bool) "overwrite detected" true r.Space.overlapped;
  Alcotest.(check bool) "prior store seq carried" true (List.mem 0 r.Space.prior_seqs);
  (* The flushed state must have been voided by the new store. *)
  Space.process_fence sp;
  Alcotest.(check bool) "still pending after fence" true (Space.pending_count sp > 0)

let test_redundant_flush_reported () =
  let sp = mk () in
  ignore (store sp ~addr:100 ~size:8);
  ignore (Space.process_clf sp ~lo:64 ~hi:128);
  let r = Space.process_clf sp ~lo:64 ~hi:128 in
  Alcotest.(check int) "nothing newly flushed" 0 r.Space.newly_flushed;
  Alcotest.(check bool) "redundant recorded" true (r.Space.redundant <> []);
  Alcotest.(check bool) "still matched" true (r.Space.matched > 0)

let test_flush_nothing_result () =
  let sp = mk () in
  let r = Space.process_clf sp ~lo:0 ~hi:64 in
  Alcotest.(check int) "no match on empty space" 0 r.Space.matched

let test_epoch_flag_tracking () =
  let sp = mk () in
  ignore (store sp ~addr:100 ~size:8 ~epoch:true);
  ignore (store sp ~addr:500 ~size:8 ~epoch:false);
  Alcotest.(check bool) "epoch pending seen" true (Space.exists_epoch_pending sp);
  ignore (Space.process_clf sp ~lo:64 ~hi:128);
  Space.process_fence sp;
  Alcotest.(check bool) "epoch store drained, plain survives" false (Space.exists_epoch_pending sp);
  Alcotest.(check int) "one plain survivor" 1 (Space.pending_count sp)

let test_array_overflow_spills_to_tree () =
  let sp = mk ~array_capacity:4 () in
  for i = 0 to 9 do
    ignore (store sp ~addr:(i * 64) ~size:8)
  done;
  Alcotest.(check int) "all tracked" 10 (Space.pending_count sp);
  Alcotest.(check bool) "overflow went to the tree" true (Space.tree_size sp >= 6)

let test_has_pending_overlap () =
  let sp = mk () in
  ignore (store sp ~addr:100 ~size:8);
  Alcotest.(check bool) "overlap yes" true (Space.has_pending_overlap sp ~lo:104 ~hi:112);
  Alcotest.(check bool) "overlap no" false (Space.has_pending_overlap sp ~lo:200 ~hi:208)

(* Property: after any op sequence, the pending set matches a simple
   byte-level reference model. Stores use a fixed 16-byte granularity so
   that location-granular flush-state changes coincide with the byte
   model (partial-overlap splitting has its own unit tests). *)
let prop_matches_byte_model =
  QCheck.Test.make ~name:"space pending set matches byte-level model" ~count:300
    QCheck.(small_list (pair (int_range 0 2) (pair (int_range 0 40) (int_range 1 24))))
    (fun ops ->
      let sp = mk () in
      let model : (int, bool) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun (op, (slot, _len)) ->
          let addr = slot * 16 in
          let len = 16 in
          match op with
          | 0 ->
              ignore (store sp ~addr ~size:len);
              for b = addr to addr + len - 1 do
                Hashtbl.replace model b false
              done
          | 1 ->
              let lo = Pmem.Addr.line_base addr in
              ignore (Space.process_clf sp ~lo ~hi:(lo + 64));
              for b = lo to lo + 63 do
                if Hashtbl.mem model b then Hashtbl.replace model b true
              done
          | _ ->
              Space.process_fence sp;
              let drained = Hashtbl.fold (fun b f acc -> if f then b :: acc else acc) model [] in
              List.iter (Hashtbl.remove model) drained)
        ops;
      (* Compare byte coverage of the pending sets. *)
      let space_bytes = Hashtbl.create 64 in
      Space.iter_pending sp (fun ~addr ~size ~flushed ~epoch:_ ~seq:_ ~clf_seq:_ ~fence_seq:_ ->
          for b = addr to addr + size - 1 do
            (* Later stores shadow earlier ones; flushed state of the
               latest tracker wins, so take OR of unflushed. *)
            let prev = try Hashtbl.find space_bytes b with Not_found -> true in
            Hashtbl.replace space_bytes b (prev && flushed)
          done);
      Hashtbl.fold (fun b f acc -> acc && Hashtbl.mem space_bytes b && Hashtbl.find space_bytes b = f) model true
      && Hashtbl.fold (fun b _ acc -> acc && Hashtbl.mem model b) space_bytes true)

let test_modes_agree_on_pending () =
  let run mode =
    let sp = mk ~mode () in
    ignore (store sp ~addr:100 ~size:8);
    ignore (store sp ~addr:500 ~size:16);
    ignore (Space.process_clf sp ~lo:64 ~hi:128);
    Space.process_fence sp;
    pending sp
  in
  let hybrid = run Space.Hybrid in
  Alcotest.(check (list (triple int int bool))) "array-only agrees" hybrid (run Space.Array_only);
  Alcotest.(check (list (triple int int bool))) "tree-only agrees" hybrid (run Space.Tree_only)

let test_no_interval_metadata_agrees () =
  let run interval_metadata =
    let sp = mk ~interval_metadata () in
    for i = 0 to 5 do
      ignore (store sp ~addr:(256 + (i * 8)) ~size:8)
    done;
    ignore (Space.process_clf sp ~lo:256 ~hi:320);
    ignore (store sp ~addr:1000 ~size:8);
    Space.process_fence sp;
    pending sp
  in
  Alcotest.(check (list (triple int int bool))) "metadata off agrees" (run true) (run false)

(* Array capacities that put the spill point before, at and past the
   slot arrays' growth steps (they start at 4 and double). *)
let capacity = QCheck.oneofl [ 1; 3; 4; 5; 64; 65; 100_000 ]

(* Differential property: the three bookkeeping modes and the
   metadata-off variant produce identical pending sets on random op
   sequences — the ablation knobs change cost, never verdicts. *)
let prop_modes_equivalent =
  QCheck.Test.make ~name:"bookkeeping modes are observationally equal" ~count:200
    QCheck.(pair capacity (small_list (pair (int_range 0 2) (int_range 0 30))))
    (fun (array_capacity, ops) ->
      let run_mode mode interval_metadata =
        let sp = mk ~mode ~interval_metadata ~array_capacity () in
        List.iter
          (fun (op, slot) ->
            let addr = slot * 24 in
            match op with
            | 0 -> ignore (store sp ~addr ~size:16)
            | 1 ->
                let lo = Pmem.Addr.line_base addr in
                ignore (Space.process_clf sp ~lo ~hi:(lo + 64))
            | _ -> Space.process_fence sp)
          ops;
        pending sp
      in
      let reference = run_mode Space.Hybrid true in
      run_mode Space.Array_only true = reference
      && run_mode Space.Tree_only true = reference
      && run_mode Space.Hybrid false = reference)

(* Per-op differential: not just the final pending sets — every
   intermediate observation (store-overlap verdict, CLF matched /
   newly-flushed / redundant counts) must agree across modes, because
   the detection rules fire on these. Stores are fixed-size and aligned
   so every CLF and every supersede is a full cover; partial covers of
   flushed data are intentionally asymmetric between array and tree
   (the array unflushes the whole slot, the tree keeps uncovered
   pieces flushed) and have their own unit tests. *)
let prop_modes_observations_equivalent =
  QCheck.Test.make ~name:"per-op observations agree across modes" ~count:300
    QCheck.(pair capacity (small_list (pair (int_range 0 2) (int_range 0 30))))
    (fun (array_capacity, ops) ->
      let sps =
        List.map (fun mode -> mk ~mode ~array_capacity ()) [ Space.Hybrid; Space.Array_only; Space.Tree_only ]
      in
      let agree obs = List.for_all (fun o -> o = List.hd obs) obs in
      List.for_all
        (fun (op, slot) ->
          let addr = slot * 16 in
          match op with
          (* Overlap verdicts agree across modes; prior-seq lists are
             deliberately excluded — tree merges coarsen them (a merged
             node keeps only its newest store's seq). *)
          | 0 -> agree (List.map (fun sp -> (store sp ~addr ~size:16).Space.overlapped) sps)
          | 1 ->
              let lo = Pmem.Addr.line_base addr in
              agree
                (List.map
                   (fun sp ->
                     let r = Space.process_clf sp ~lo ~hi:(lo + 64) in
                     (r.Space.matched, r.Space.newly_flushed, List.sort compare r.Space.redundant))
                   sps)
          | _ ->
              List.iter Space.process_fence sps;
              true)
        ops
      && agree (List.map pending sps))

(* ------------------------------------------------------------------ *)
(* Bookkeeping accounting regressions.                                *)
(* ------------------------------------------------------------------ *)

let stat sp key = List.assoc key (Space.stats sp)

(* The collective-CLF branch must not count slots a superseding store
   already invalidated. *)
let test_collective_clf_counts_valid_slots_only () =
  let sp = mk () in
  ignore (store sp ~addr:128 ~size:8);
  ignore (store sp ~addr:128 ~size:8) (* fully covers: first slot is invalidated *);
  let r = Space.process_clf sp ~lo:64 ~hi:192 in
  Alcotest.(check int) "matched counts live slots only" 1 r.Space.matched;
  Alcotest.(check int) "newly flushed counts live slots only" 1 r.Space.newly_flushed

(* A store that fully covers a flushed tree node removes the node; its
   flush registration must go with it, or the registration list grows
   with every store/flush pair on a hot address within one fence
   interval. *)
let test_superseded_tree_registrations_purged () =
  let sp = mk ~mode:Space.Tree_only () in
  for _ = 1 to 50 do
    ignore (store sp ~addr:256 ~size:8);
    ignore (Space.process_clf sp ~lo:256 ~hi:320)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "registrations bounded (got %.0f)" (stat sp "tree_flushed_nodes"))
    true
    (stat sp "tree_flushed_nodes" <= 1.0)

(* A fresh detector pays for the slots it uses, not for the array
   capacity: creating one must not build the 100,000-slot location
   array up front. *)
let test_detector_create_allocates_little () =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Detector.create ()));
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "Detector.create allocates %.0f minor words < 10_000" words)
    true (words < 10_000.)

(* The trace scanner builds no per-line string: reading a canonical
   b_tree trace file costs the events themselves plus the rare lines
   (tx_log, register_pmem) that go through event_of_line. Counted on a
   file so the 64 KiB block reads and the carry across them count too. *)
let test_scanner_allocates_little () =
  let open Pmtrace in
  let trace =
    Recorder.record (fun e -> Workloads.Btree.spec.Workloads.Workload.run (Workloads.Workload.params ~n:1000 ()) e)
  in
  let path = Filename.temp_file "pmdebugger-alloc" ".pmt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Trace_io.save path trace;
  let n = ref 0 in
  let before = Gc.minor_words () in
  let r = Trace_io.iter_file_strict path ~f:(fun _ -> incr n) in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "scan ok" true (r = Ok ());
  Alcotest.(check int) "every event" (Array.length trace) !n;
  let per_event = words /. float_of_int !n in
  Alcotest.(check bool)
    (Printf.sprintf "scanner allocates %.2f minor words per event <= 8" per_event)
    true (per_event <= 8.)

let suite =
  [
    Alcotest.test_case "store/flush/fence lifecycle" `Quick test_store_then_flush_then_fence;
    Alcotest.test_case "fence migrates unflushed to tree" `Quick test_fence_migrates_unflushed_to_tree;
    Alcotest.test_case "collective interval metadata" `Quick test_collective_interval_metadata;
    Alcotest.test_case "partial flush splits" `Quick test_partial_flush_splits;
    Alcotest.test_case "overwrite detection + unflush" `Quick test_overwrite_detection_and_unflush;
    Alcotest.test_case "redundant flush observation" `Quick test_redundant_flush_reported;
    Alcotest.test_case "flush nothing observation" `Quick test_flush_nothing_result;
    Alcotest.test_case "epoch flag tracking" `Quick test_epoch_flag_tracking;
    Alcotest.test_case "array overflow spills" `Quick test_array_overflow_spills_to_tree;
    Alcotest.test_case "has_pending_overlap" `Quick test_has_pending_overlap;
    Alcotest.test_case "modes agree" `Quick test_modes_agree_on_pending;
    Alcotest.test_case "interval metadata off agrees" `Quick test_no_interval_metadata_agrees;
    Alcotest.test_case "collective CLF skips invalidated slots" `Quick test_collective_clf_counts_valid_slots_only;
    Alcotest.test_case "superseded tree registrations purged" `Quick test_superseded_tree_registrations_purged;
    Alcotest.test_case "detector create allocates little" `Quick test_detector_create_allocates_little;
    Alcotest.test_case "trace scanner allocates little" `Quick test_scanner_allocates_little;
    QCheck_alcotest.to_alcotest prop_matches_byte_model;
    QCheck_alcotest.to_alcotest prop_modes_equivalent;
    QCheck_alcotest.to_alcotest prop_modes_observations_equivalent;
  ]
