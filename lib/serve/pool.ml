open Pmtrace

type slot = {
  worker : int;
  ring : Frame_ring.t; (* dispatch domain produces, the session's worker consumes *)
  failed : string option Atomic.t;
  result : Bug.report option Atomic.t;
  wanted : bool Atomic.t;
      (* the dispatcher found the ring full: the worker wakes it once the
         ring has drained to half *)
  consumed : int Atomic.t; (* events decoded by the worker *)
  mutable submitted : int; (* events accepted by the ring, dispatch side *)
}

let failed slot = Atomic.get slot.failed

let result slot = Atomic.get slot.result

(* Per-worker state, mutated only on the worker's domain (or inline on
   the caller's), except [inbox] and [dead], the hand-over points.

   The registry is published as an immutable snapshot through [snap]
   (Atomic.set is a release: the dispatch domain reads a fully-built
   value), so `pmdb stats --daemon` merges live worker truth without
   the workers ever sharing a registry. The flight-recorder ring is
   read directly by the dispatch domain at dump time — a benign data
   race (every slot read sees some previously-written value; OCaml's
   memory model keeps it memory-safe), acceptable for a black-box
   diagnostic. *)
type worker_state = {
  labels : Obs.Metrics.labels; (* [("domain", "<i>")] *)
  reg : Obs.Metrics.t;
  flightrec : Obs.Flightrec.t;
  heatmap : Obs.Heatmap.t;
      (* shared by every session's detector on this worker — hot lines
         are a whole-daemon property, so per-session tables would just
         be merged again anyway *)
  snap : Obs.Metrics.snapshot Atomic.t;
  hm_snap : Obs.Heatmap.snapshot Atomic.t;
  mutable unpublished : int; (* events since the last publish *)
  inbox : slot list Atomic.t; (* sessions opened since the worker's last pass, newest first *)
  dead : bool Atomic.t; (* the worker has exited; later sessions are closed on arrival *)
  mutable live : (slot * Engine.t) list; (* open sessions, in open order *)
}

let publish_every = 512

let publish st =
  Atomic.set st.snap (Obs.Metrics.snapshot st.reg);
  if Obs.Heatmap.is_on st.heatmap then Atomic.set st.hm_snap (Obs.Heatmap.snapshot st.heatmap);
  st.unpublished <- 0

type t = {
  mutable domains : unit Domain.t array; (* empty in inline mode *)
  use_domains : bool;
  make_sink : heatmap:Obs.Heatmap.t -> Sink.t;
  wake : unit -> unit;
  states : worker_state array;
  stopping : bool Atomic.t;
}

(* {2 Worker side}

   Runs on the worker domain (or inline on the caller's): every detector
   exception funnels through the engine's quarantine — the session's
   report then carries the failure, exactly as an offline replay through
   an engine would. *)

let set_failed t slot msg =
  Atomic.set slot.failed (Some msg);
  t.wake ()

let open_engine t st slot =
  (* The engine records dispatch into the worker's ring (virtual seq
     timestamps); worker metrics stay out of the engine so the
     per-session report is byte-identical to an offline replay. *)
  let engine = Engine.create ~flightrec:st.flightrec () in
  (match t.make_sink ~heatmap:st.heatmap with
  | sink -> Engine.attach engine sink
  | exception exn -> set_failed t slot (Printf.sprintf "sink creation raised: %s" (Printexc.to_string exn)));
  if Obs.Metrics.is_on st.reg then begin
    Obs.Metrics.inc st.reg ~labels:st.labels "serve_worker_sessions_total";
    publish st
  end;
  (slot, engine)

let finish_engine t st slot engine =
  let report =
    match Engine.finish_all engine with
    | r :: _ -> r
    | [] -> Bug.empty_report "serve"
    | exception exn -> { (Bug.empty_report "serve") with Bug.failure = Some (Printexc.to_string exn) }
  in
  (* Publish before the result lands: once the dispatch domain sees the
     report (and replies to the client), the published snapshot is
     guaranteed to cover this whole session. *)
  if Obs.Metrics.is_on st.reg then begin
    Obs.Metrics.inc st.reg ~labels:st.labels "serve_worker_finishes_total";
    publish st
  end;
  Atomic.set slot.result (Some report);
  t.wake ()

(* Decode at most one frame of one session. Returns [`Empty] when the
   ring had nothing published, [`Done] after the end-of-stream frame. *)
let step t st (slot, engine) =
  match Frame_ring.try_consume slot.ring ~f:(fun ~seq:_ ~silent:_ ev -> Engine.emit engine ev) with
  | `Empty -> `Empty
  | (`Frame n | `Stop n) as r ->
      ignore (Atomic.fetch_and_add slot.consumed n);
      if Obs.Metrics.is_on st.reg then begin
        Obs.Metrics.inc st.reg ~labels:st.labels ~by:n "serve_worker_events_total";
        st.unpublished <- st.unpublished + n;
        if st.unpublished >= publish_every then publish st
      end;
      (if Atomic.get slot.failed = None then
         match Engine.quarantined engine with (_, msg) :: _ -> set_failed t slot msg | [] -> ());
      (* The dispatcher raised [wanted] before its last look at the ring,
         so reading it after this consume cannot miss a full ring. *)
      if
        Atomic.get slot.wanted
        && Frame_ring.length slot.ring <= Frame_ring.capacity slot.ring / 2
        && Atomic.exchange slot.wanted false
      then t.wake ();
      match r with
      | `Stop _ ->
          finish_engine t st slot engine;
          `Done
      | `Frame _ -> `Frame

(* One round-robin pass: adopt newly opened sessions, then decode at
   most one frame per session. [true] when anything happened. *)
let pass t st =
  let fresh = Atomic.exchange st.inbox [] in
  if fresh <> [] then st.live <- st.live @ List.rev_map (open_engine t st) fresh;
  let progress = ref (fresh <> []) in
  st.live <-
    List.filter
      (fun sess ->
        match step t st sess with
        | `Empty -> true
        | `Frame ->
            progress := true;
            true
        | `Done ->
            progress := true;
            false)
      st.live;
  !progress

let worker_loop t st =
  (* Closing every ring on exit poisons it: a dispatcher push after
     worker death raises [Frame_ring.Closed] instead of waiting on a
     full ring forever. Sessions opened later are closed on arrival. *)
  Fun.protect ~finally:(fun () ->
      Atomic.set st.dead true;
      List.iter (fun (slot, _) -> Frame_ring.close slot.ring) st.live;
      List.iter (fun slot -> Frame_ring.close slot.ring) (Atomic.exchange st.inbox []))
  @@ fun () ->
  let idle = ref 0 in
  while not (Atomic.get t.stopping) do
    if pass t st then idle := 0
    else begin
      Frame_ring.backoff !idle;
      incr idle
    end
  done

let create ?(domains = true) ?(worker_metrics = false) ?(flightrec = false) ?heatmap_cap ~wake ~workers make_sink =
  if workers < 1 then invalid_arg "Pool.create: workers must be >= 1";
  let states =
    Array.init workers (fun i ->
        let labels = [ ("domain", string_of_int i) ] in
        let reg = Obs.Metrics.create ~enabled:worker_metrics () in
        if worker_metrics then
          (* Declare the series so every worker appears in merged
             snapshots even before its first session. *)
          List.iter
            (fun name -> Obs.Metrics.inc reg ~labels ~by:0 name)
            [ "serve_worker_sessions_total"; "serve_worker_events_total"; "serve_worker_finishes_total" ];
        let flightrec = if flightrec then Obs.Flightrec.create () else Obs.Flightrec.disabled in
        let heatmap =
          match heatmap_cap with
          | None -> Obs.Heatmap.disabled
          | Some cap -> Obs.Heatmap.create ~cap ()
        in
        {
          labels;
          reg;
          flightrec;
          heatmap;
          snap = Atomic.make (Obs.Metrics.snapshot reg);
          hm_snap = Atomic.make (Obs.Heatmap.snapshot heatmap);
          unpublished = 0;
          inbox = Atomic.make [];
          dead = Atomic.make false;
          live = [];
        })
  in
  let t =
    { domains = [||]; use_domains = domains; make_sink; wake; states; stopping = Atomic.make false }
  in
  if domains then t.domains <- Array.map (fun st -> Domain.spawn (fun () -> worker_loop t st)) states;
  t

(* {2 Dispatch side} *)

(* Inline mode consumes a ring synchronously at each publish, so the
   ring never fills and frame boundaries match the domain run. *)
let settle t slot =
  if (not t.use_domains) && Frame_ring.length slot.ring > 0 then
    while pass t t.states.(slot.worker) do
      ()
    done

let open_session t ~id =
  let worker = id mod Array.length t.states in
  let slot =
    {
      worker;
      ring = Frame_ring.create ();
      failed = Atomic.make None;
      result = Atomic.make None;
      wanted = Atomic.make false;
      consumed = Atomic.make 0;
      submitted = 0;
    }
  in
  let st = t.states.(worker) in
  let rec add () =
    let cur = Atomic.get st.inbox in
    if not (Atomic.compare_and_set st.inbox cur (slot :: cur)) then add ()
  in
  add ();
  (* Checked after the hand-over: a worker exiting concurrently either
     sees the slot in its inbox or is seen dead here. *)
  if Atomic.get st.dead then Frame_ring.close slot.ring;
  if not t.use_domains then ignore (pass t st);
  slot

(* A failed attempt raises [wanted] and looks once more: either that
   second look finds room, or the worker's next consume sees the flag. *)
let retry slot attempt =
  Atomic.set slot.wanted true;
  attempt ()

let try_submit t slot ev =
  let push () = Frame_ring.try_push slot.ring ~seq:slot.submitted ~silent:false ev in
  let ok = push () || retry slot push in
  if ok then begin
    slot.submitted <- slot.submitted + 1;
    settle t slot
  end;
  ok

let flush t slot =
  ignore (Frame_ring.flush slot.ring);
  settle t slot

let try_finish t slot =
  let push () = Frame_ring.try_push_stop slot.ring in
  let ok = push () || retry slot push in
  if ok then settle t slot;
  ok

let queue_length slot = slot.submitted - Atomic.get slot.consumed

let metrics_snapshots t =
  if t.use_domains then Array.to_list (Array.map (fun st -> Atomic.get st.snap) t.states)
  else Array.to_list (Array.map (fun st -> Obs.Metrics.snapshot st.reg) t.states)

let heatmap_snapshots t =
  if t.use_domains then Array.to_list (Array.map (fun st -> Atomic.get st.hm_snap) t.states)
  else Array.to_list (Array.map (fun st -> Obs.Heatmap.snapshot st.heatmap) t.states)

let flightrec_rings t =
  Array.to_list (Array.mapi (fun i st -> (Printf.sprintf "worker-%d" i, st.flightrec)) t.states)

let stop t =
  if t.use_domains then begin
    Atomic.set t.stopping true;
    Array.iter Domain.join t.domains;
    t.domains <- [||];
    (* The workers have joined: publish their final registries so the
       daemon's shutdown snapshot is exact. *)
    Array.iter publish t.states
  end
