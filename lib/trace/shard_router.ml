open Pmem

(* Sharded, domain-parallel detection: one router (the engine-facing
   sink, running on the dispatching domain) partitions the event stream
   by cache line across N workers, each owning its own bookkeeping and
   per-rule state. Line L belongs to shard [L mod N]; global events
   (fences, epochs, strands, registrations, program end) are broadcast
   to every worker, so each worker sees exactly the subsequence of the
   trace that concerns its lines, in trace order. The merge reassembles
   one canonical report whose findings equal the single-shard run —
   see DESIGN.md "Sharded detection" for the equality contract.

   Transport: events are batched into frames ([Frame_ring], default
   geometry): the router encodes each event into the destination
   shard's staging buffer (no per-event allocation) and publishes a
   whole frame once it is full; workers decode and dispatch a frame at
   a time and bump [processed] once per frame. The drain barrier
   flushes partial frames first, so cross-shard stalls see every routed
   event. *)

let max_prior_seqs = 8
(* Must match the per-backend cap (Store_intf.max_prior_seqs references
   this constant): the cross-shard merge keeps the 8 smallest seqs of
   the union, which equals the single-shard cap because each shard's
   list is itself the 8 smallest of its partition. *)

(* The detector's default per-kind cap. Shard workers skip it on their
   pending walks ([~walk_dedup:false]), so the merge applies it once,
   over the merged findings. *)
let max_bugs_per_kind = 1000

type store_obs = { so_overlapped : bool; so_prior_seqs : int list }

type clf_obs = {
  co_matched : int;
  co_newly : int;
  co_redundant : (int * int * int * int) list;
      (* (addr, size, store seq, prior CLF seq) per already-flushed hit *)
}

type worker = {
  w_event : seq:int -> silent:bool -> Event.t -> unit;
  w_scan_store : seq:int -> tid:int -> lo:int -> hi:int -> store_obs;
  w_fire_store : seq:int -> addr:int -> size:int -> store_obs -> unit;
  w_scan_clf : seq:int -> tid:int -> lo:int -> hi:int -> clf_obs;
  w_fire_clf : seq:int -> addr:int -> size:int -> clf_obs -> unit;
  w_finish : unit -> Bug.report;
}

let cap_priors priors =
  let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> [] in
  take max_prior_seqs (List.sort_uniq compare priors)

let merge_store_obs obs =
  {
    so_overlapped = List.exists (fun o -> o.so_overlapped) obs;
    so_prior_seqs = cap_priors (List.concat_map (fun o -> o.so_prior_seqs) obs);
  }

let merge_clf_obs obs =
  {
    co_matched = List.fold_left (fun acc o -> acc + o.co_matched) 0 obs;
    co_newly = List.fold_left (fun acc o -> acc + o.co_newly) 0 obs;
    co_redundant = List.concat_map (fun o -> o.co_redundant) obs;
  }

(* {2 Transport and worker execution} *)

type t = {
  shards : int;
  workers : worker array;
  rings : Frame_ring.t array; (* one per shard *)
  pushed : int array; (* per shard, router side *)
  processed : int Atomic.t array;
      (* per shard: bumped by the worker once per decoded frame, by its
         event count *)
  mutable domains : Bug.report Domain.t array; (* empty in inline mode *)
  failures : string option ref array;
      (* per shard: the first detector exception, written only by the
         shard's consumer and read after it joined *)
  mutable inline_consumers : (unit -> [ `Empty | `Frame of int | `Stop of int ]) array;
      (* inline mode only: decode one frame of each shard on the router's
         domain *)
  use_domains : bool;
  mutable registered : Addr.range list;
  mutable track_all : bool;
  pinned : (int, unit) Hashtbl.t; (* line index -> (), lines of registered vars *)
  mutable events : int;
  metrics : Obs.Metrics.t;
  worker_metrics : Obs.Metrics.t array;
      (* one registry per worker, mutated only on that worker's domain;
         folded into [metrics] by [finish] after the workers join *)
  labels : (string * string) list array;
      (* per-shard label lists, preallocated — the send path must not
         allocate a label list per event *)
  enc_acc : float array;
      (* per shard, router side: seconds spent encoding/publishing into
         the staging frame since its last publish; observed as
         [shard_encode_seconds] when the frame goes out *)
  flightrec : Obs.Flightrec.t; (* router-side ring: frame publishes, barrier stalls *)
  worker_flightrecs : Obs.Flightrec.t array; (* one per worker domain: frame pops *)
  mutable result : Bug.report option;
}

let shard_label i = [ ("shard", string_of_int i) ]

(* Shard [i]'s consumer step: decode one published frame, dispatch its
   events, then account the whole batch — one [processed] bump and one
   histogram observation per stage per frame, which is the point of
   batching. Stage attribution (all against [Obs.Clock], the clock the
   producer stamps frames with):

     residency = consume start - frame publish stamp   (time in queue)
     dispatch  = sum of the per-event detector calls
     decode    = frame total - dispatch                (byte decoding)

   When metrics are off the whole attribution path is behind one branch
   per frame plus the plain dispatch closure — the overhead guard test
   pins it. The same step runs on the shard's worker domain or, inline,
   on the router's domain right after each publish, so both modes share
   frame boundaries and failure capture. *)
let frame_consumer t i =
  let ring = t.rings.(i) in
  let w = t.workers.(i) in
  let failure = t.failures.(i) in
  let wreg = t.worker_metrics.(i) in
  let labels = t.labels.(i) in
  let fring = t.worker_flightrecs.(i) in
  let metrics_on = Obs.Metrics.is_on wreg in
  let fr_on = Obs.Flightrec.is_on fring in
  let on_event_plain ~seq ~silent ev =
    if !failure = None then
      try w.w_event ~seq ~silent ev with exn -> failure := Some (Printexc.to_string exn)
  in
  let disp_acc = ref 0.0 in
  let on_event =
    if not metrics_on then on_event_plain
    else fun ~seq ~silent ev ->
      let t0 = Obs.Clock.now () in
      on_event_plain ~seq ~silent ev;
      disp_acc := !disp_acc +. (Obs.Clock.now () -. t0)
  in
  let account n t0 =
    if n > 0 then begin
      if metrics_on then begin
        let total = Obs.Clock.now () -. t0 in
        let dispatch = !disp_acc in
        Obs.Metrics.inc wreg ~labels ~by:n "shard_worker_events_total";
        Obs.Metrics.observe wreg ~labels "shard_worker_frame_seconds" total;
        Obs.Metrics.observe wreg ~labels "shard_frame_residency_seconds"
          (Float.max 0.0 (t0 -. Frame_ring.last_frame_ts ring));
        Obs.Metrics.observe wreg ~labels "shard_frame_dispatch_seconds" dispatch;
        Obs.Metrics.observe wreg ~labels "shard_frame_decode_seconds" (Float.max 0.0 (total -. dispatch))
      end;
      ignore (Atomic.fetch_and_add t.processed.(i) n)
    end;
    disp_acc := 0.0;
    if fr_on then
      Obs.Flightrec.record fring ~ts:(Obs.Clock.now ()) ~cat:"frame" ~name:"pop" ~a:i
        ~b:(Frame_ring.consumed_frames ring - 1)
  in
  fun () ->
    let t0 = if metrics_on then Obs.Clock.now () else 0.0 in
    match Frame_ring.try_consume ring ~f:on_event with
    | `Empty -> `Empty
    | (`Frame n | `Stop n) as r ->
        account n t0;
        r

let finish_worker t i =
  let r =
    try t.workers.(i).w_finish ()
    with exn -> { (Bug.empty_report "sharded") with Bug.failure = Some (Printexc.to_string exn) }
  in
  match !(t.failures.(i)) with None -> r | Some msg -> { r with Bug.failure = Some msg }

(* The ring is closed on every exit path: if a worker domain ever dies
   (it should not — detector exceptions are caught by the consumer), the
   router's next push raises [Frame_ring.Closed] instead of blocking
   forever on a consumer that is gone; the engine then quarantines the
   router sink. *)
let worker_loop t i =
  let ring = t.rings.(i) in
  Fun.protect ~finally:(fun () -> Frame_ring.close ring) @@ fun () ->
  let consume = frame_consumer t i in
  let rec go () =
    Frame_ring.wait ring;
    match consume () with `Empty | `Frame _ -> go () | `Stop _ -> finish_worker t i
  in
  go ()

(* Router-side accounting for a just-published frame of [n] events.
   [shard_events_total] is bumped per frame (by the frame's count), not
   per event — totals are exact once the stream is flushed, and the
   queue-depth gauge samples on the shard's own publish cadence. Inline
   mode decodes the frame right here. *)
let on_publish t i n =
  let ring = t.rings.(i) in
  if Obs.Metrics.is_on t.metrics then begin
    Obs.Metrics.inc t.metrics ~labels:t.labels.(i) ~by:n "shard_events_total";
    Obs.Metrics.max_set t.metrics ~labels:t.labels.(i) "shard_queue_depth_peak"
      (float_of_int (Frame_ring.length ring));
    (* The encode stage: accumulated per-event push time (including any
       full-ring wait — honest backpressure) since this shard's previous
       publish, attributed to the frame that just went out. *)
    Obs.Metrics.observe t.metrics ~labels:t.labels.(i) "shard_encode_seconds" t.enc_acc.(i);
    t.enc_acc.(i) <- 0.0
  end;
  if Obs.Flightrec.is_on t.flightrec then
    Obs.Flightrec.record t.flightrec ~ts:(Obs.Clock.now ()) ~cat:"frame" ~name:"publish" ~a:i
      ~b:(Frame_ring.published_frames ring - 1);
  if not t.use_domains then
    while t.inline_consumers.(i) () <> `Empty do
      ()
    done

let send t i ~seq ~silent ev =
  t.pushed.(i) <- t.pushed.(i) + 1;
  let ring = t.rings.(i) in
  if Obs.Metrics.is_on t.metrics then begin
    let t0 = Obs.Clock.now () in
    let n = Frame_ring.push ring ~seq ~silent ev in
    t.enc_acc.(i) <- t.enc_acc.(i) +. (Obs.Clock.now () -. t0);
    if n > 0 then on_publish t i n
  end
  else begin
    let n = Frame_ring.push ring ~seq ~silent ev in
    if n > 0 then on_publish t i n
  end

let broadcast t ~seq ?silent_except ev =
  for i = 0 to t.shards - 1 do
    let silent = match silent_except with None -> false | Some owner -> i <> owner in
    send t i ~seq ~silent ev
  done

(* Publish every shard's staged partial frame. Part of the barrier
   protocol: a drain that did not flush first would spin forever on
   events parked in staging buffers no worker can see. *)
let flush_frames t =
  for i = 0 to t.shards - 1 do
    let n = Frame_ring.flush t.rings.(i) in
    if n > 0 then on_publish t i n
  done

(* Wait until every worker has consumed everything pushed so far. The
   Atomic read of [processed] after the worker's last mutation gives the
   router a happens-before edge: once drained, the router may touch
   worker state directly (the workers are parked in [wait]). *)
let drain t =
  flush_frames t;
  if t.use_domains then
    for i = 0 to t.shards - 1 do
      let n = ref 0 in
      while Atomic.get t.processed.(i) < t.pushed.(i) do
        if !n < 64 then Domain.cpu_relax () else Unix.sleepf 0.000_05;
        incr n
      done
    done

(* {2 Address-range decomposition} *)

let owner t line = line mod t.shards

let in_registered t ~lo ~hi =
  t.track_all || List.exists (fun r -> Addr.overlaps r (Addr.range ~lo ~hi)) t.registered

(* Stalled (multi-line) address event: drain everyone, pin the lines
   when the event is a store (the spanning location it creates must be
   replicated, and every later event on those lines broadcast to keep
   the replicas in step), then scan the event's FULL range synchronously
   on every shard and fire the rule exactly once, with the merged
   observation, on the owner of the first line.

   The full-range scan — never a per-line clip — is what the equality
   contract rests on: a location's extent is observable (a partial
   overwrite unflushes the whole slot; findings report slot extents), so
   a clipped slot would evolve differently from the single-shard run.
   Scanning everywhere means replicas and owner-resident locations are
   each observed once per holding shard; the merged observation dedups
   (priors are sorted/uniqued, counts are used as zero-tests, the
   redundant-flush pick is a canonical minimum), so multiplicity never
   shows. *)
let stalled_address_event t ~seq ~tid ~lo ~hi ev =
  Obs.Metrics.inc t.metrics "shard_barrier_stalls_total";
  if Obs.Metrics.is_on t.metrics then begin
    let t0 = Obs.Clock.now () in
    drain t;
    let dt = Obs.Clock.now () -. t0 in
    Obs.Metrics.observe t.metrics "shard_barrier_stall_seconds" dt;
    if Obs.Flightrec.is_on t.flightrec then
      Obs.Flightrec.record t.flightrec ~ts:t0 ~cat:"barrier" ~name:"stall" ~a:seq
        ~b:(int_of_float (dt *. 1e9))
  end
  else drain t;
  let fire_shard = owner t (Addr.line_of lo) in
  match ev with
  | `Store ->
      List.iter (fun l -> Hashtbl.replace t.pinned l ()) (Addr.lines_of_range ~lo ~hi);
      let obs =
        List.init t.shards (fun i -> t.workers.(i).w_scan_store ~seq ~tid ~lo ~hi)
      in
      t.workers.(fire_shard).w_fire_store ~seq ~addr:lo ~size:(hi - lo) (merge_store_obs obs)
  | `Clf ->
      let obs = List.init t.shards (fun i -> t.workers.(i).w_scan_clf ~seq ~tid ~lo ~hi) in
      t.workers.(fire_shard).w_fire_clf ~seq ~addr:lo ~size:(hi - lo) (merge_clf_obs obs)

let address_event t ~seq ~tid ~addr ~size ev_tag ev =
  let lo = addr and hi = addr + size in
  if size <= 0 || not (in_registered t ~lo ~hi) then ()
  else
    match Addr.lines_of_range ~lo ~hi with
    | [ l ] when Hashtbl.mem t.pinned l ->
        (* A pinned line is replicated: every shard applies the event to
           its replica; only the owner reports. The owner's observation
           is complete — every location overlapping its line lives on it
           (its own residents plus every replica). *)
        broadcast t ~seq ~silent_except:(owner t l) ev
    | [ l ] -> send t (owner t l) ~seq ~silent:false ev
    | l :: rest
      when (not (List.exists (Hashtbl.mem t.pinned) (l :: rest)))
           && List.for_all (fun l' -> owner t l' = owner t l) rest ->
        (* Multi-line but single-owner and unpinned: the spanning
           location stays whole on one shard. *)
        send t (owner t l) ~seq ~silent:false ev
    | _ -> stalled_address_event t ~seq ~tid ~lo ~hi ev_tag

let route t ev =
  t.events <- t.events + 1;
  let seq = t.events in
  match ev with
  | Event.Store { addr; size; tid } -> address_event t ~seq ~tid ~addr ~size `Store ev
  | Event.Clf { addr; size; tid; kind = _ } -> address_event t ~seq ~tid ~addr ~size `Clf ev
  | Event.Tx_log _ ->
      (* Redundant-logging state is per transaction, not per line: keep
         the whole log view on shard 0 so overlap checks see every
         append. Epoch begin/end (which scope the log) are broadcast,
         so shard 0 sees them too. *)
      send t 0 ~seq ~silent:false ev
  | Event.Register_pmem { base; size } ->
      t.track_all <- false;
      t.registered <- Addr.of_base_size base size :: t.registered;
      broadcast t ~seq ev
  | Event.Register_var { name = _; addr; size } ->
      (* Pin the variable's lines: every shard replicates them so the
         broadcast order/durability rules read identical var state.
         Contract: Register_var precedes stores to its range. *)
      List.iter (fun l -> Hashtbl.replace t.pinned l ()) (Addr.lines_of_range ~lo:addr ~hi:(addr + size));
      broadcast t ~seq ev
  | Event.Fence _ | Event.Epoch_begin _ | Event.Epoch_end _ | Event.Strand_begin _ | Event.Strand_end _
  | Event.Join_strand _ | Event.Call _ | Event.Annotation _ | Event.Program_end ->
      broadcast t ~seq ev

(* {2 Merging shard reports} *)

(* Since no location is ever clipped (spanning ranges are replicated
   whole, see [stalled_address_event]), a shard's findings are exactly a
   subset of the single-shard run's — replicated locations just report
   once per holding shard, byte-identically. Canonical sorting brings
   the replicas together; dropping equal neighbours leaves the
   single-shard multiset. *)
let dedup_replicas bugs =
  let rec go = function
    | a :: b :: rest when Bug.compare_canonical a b = 0 -> go (a :: rest)
    | a :: rest -> a :: go rest
    | [] -> []
  in
  go bugs

let dedup_by_kind_addr bugs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (b : Bug.t) ->
      let key = (b.Bug.kind, b.Bug.addr) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    bugs

let cap_per_kind limit bugs =
  let counts = Hashtbl.create 16 in
  List.filter
    (fun (b : Bug.t) ->
      let n = match Hashtbl.find_opt counts b.Bug.kind with None -> 0 | Some n -> n in
      Hashtbl.replace counts b.Bug.kind (n + 1);
      n < limit)
    bugs

(* Merge over the *union* of stat keys: a key present only in shards
   1..N-1 (a backend counter that never tripped on shard 0's partition,
   say) must not vanish from the merged report. Keys keep first-
   appearance order across the shard list — shard 0's order first, then
   later shards' extras — so the merged list is deterministic. Counters
   sum across shards; [avg_*] stats are taken from the first shard that
   carries them (shard 0 when present, whose fence cadence every shard
   shares). *)
let merge_stats reports =
  match reports with
  | [] -> []
  | _ ->
      let order = ref [] in
      let seen = Hashtbl.create 16 in
      List.iter
        (fun r ->
          List.iter
            (fun (key, _) ->
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.add seen key ();
                order := key :: !order
              end)
            r.Bug.stats)
        reports;
      List.rev_map
        (fun key ->
          if String.length key >= 4 && String.sub key 0 4 = "avg_" then
            let v =
              List.fold_left
                (fun acc r -> match acc with Some _ -> acc | None -> List.assoc_opt key r.Bug.stats)
                None reports
            in
            (key, match v with Some v -> v | None -> 0.0)
          else
            ( key,
              List.fold_left
                (fun acc r -> acc +. (try List.assoc key r.Bug.stats with Not_found -> 0.0))
                0.0 reports ))
        !order

let merge_reports t reports =
  let bugs = List.concat_map (fun r -> r.Bug.bugs) reports in
  let bugs =
    List.sort Bug.compare_canonical bugs |> dedup_replicas |> dedup_by_kind_addr
    |> cap_per_kind max_bugs_per_kind
  in
  let failure = List.fold_left (fun acc r -> match acc with Some _ -> acc | None -> r.Bug.failure) None reports in
  {
    Bug.detector = (match reports with r :: _ -> r.Bug.detector | [] -> "sharded");
    bugs;
    events_processed = t.events;
    stats = merge_stats reports;
    failure;
  }

(* {2 The sink} *)

let finish t =
  match t.result with
  | Some r -> r
  | None ->
      (* Guarantee every worker observes the end of the trace even when
         the replayed file lacks an explicit Program_end (end-of-trace
         rules are idempotent on a second delivery). *)
      broadcast t ~seq:t.events Event.Program_end;
      flush_frames t;
      let reports =
        if t.use_domains then begin
          (* Final depth sample + stop, per shard: the gauge is read
             before the stop lands (after the join it would always read
             an empty, drained ring). *)
          Array.iteri
            (fun i ring ->
              if Obs.Metrics.is_on t.metrics then
                Obs.Metrics.max_set t.metrics ~labels:t.labels.(i) "shard_queue_depth_peak"
                  (float_of_int (Frame_ring.length ring));
              Frame_ring.push_stop ring)
            t.rings;
          Array.to_list (Array.map Domain.join t.domains)
        end
        else List.init t.shards (finish_worker t)
      in
      (* The workers have joined (or ran inline): reading their
         registries is race-free, and absorbing them gives the router's
         registry whole-run truth including worker-domain series. *)
      Array.iter (fun wreg -> Obs.Metrics.absorb t.metrics (Obs.Metrics.snapshot wreg)) t.worker_metrics;
      let r = merge_reports t reports in
      t.result <- Some r;
      r

let create ~shards ?(domains = true) ?(metrics = Obs.Metrics.disabled) ?(flightrec = Obs.Flightrec.disabled)
    ?worker_flightrecs make_worker =
  if shards < 1 then invalid_arg "Shard_router.create: shards must be >= 1";
  let worker_flightrecs =
    match worker_flightrecs with
    | None -> Array.init shards (fun _ -> Obs.Flightrec.disabled)
    | Some a ->
        if Array.length a <> shards then
          invalid_arg "Shard_router.create: worker_flightrecs must have one ring per shard";
        a
  in
  let worker_metrics =
    Array.init shards (fun _ -> Obs.Metrics.create ~enabled:(Obs.Metrics.is_on metrics) ())
  in
  if Obs.Metrics.is_on metrics then begin
    for i = 0 to shards - 1 do
      Obs.Metrics.inc metrics ~labels:(shard_label i) ~by:0 "shard_events_total";
      Obs.Metrics.inc worker_metrics.(i) ~labels:(shard_label i) ~by:0 "shard_worker_events_total"
    done;
    Obs.Metrics.inc metrics ~by:0 "shard_barrier_stalls_total"
  end;
  let t =
    {
      shards;
      workers = Array.init shards make_worker;
      rings = Array.init shards (fun _ -> Frame_ring.create ());
      pushed = Array.make shards 0;
      processed = Array.init shards (fun _ -> Atomic.make 0);
      domains = [||];
      failures = Array.init shards (fun _ -> ref None);
      inline_consumers = [||];
      use_domains = domains;
      registered = [];
      track_all = true;
      pinned = Hashtbl.create 16;
      events = 0;
      metrics;
      worker_metrics;
      labels = Array.init shards shard_label;
      enc_acc = Array.make shards 0.0;
      flightrec;
      worker_flightrecs;
      result = None;
    }
  in
  if domains then t.domains <- Array.init shards (fun i -> Domain.spawn (fun () -> worker_loop t i))
  else t.inline_consumers <- Array.init shards (frame_consumer t);
  t

let sink ~shards ?domains ?metrics ?flightrec ?worker_flightrecs make_worker =
  let t = create ~shards ?domains ?metrics ?flightrec ?worker_flightrecs make_worker in
  Sink.make ~name:"pmdebugger-sharded" ~on_event:(route t) ~finish:(fun () -> finish t)
