(** Bounded worker pool multiplexing per-session detectors over OCaml
    Domains.

    Sessions are sticky: session [id] always runs on worker
    [id mod workers], so detector state never crosses domains. Each
    session gets its own {!Pmtrace.Frame_ring} at the default geometry
    (4 frames of 256 events), produced by the daemon's single dispatch
    domain and handed to the session's worker when the session opens.
    The worker hosts its sessions' engines (one {!Pmtrace.Engine.t} +
    sink per session, created on the worker) and round-robins
    {!Pmtrace.Frame_ring.try_consume} over their rings, one frame per
    session per pass. The ring's end-of-stream frame
    ({!Pmtrace.Frame_ring.push_stop}) finishes the session; there is no
    control channel beside the ring. Results come back through the
    session's {!slot}.

    {b Wake-ups.} The dispatcher never blocks on a worker: it pushes
    with {!try_submit}/{!try_finish}, and when a ring is full it raises
    a flag in the slot. The worker calls the pool's [wake] function when
    it publishes a session's result, when it records a failure, and when
    it drains a flagged ring to half — so neither backpressure nor a
    finished report waits for the dispatcher's next timer tick.

    Fault containment: a detector exception is caught by the session's
    engine (sink quarantine) and surfaces in [failed]; finishing the
    session still yields a partial report with the failure recorded.
    Sibling sessions on the same worker are untouched. A worker domain
    that somehow dies closes its sessions' rings (and those of sessions
    opened later), so submissions raise {!Pmtrace.Frame_ring.Closed}
    rather than wedging the daemon.

    [~domains:false] runs every worker inline on the caller's domain —
    identical logic, deterministic scheduling — for unit and fuzz
    tests: each published frame is consumed synchronously, so the ring
    never fills. *)

open Pmtrace

type t

type slot
(** One session's end of the pool: its event ring and the cross-domain
    cells the worker reports through. *)

val failed : slot -> string option
(** Set as soon as the session's detector raised (the engine
    quarantined it); the daemon polls this to fail fast instead of
    streaming the rest of the trace into a dead detector. *)

val result : slot -> Bug.report option
(** Set when the worker has consumed the session's end-of-stream frame
    (after {!try_finish}); the report's [failure] field carries any
    quarantine. *)

val create :
  ?domains:bool (** default true *) ->
  ?worker_metrics:bool
    (** default false: give each worker its own enabled
        {!Obs.Metrics} registry recording
        [serve_worker_sessions_total{domain}],
        [serve_worker_events_total{domain}] and
        [serve_worker_finishes_total{domain}]; immutable snapshots are
        published through an atomic on every open/finish and every 512
        events, so the dispatch domain can fold live worker truth into
        {!Obs.Metrics.merge}d stats without sharing a registry across
        domains. *) ->
  ?flightrec:bool
    (** default false: [true] gives each worker its own
        {!Obs.Flightrec} ring at the default capacity, fed by engine
        dispatch with virtual seq timestamps; see {!flightrec_rings}.
        [false] leaves every worker on the disabled ring, so dispatch
        pays one branch per event. *) ->
  ?heatmap_cap:int
    (** when given, each worker owns an enabled {!Obs.Heatmap} of this
        cap, handed to [make_sink] so the session detectors feed it;
        see {!heatmap_snapshots}. Default: the disabled table. *) ->
  wake:(unit -> unit)
    (** called on a worker domain when the dispatcher has something to
        do: a result or a failure landed in a slot, or a ring the
        dispatcher found full drained to half. Must be cheap and safe
        from any domain (the daemon writes one byte into its
        self-pipe). *) ->
  workers:int ->
  (heatmap:Obs.Heatmap.t -> Sink.t) ->
  t
(** [make_sink ~heatmap] is called once per session {e on the worker
    domain}; it must build a fresh, unshared sink. [heatmap] is the
    worker's hot-line table (the disabled singleton unless
    [heatmap_cap] was given) — pass it to the detector, or ignore it.
    It is shared by every session on that worker: hot lines are a
    whole-daemon property, and the table is only ever mutated on the
    worker's own domain. Worker-side telemetry comes from
    [worker_metrics], not the sink — per-session reports stay
    byte-identical to an offline replay. *)

val open_session : t -> id:int -> slot
(** Create the session's ring and hand it to worker [id mod workers].
    Never blocks. *)

val try_submit : t -> slot -> Event.t -> bool
(** Stage one event in the session's ring. [false] when the ring is
    full — the backpressure signal; the worker will [wake] the
    dispatcher once it has drained the ring to half. Never blocks;
    raises {!Pmtrace.Frame_ring.Closed} if the worker died. *)

val flush : t -> slot -> unit
(** Publish the staged partial frame, so the worker sees every event
    submitted so far. The dispatcher calls it at the end of each pass. *)

val try_finish : t -> slot -> bool
(** Publish the end-of-stream frame: the worker finishes the session's
    engine ({!Pmtrace.Engine.finish_all}) and sets {!result}. [false]
    when the ring is full, with the same wake-up as {!try_submit}. *)

val queue_length : slot -> int
(** Events submitted but not yet decoded by the worker. *)

val metrics_snapshots : t -> Obs.Metrics.snapshot list
(** One snapshot per worker: the last atomically-published snapshot in
    domain mode (at most 512 events stale; exact after {!stop}), the
    live registry inline. Fold with {!Obs.Metrics.merge}. Empty
    snapshots unless [worker_metrics] was set. *)

val heatmap_snapshots : t -> Obs.Heatmap.snapshot list
(** One snapshot per worker, published on the same cadence as
    {!metrics_snapshots} (live inline). Fold with {!Obs.Heatmap.merge}.
    Empty snapshots unless [heatmap_cap] was given. *)

val flightrec_rings : t -> (string * Obs.Flightrec.t) list
(** The per-worker flight-recorder rings, labelled ["worker-<i>"], for
    {!Obs.Tracecat.merge}. Reading a ring while its worker is
    live is a benign data race (each entry read sees some
    previously-written value — memory-safe, possibly torn across
    fields): fine for a best-effort black-box dump, not for exact
    accounting. *)

val stop : t -> unit
(** Stop and join every worker. Sessions not yet finished are dropped
    without a report — finish them first for a graceful drain. *)
