(** Bounded single-producer / single-consumer ring of {e frames} — flat
    [Bytes] buffers each packing a batch of encoded events. It is the
    one cross-domain event transport: {!Shard_router} feeds its shard
    workers through it, and the serving daemon gives each session its
    own ring to the session's worker.

    Motivation: a per-event hand-off allocates a boxed message per
    event and pays one sequentially consistent store per element, which
    dominates detection work (~70ns/event dispatch cost became
    ~740ns when sharded). Here the producer encodes events back
    to back into a preallocated staging slot with plain writes ({e no
    allocation per event}) and publishes a whole frame — up to
    [frame_events] records — with a single atomic store; the consumer
    decodes a frame at a time.

    Exactly one domain may call the producer operations
    ({!push}/{!try_push}/{!flush}/{!push_stop}/{!try_push_stop}) and
    exactly one the consumer operations
    ({!wait}/{!try_consume}/{!consume}).

    {b Record format} (stable only within a process): a tag byte
    (constructor, with the replica-silence flag in bit 7), the event's
    stream seq as int64 LE, then the fields — ints as int64 LE, strings
    as int32 LE length + bytes, CLF kinds as one byte. A record larger
    than the slot (a long registered-variable name) grows that slot;
    nothing is ever truncated.

    {b Close semantics.} Either side may {!close}; blocked operations
    wake with {!Closed}; the consumer drains already-published frames
    before raising. The producer re-checks [closed] immediately before
    {e and} after the publishing store, which (under seq-cst atomics)
    makes delivery exact: a {!push}/{!flush}/{!push_stop} that returns
    normally is guaranteed visible to any consumer that drains after
    observing the close, so a publish racing [close] raises rather than
    losing events silently. A consumer that dies must close the ring on
    its way out, so its producer raises {!Closed} instead of waiting on
    a full ring forever. Events still {e staged} when the ring is
    abandoned are lost — flush before walking away. *)

type t

exception Closed

val create : ?frame_bytes:int -> ?slots:int -> ?frame_events:int -> unit -> t
(** [create ()] — a ring of [slots] (default 4, rounded up to a power
    of two, min 2) frame buffers, each published once it holds
    [frame_events] (default 256) events, or earlier via
    {!flush}/{!push_stop}. The defaults are the one geometry the shard
    router and the serve pool use; tests pass smaller ones.
    [frame_bytes] presizes each slot; the default fits [frame_events]
    fixed-size records, and slots grow on demand. *)

val capacity : t -> int
(** Ring capacity in frames. *)

val length : t -> int
(** Published-but-unconsumed frames. The two index reads can tear
    against concurrent publish/consume, so the result is clamped to
    [0..capacity] — approximate, monotonic-consistent; feeds the
    queue-depth gauges (in {e frames}, not events). *)

val staged : t -> int
(** Events encoded but not yet published (producer side only). *)

val published_frames : t -> int
(** Frames published so far (producer side). Because the ring is FIFO,
    frame [k] on the producer is frame [k] on the consumer — the pair
    (ring, index) names one frame end to end, which is how the causal
    trace draws publish→pop flow arrows. *)

val consumed_frames : t -> int
(** Frames fully decoded so far (consumer side). *)

val close : t -> unit
(** Poison the ring. Idempotent, callable from either side. Published
    frames remain consumable; staged events are lost. *)

val is_closed : t -> bool

(** {1 Producer} *)

val push : t -> seq:int -> silent:bool -> Event.t -> int
(** Encode one event into the staging frame. Returns the {e total}
    number of events published by this call: [0] while staging,
    otherwise the event count of the frame(s) it published — because
    this push filled the frame to [frame_events], or because the
    staging slot ran out of bytes (the prior events publish and this
    event starts a fresh frame). Every published frame is accounted in
    some call's return value, so a caller that consumes only on a
    positive return sees every frame. Blocks (backoff) while the ring
    is full of unconsumed frames. Raises {!Closed} if the ring is
    — or becomes, while blocked or publishing — closed; on a raise
    {e after} the publishing store the frame is still delivered to a
    draining consumer (see close semantics above). *)

val try_push : t -> seq:int -> silent:bool -> Event.t -> bool
(** Non-blocking {!push}: [false] — nothing staged, nothing published —
    when the push would have to wait for the consumer to free a slot.
    It does not report how many events it published; a caller that
    consumes on the producer's domain uses {!push} or polls {!length}.
    Raises {!Closed} like {!push}. *)

val flush : t -> int
(** Publish the staged partial frame, if any; returns its event count
    (0 when nothing was staged). The barrier-flush rule: callers must
    flush before waiting on consumer progress, or the staged tail can
    never drain. *)

val push_stop : t -> unit
(** Publish the staged partial frame (possibly empty) marked
    end-of-stream: the consumer decodes its events, then learns the
    stream is over. *)

val try_push_stop : t -> bool
(** Non-blocking {!push_stop}: [false] when every slot holds an
    unconsumed frame and nothing was staged. *)

(** {1 Consumer} *)

val wait : t -> unit
(** Block (backoff) until at least one published frame is available.
    Raises {!Closed} once the ring is closed and drained. *)

val try_consume :
  t -> f:(seq:int -> silent:bool -> Event.t -> unit) -> [ `Empty | `Frame of int | `Stop of int ]
(** Decode the head frame, calling [f] per event in order, then free
    the slot. [`Frame n] delivered [n] events; [`Stop n] delivered [n]
    events and the stream is over; [`Empty] means no published frame
    (closed or not) — never blocks, never raises {!Closed}. *)

val consume :
  t -> f:(seq:int -> silent:bool -> Event.t -> unit) -> [ `Frame of int | `Stop of int ]
(** Blocking {!try_consume}: {!wait} then decode. Raises {!Closed} once
    closed and drained. *)

val backoff : int -> unit
(** [backoff n] — the wait schedule of the blocking operations, for the
    [n]th consecutive idle poll: spin ([Domain.cpu_relax]) for the first
    32, then sleep from 1µs doubling up to 1ms. For consumers that poll
    several rings with {!try_consume}. *)

val last_frame_ts : t -> float
(** Publish timestamp ({!Obs.Clock.now} at the producer's publishing
    store) of the most recently consumed frame; [0.0] before the first
    {!try_consume} that returns a frame. Consumer side only. Workers
    derive queue residency from it ([now - last_frame_ts] right after a
    consume), and the stamps of successive frames of one ring are
    non-decreasing (the QCheck law pins this across wraparound and
    stop-with-partial-frame). *)
