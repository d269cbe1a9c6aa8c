(* Bounded single-producer / single-consumer ring of *frames*: flat
   byte buffers each packing a batch of encoded events. This is the one
   cross-domain event transport: [Shard_router] feeds its shard workers
   through it and the serve pool its session workers. A per-event
   hand-off costs one boxed message allocation plus one seq-cst store
   per event, which dominates detection work at ~70ns/event; packing
   [frame_events] events per published frame amortizes the atomic
   protocol and allocates nothing per event — the encoder writes
   straight into a preallocated [Bytes] slot.

   Ring protocol: the producer fills the staging slot [tail land mask]
   with plain writes, then publishes the whole frame with one seq-cst
   store of [tail]; the consumer's seq-cst read of [tail] therefore
   happens-after every byte of the frame. The consumer bumps [head]
   after decoding, freeing the slot. Each side caches the other's index
   and refreshes it only on apparent full/empty.

   Frame layout: a slot is a [Bytes] buffer of [used.(i)] valid bytes
   holding [counts.(i)] records back to back. A record is

     tag byte (constructor | 0x80 silent bit)
     seq      int64 LE
     fields   ints as int64 LE; strings as int32 LE length + bytes;
              CLF kind as one byte

   [stops.(i)] marks the end-of-stream frame ([push_stop]): its events
   (a partial frame is allowed to ride along) are decoded first, then
   the consumer learns the stream is over — so "Stop with a partial
   frame pending" delivers the tail events exactly once.

   Close semantics (with an exact-delivery guarantee): either side may
   [close]. A blocked producer or consumer wakes up with [Closed]; the
   consumer drains already-published frames before raising. The
   producer re-checks [closed] immediately before *and* after
   publishing: under sequentially consistent atomics, a [push]/[flush]
   that returns normally read [closed = false] after its [tail] store,
   so any consumer that observes [closed = true] and then does a final
   drain (as [wait] does) is guaranteed to see the frame — a publish
   racing [close] can therefore never lose events silently; the
   producer gets [Closed] instead. Events still *staged* (never
   published) when the producer gives up are lost by design — callers
   must [flush] before abandoning the ring. *)

exception Closed

type t = {
  slots : Bytes.t array; (* producer may replace (grow) an unclaimed-by-consumer slot *)
  used : int array; (* valid payload bytes per published slot *)
  counts : int array; (* events per published slot *)
  stops : bool array; (* end-of-stream marker per published slot *)
  pub_ts : float array; (* Obs.Clock publish timestamp per published slot *)
  mask : int;
  head : int Atomic.t; (* next frame to consume; written by the consumer only *)
  tail : int Atomic.t; (* next frame to publish; written by the producer only *)
  closed : bool Atomic.t;
  mutable cached_head : int; (* producer's view of [head] *)
  mutable cached_tail : int; (* consumer's view of [tail] *)
  frame_events : int; (* publish threshold *)
  mutable st_used : int; (* staging bytes in slot [tail land mask] *)
  mutable st_count : int; (* staged events *)
  mutable st_claimed : bool; (* staging slot checked free of the consumer *)
  mutable last_pub_ts : float; (* consumer's copy of the last decoded frame's stamp *)
}

(* The one production geometry, used by the shard router and every
   serve session: 4 frames of 256 events. Tests pass smaller ones to
   reach frame and wraparound boundaries quickly. *)
let create ?(frame_bytes = 0) ?slots:(want = 4) ?(frame_events = 256) () =
  if frame_events < 1 then invalid_arg "Frame_ring.create: frame_events must be >= 1";
  let want = max 2 want in
  let rec pow2 n = if n >= want then n else pow2 (n * 2) in
  let n = pow2 2 in
  (* Enough room for [frame_events] fixed-size records; string-carrying
     records grow the slot on demand. *)
  let frame_bytes = if frame_bytes > 0 then frame_bytes else (frame_events * 40) + 64 in
  {
    slots = Array.init n (fun _ -> Bytes.create frame_bytes);
    used = Array.make n 0;
    counts = Array.make n 0;
    stops = Array.make n false;
    pub_ts = Array.make n 0.0;
    mask = n - 1;
    head = Atomic.make 0;
    tail = Atomic.make 0;
    closed = Atomic.make false;
    cached_head = 0;
    cached_tail = 0;
    frame_events;
    st_used = 0;
    st_count = 0;
    st_claimed = false;
    last_pub_ts = 0.0;
  }

let capacity t = t.mask + 1

(* Published (undecoded) frames. The [tail]/[head] reads can tear
   against concurrent publish/consume — clamp to the only occupancies a
   fixed ring can hold instead of reporting a transient negative or
   over-capacity value. *)
let length t =
  let tail = Atomic.get t.tail in
  let head = Atomic.get t.head in
  min (capacity t) (max 0 (tail - head))

let staged t = t.st_count

(* Monotone frame counters for the causal trace: the producer has
   published frames [0 .. published_frames - 1]; the consumer has
   decoded frames [0 .. consumed_frames - 1]. Indices line up because
   the ring is FIFO, so (ring, index) names one frame on both sides. *)
let published_frames t = Atomic.get t.tail

let consumed_frames t = Atomic.get t.head

let close t = Atomic.set t.closed true

let is_closed t = Atomic.get t.closed

let spin_limit = 32

let max_sleep = 0.001

let backoff n =
  if n < spin_limit then Domain.cpu_relax ()
  else begin
    let k = min (n - spin_limit) 20 in
    Unix.sleepf (min max_sleep (1e-6 *. float_of_int (1 lsl k)))
  end

(* {2 Record encoding} *)

let set_i b off v = Bytes.set_int64_le b off (Int64.of_int v)

let get_i b off = Int64.to_int (Bytes.get_int64_le b off)

let set_str b off s =
  Bytes.set_int32_le b off (Int32.of_int (String.length s));
  Bytes.blit_string s 0 b (off + 4) (String.length s)

let get_str b off =
  let len = Int32.to_int (Bytes.get_int32_le b off) in
  Bytes.sub_string b (off + 4) len

(* tag byte: constructor in the low 7 bits, silent replica bit at 0x80 *)
let tag_store = 0
and tag_clf = 1
and tag_fence = 2
and tag_register_pmem = 3
and tag_epoch_begin = 4
and tag_epoch_end = 5
and tag_strand_begin = 6
and tag_strand_end = 7
and tag_join_strand = 8
and tag_tx_log = 9
and tag_register_var = 10
and tag_call = 11
and tag_assert_durable = 12
and tag_assert_ordered = 13
and tag_assert_fresh = 14
and tag_program_end = 15

let clf_kind_byte = function Event.Clwb -> 0 | Event.Clflush -> 1 | Event.Clflushopt -> 2

let clf_kind_of_byte = function
  | 0 -> Event.Clwb
  | 1 -> Event.Clflush
  | 2 -> Event.Clflushopt
  | b -> invalid_arg (Printf.sprintf "Frame_ring: bad CLF kind byte %d" b)

(* Encoded size of one record: tag + seq + fields. *)
let need ev =
  9
  +
  match ev with
  | Event.Store _ -> 24
  | Event.Clf _ -> 25
  | Event.Fence _ -> 8
  | Event.Register_pmem _ -> 16
  | Event.Epoch_begin _ | Event.Epoch_end _ -> 8
  | Event.Strand_begin _ | Event.Strand_end _ -> 16
  | Event.Join_strand _ -> 8
  | Event.Tx_log _ -> 24
  | Event.Register_var { name; _ } -> 20 + String.length name
  | Event.Call { func; _ } -> 12 + String.length func
  | Event.Annotation (Event.Assert_durable _) -> 16
  | Event.Annotation (Event.Assert_ordered _) -> 32
  | Event.Annotation (Event.Assert_fresh _) -> 16
  | Event.Program_end -> 0

let encode b off ~seq ~silent ev =
  let tag t = Bytes.unsafe_set b off (Char.unsafe_chr (if silent then t lor 0x80 else t)) in
  set_i b (off + 1) seq;
  let off = off + 9 in
  match ev with
  | Event.Store { addr; size; tid } ->
      tag tag_store;
      set_i b off addr;
      set_i b (off + 8) size;
      set_i b (off + 16) tid
  | Event.Clf { addr; size; kind; tid } ->
      tag tag_clf;
      set_i b off addr;
      set_i b (off + 8) size;
      set_i b (off + 16) tid;
      Bytes.set b (off + 24) (Char.chr (clf_kind_byte kind))
  | Event.Fence { tid } ->
      tag tag_fence;
      set_i b off tid
  | Event.Register_pmem { base; size } ->
      tag tag_register_pmem;
      set_i b off base;
      set_i b (off + 8) size
  | Event.Epoch_begin { tid } ->
      tag tag_epoch_begin;
      set_i b off tid
  | Event.Epoch_end { tid } ->
      tag tag_epoch_end;
      set_i b off tid
  | Event.Strand_begin { tid; strand } ->
      tag tag_strand_begin;
      set_i b off tid;
      set_i b (off + 8) strand
  | Event.Strand_end { tid; strand } ->
      tag tag_strand_end;
      set_i b off tid;
      set_i b (off + 8) strand
  | Event.Join_strand { tid } ->
      tag tag_join_strand;
      set_i b off tid
  | Event.Tx_log { obj_addr; size; tid } ->
      tag tag_tx_log;
      set_i b off obj_addr;
      set_i b (off + 8) size;
      set_i b (off + 16) tid
  | Event.Register_var { name; addr; size } ->
      tag tag_register_var;
      set_i b off addr;
      set_i b (off + 8) size;
      set_str b (off + 16) name
  | Event.Call { func; tid } ->
      tag tag_call;
      set_i b off tid;
      set_str b (off + 8) func
  | Event.Annotation (Event.Assert_durable { addr; size }) ->
      tag tag_assert_durable;
      set_i b off addr;
      set_i b (off + 8) size
  | Event.Annotation (Event.Assert_ordered { first_addr; first_size; then_addr; then_size }) ->
      tag tag_assert_ordered;
      set_i b off first_addr;
      set_i b (off + 8) first_size;
      set_i b (off + 16) then_addr;
      set_i b (off + 24) then_size
  | Event.Annotation (Event.Assert_fresh { addr; size }) ->
      tag tag_assert_fresh;
      set_i b off addr;
      set_i b (off + 8) size
  | Event.Program_end -> tag tag_program_end

(* Decode the record at [off]; calls [f] and returns the next offset. *)
let decode b off ~f =
  let tagb = Char.code (Bytes.unsafe_get b off) in
  let silent = tagb land 0x80 <> 0 in
  let tag = tagb land 0x7f in
  let seq = get_i b (off + 1) in
  let off = off + 9 in
  let emit n ev =
    f ~seq ~silent ev;
    off + n
  in
  if tag = tag_store then
    emit 24 (Event.Store { addr = get_i b off; size = get_i b (off + 8); tid = get_i b (off + 16) })
  else if tag = tag_clf then
    emit 25
      (Event.Clf
         {
           addr = get_i b off;
           size = get_i b (off + 8);
           tid = get_i b (off + 16);
           kind = clf_kind_of_byte (Char.code (Bytes.get b (off + 24)));
         })
  else if tag = tag_fence then emit 8 (Event.Fence { tid = get_i b off })
  else if tag = tag_register_pmem then
    emit 16 (Event.Register_pmem { base = get_i b off; size = get_i b (off + 8) })
  else if tag = tag_epoch_begin then emit 8 (Event.Epoch_begin { tid = get_i b off })
  else if tag = tag_epoch_end then emit 8 (Event.Epoch_end { tid = get_i b off })
  else if tag = tag_strand_begin then
    emit 16 (Event.Strand_begin { tid = get_i b off; strand = get_i b (off + 8) })
  else if tag = tag_strand_end then
    emit 16 (Event.Strand_end { tid = get_i b off; strand = get_i b (off + 8) })
  else if tag = tag_join_strand then emit 8 (Event.Join_strand { tid = get_i b off })
  else if tag = tag_tx_log then
    emit 24 (Event.Tx_log { obj_addr = get_i b off; size = get_i b (off + 8); tid = get_i b (off + 16) })
  else if tag = tag_register_var then begin
    let name = get_str b (off + 16) in
    emit
      (20 + String.length name)
      (Event.Register_var { name; addr = get_i b off; size = get_i b (off + 8) })
  end
  else if tag = tag_call then begin
    let func = get_str b (off + 8) in
    emit (12 + String.length func) (Event.Call { func; tid = get_i b off })
  end
  else if tag = tag_assert_durable then
    emit 16 (Event.Annotation (Event.Assert_durable { addr = get_i b off; size = get_i b (off + 8) }))
  else if tag = tag_assert_ordered then
    emit 32
      (Event.Annotation
         (Event.Assert_ordered
            {
              first_addr = get_i b off;
              first_size = get_i b (off + 8);
              then_addr = get_i b (off + 16);
              then_size = get_i b (off + 24);
            }))
  else if tag = tag_assert_fresh then
    emit 16 (Event.Annotation (Event.Assert_fresh { addr = get_i b off; size = get_i b (off + 8) }))
  else if tag = tag_program_end then emit 0 Event.Program_end
  else invalid_arg (Printf.sprintf "Frame_ring: bad record tag %d" tag)

(* {2 Producer} *)

(* [true] once the staging slot [tail land mask] is free of the
   consumer; [false] while every slot holds an unconsumed frame. Only
   needed once per frame: after a successful claim the slot is the
   producer's until published. *)
let try_claim t =
  t.st_claimed
  ||
  let tail = Atomic.get t.tail in
  if tail - t.cached_head >= capacity t then t.cached_head <- Atomic.get t.head;
  t.st_claimed <- tail - t.cached_head < capacity t;
  t.st_claimed

let claim t =
  let n = ref 0 in
  while not (try_claim t) do
    if Atomic.get t.closed then raise Closed;
    backoff !n;
    incr n
  done

let publish t ~stop =
  let tail = Atomic.get t.tail in
  let idx = tail land t.mask in
  let n = t.st_count in
  t.used.(idx) <- t.st_used;
  t.counts.(idx) <- n;
  t.stops.(idx) <- stop;
  (* One clock read per frame (amortized over up to [frame_events]
     events): the consumer derives queue residency from it. The plain
     write is published by the seq-cst [tail] store below, like the
     frame bytes. *)
  t.pub_ts.(idx) <- Obs.Clock.now ();
  t.st_used <- 0;
  t.st_count <- 0;
  t.st_claimed <- false;
  (* Immediately before publishing: don't hand a frame to a consumer
     known to be gone. *)
  if Atomic.get t.closed then raise Closed;
  Atomic.set t.tail (tail + 1);
  (* Immediately after: reading [closed = false] here (seq-cst, after
     the [tail] store) guarantees any closer's final drain observes the
     frame — see the header comment. *)
  if Atomic.get t.closed then raise Closed;
  n

let flush t = if t.st_count > 0 then publish t ~stop:false else 0

let push t ~seq ~silent ev =
  if Atomic.get t.closed then raise Closed;
  claim t;
  let sz = need ev in
  let idx = Atomic.get t.tail land t.mask in
  let buf = t.slots.(idx) in
  let published = ref 0 in
  let buf =
    if t.st_used + sz <= Bytes.length buf then buf
    else if t.st_count > 0 then begin
      (* Frame full by bytes: publish it and start a new one. The count
         goes into this call's return value — a caller that only
         consumes on a positive return (Shard_router's inline mode)
         must learn about byte-full frames too, or nothing ever frees
         the ring and the full-ring wait above spins forever. *)
      published := publish t ~stop:false;
      claim t;
      let idx = Atomic.get t.tail land t.mask in
      let buf = t.slots.(idx) in
      if sz <= Bytes.length buf then buf
      else begin
        (* One oversized record (a long registered-variable name):
           replace the empty staging slot with a bigger buffer. Safe —
           the consumer only reads a slot after its publish. *)
        let bigger = Bytes.create (max sz (2 * Bytes.length buf)) in
        t.slots.(idx) <- bigger;
        bigger
      end
    end
    else begin
      let bigger = Bytes.create (max sz (2 * Bytes.length buf)) in
      t.slots.(idx) <- bigger;
      bigger
    end
  in
  encode buf t.st_used ~seq ~silent ev;
  t.st_used <- t.st_used + sz;
  t.st_count <- t.st_count + 1;
  if t.st_count >= t.frame_events then !published + publish t ~stop:false else !published

let push_stop t =
  if Atomic.get t.closed then raise Closed;
  claim t;
  (* The staged partial frame (possibly empty) becomes the end-of-stream
     frame: its events are decoded first, then the consumer stops. *)
  ignore (publish t ~stop:true)

(* Non-blocking twins: succeed exactly when the blocking call would not
   wait. A push that overflows the staging slot's bytes publishes the
   slot and starts the next one, so it needs a second free slot. *)
let try_push t ~seq ~silent ev =
  if Atomic.get t.closed then raise Closed;
  try_claim t
  && (t.st_count = 0
     || t.st_used + need ev <= Bytes.length t.slots.(Atomic.get t.tail land t.mask)
     || Atomic.get t.tail + 1 - Atomic.get t.head < capacity t)
  && begin
       ignore (push t ~seq ~silent ev);
       true
     end

let try_push_stop t =
  if Atomic.get t.closed then raise Closed;
  try_claim t
  && begin
       ignore (publish t ~stop:true);
       true
     end

(* {2 Consumer} *)

let wait t =
  let rec go n =
    let head = Atomic.get t.head in
    if head >= t.cached_tail then t.cached_tail <- Atomic.get t.tail;
    if head < t.cached_tail then ()
    else if Atomic.get t.closed then begin
      (* Final drain: re-check for frames published before the close —
         the producer's post-publish [closed] check relies on it. *)
      t.cached_tail <- Atomic.get t.tail;
      if head >= t.cached_tail then raise Closed
    end
    else begin
      backoff n;
      go (n + 1)
    end
  in
  go 0

let try_consume t ~f =
  let head = Atomic.get t.head in
  if head >= t.cached_tail then t.cached_tail <- Atomic.get t.tail;
  if head >= t.cached_tail then `Empty
  else begin
    let idx = head land t.mask in
    let buf = t.slots.(idx) in
    let limit = t.used.(idx) in
    let n = t.counts.(idx) in
    let stop = t.stops.(idx) in
    (* Copy the stamp before the [head] bump frees the slot for the
       producer to overwrite; single consumer, so the field is private
       to this side. *)
    t.last_pub_ts <- t.pub_ts.(idx);
    let off = ref 0 in
    for _ = 1 to n do
      off := decode buf !off ~f
    done;
    assert (!off = limit);
    Atomic.set t.head (head + 1);
    if stop then `Stop n else `Frame n
  end

let rec consume t ~f =
  wait t;
  match try_consume t ~f with `Empty -> consume t ~f | (`Frame _ | `Stop _) as r -> r

let last_frame_ts t = t.last_pub_ts
