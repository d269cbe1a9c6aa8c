open Pmtrace

type phase = Streaming | Draining | Awaiting | Replied

type t = {
  id : int;
  name : string;
  lenient : bool;
  created : float; (* daemon clock at accept, for submit->result latency *)
  scan : Trace_io.scanner;
  pending : (Event.t * int) Queue.t;
  mutable pending_bytes : int;
  mutable delivered : int;
  mutable skipped : int;
  mutable bytes_read : int;
  mutable synthesized_end : bool;
  mutable last_activity : float;
  mutable phase : phase;
  mutable status : Status.t;
  mutable error : string option;
}

let create ~id ~name ~lenient ~now =
  {
    id;
    name;
    lenient;
    created = now;
    scan = Trace_io.scanner ();
    pending = Queue.create ();
    pending_bytes = 0;
    delivered = 0;
    skipped = 0;
    bytes_read = 0;
    synthesized_end = false;
    last_activity = now;
    phase = Streaming;
    status = Status.Ok;
    error = None;
  }

let id t = t.id

let name t = t.name

let lenient t = t.lenient

let phase t = t.phase

let status t = t.status

let error t = t.error

let events_delivered t = t.delivered

let skipped t = t.skipped

let bytes_read t = t.bytes_read

let synthesized_end t = t.synthesized_end

let last_activity t = t.last_activity

let created t = t.created

let pending_events t = Queue.length t.pending

let live_bytes t = Trace_io.carried t.scan + t.pending_bytes

(* The cost a queued event is charged against the session budget: its
   line length plus boxing overhead. What matters is that the charge is
   proportional to the bytes the client actually sent, so a budget in
   bytes bounds both the carried partial line and the parsed queue. *)
let push t ev len =
  let cost = len + 16 in
  Queue.push (ev, cost) t.pending;
  t.pending_bytes <- t.pending_bytes + cost

(* Strict sessions fail the whole session at the first malformed line
   with the same ["line N: ..."] message the strict file replay
   produces; lenient sessions skip and count it, mirroring
   [pmdb replay --lenient]. *)
let bad t lineno msg =
  if t.lenient then begin
    t.skipped <- t.skipped + 1;
    true
  end
  else begin
    t.status <- Status.Trace_error;
    t.error <- Some (Printf.sprintf "line %d: %s" lineno msg);
    false
  end

let result t ok = if ok then Ok () else Error (Option.value t.error ~default:"")

(* The trace scanner decodes complete lines straight from the chunk and
   carries the unterminated tail. A strict failure stops the scan, so
   bytes after the bad line are dropped. *)
let feed t ~now buf ~off ~len =
  t.last_activity <- now;
  t.bytes_read <- t.bytes_read + len;
  result t (Trace_io.scan t.scan buf ~off ~len ~f:(push t) ~bad:(bad t))

let flush_partial t = result t (Trace_io.finish t.scan ~f:(push t) ~bad:(bad t))

let peek_pending t = match Queue.peek_opt t.pending with None -> None | Some (ev, _) -> Some ev

let pop_pending t =
  match Queue.take_opt t.pending with
  | None -> None
  | Some (ev, cost) ->
      t.pending_bytes <- t.pending_bytes - cost;
      t.delivered <- t.delivered + 1;
      Some ev

let drop_pending t =
  Queue.clear t.pending;
  t.pending_bytes <- 0;
  Trace_io.drop_carried t.scan

let ensure_end t =
  if not (t.synthesized_end || Trace_io.ended t.scan) then begin
    t.synthesized_end <- true;
    Queue.push (Event.Program_end, 0) t.pending
  end

let set_phase t phase = t.phase <- phase

let terminate t status msg =
  if t.status = Status.Ok then begin
    t.status <- status;
    t.error <- msg
  end
