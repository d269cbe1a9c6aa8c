(** Trace (de)serialization.

    A recorded event stream can be saved to a file and replayed later —
    the offline-debugging workflow real instrumentation tools support,
    and a convenient interchange format for regression corpora.

    The format is line-oriented text, one event per line, mirroring
    {!Event.pp} but strictly parseable:

    {v
      store <tid> <addr> <size>
      clf <kind> <tid> <addr> <size>
      fence <tid>
      register_pmem <base> <size>
      epoch_begin <tid> | epoch_end <tid>
      strand_begin <tid> <strand> | strand_end <tid> <strand>
      join_strand <tid>
      tx_log <tid> <obj_addr> <size>
      register_var <addr> <size> <name>
      call <tid> <func>
      assert_durable <addr> <size>
      assert_ordered <a> <asz> <b> <bsz>
      assert_fresh <addr> <size>
      program_end
      # comments and blank lines are ignored
    v} *)

val event_to_line : Event.t -> string

val event_of_line : string -> (Event.t option, string) result
(** [Ok None] for blank/comment lines. *)

val to_string : Recorder.trace -> string

val of_string : string -> (Recorder.trace, string) result
(** Fails with a line-numbered message on the first malformed line. *)

type lenient = {
  trace : Event.t array;
  skipped : (int * string) list;  (** (line number, error) per malformed line *)
  synthesized_end : bool;
      (** true when the input did not end with [program_end] and one was
          appended (unless [synthesize_end:false]). *)
}

val of_string_lenient : ?metrics:Obs.Metrics.t -> ?synthesize_end:bool -> string -> lenient
(** Best-effort parse: malformed lines are skipped and collected as
    per-line diagnostics instead of aborting, and a truncated trace
    (one not ending in [program_end]) gets a synthesized terminator so
    end-of-run detector rules still fire. [synthesize_end] defaults to
    [true]. [metrics] (default disabled) gets
    [trace_io_lines_parsed_total] / [trace_io_lines_skipped_total]. *)

val save : string -> Recorder.trace -> unit
(** Raises [Sys_error] on write failure; the channel is closed on every
    exit path. Written in binary mode so save/load roundtrips are
    byte-identical cross-platform. *)

val load : string -> (Recorder.trace, string) result
(** Strict parse of a trace file into an array. Reads 64 KiB at a
    time (never the whole file into a string); I/O failures are
    reported as [Error] and never leak the input channel. *)

val load_lenient : ?metrics:Obs.Metrics.t -> ?synthesize_end:bool -> string -> (lenient, string) result
(** [load] with {!of_string_lenient} semantics; [Error] only for I/O
    failures. *)

(** {1 Streaming}

    Every reader here is one chunk scanner. It decodes lines where they
    lie in a [Bytes] chunk and builds no per-line string: canonical
    lines of the five hot kinds ([store], [clf <kind>], [fence],
    [epoch_begin], [epoch_end] with single spaces and plain 1-18 digit
    decimals) are read field by field, and every other line (rare
    kinds, hex or [_] ints, CRLF, extra blanks, comments, garbage) goes
    to {!event_of_line} on a copy, so trimming, error text and
    [line N:] positions have one implementation. Files are read in
    64 KiB blocks, strings in one piece, and daemon sessions
    ([Serve.Session.feed]) chunk by chunk; only a line cut by a chunk
    boundary is copied, into the scanner's carry.

    The [*_file] functions hand each event to a callback without ever
    materializing the trace: memory use is bounded by the longest line,
    not the trace length, so multi-GB traces replay in constant memory.
    They share the skip-and-report, synthesize-[program_end] and
    per-line error-position semantics with {!of_string} /
    {!of_string_lenient}. Materialize (via {!load} / {!load_lenient})
    only when random access over the event sequence is genuinely
    required, e.g. crash-point prefix replay. *)

type scanner
(** A scanner's state between chunks: the unterminated line so far
    (the carry), the line count, and whether the last event decoded
    was [program_end]. *)

val scanner : unit -> scanner

val scan :
  scanner ->
  Bytes.t ->
  off:int ->
  len:int ->
  f:(Event.t -> int -> unit) ->
  bad:(int -> string -> bool) ->
  bool
(** [scan sc buf ~off ~len ~f ~bad] decodes every line that ends in
    [buf.[off, off + len)], the carry completing the first, and keeps
    the unterminated tail in the carry. [f ev n] gets each event with
    the length [n] of its line. [bad lineno msg] gets each malformed
    line with its 1-based number and the {!event_of_line} error; it
    returns [false] to stop, in which case [scan] returns [false] and
    drops the rest of the chunk. Chunk boundaries are invisible:
    feeding byte by byte decodes exactly what one call would. *)

val finish : scanner -> f:(Event.t -> int -> unit) -> bad:(int -> string -> bool) -> bool
(** Decode the carried final line, if any: a trace need not end in a
    newline. Same callbacks and result as {!scan}. *)

val carried : scanner -> int
(** Bytes held in the carry. *)

val drop_carried : scanner -> unit

val ended : scanner -> bool
(** The last event decoded was [program_end]. *)

type stream_stats = {
  events : int;  (** events delivered to [f], including a synthesized end *)
  skipped_lines : (int * string) list;  (** (line number, error) per malformed line *)
  synthesized : bool;  (** a [program_end] was appended for a truncated trace *)
}

val fold_file :
  ?metrics:Obs.Metrics.t ->
  ?synthesize_end:bool ->
  ?on_skip:(int -> string -> unit) ->
  string ->
  init:'a ->
  f:('a -> Event.t -> 'a) ->
  ('a * stream_stats, string) result
(** Lenient streaming fold over a trace file. Malformed lines are
    skipped, reported through [on_skip] (called with the 1-based line
    number and error as they are encountered) and collected in the
    returned stats; a truncated trace gets a synthesized terminator
    event unless [synthesize_end:false]. [metrics] (default disabled)
    gets [trace_io_lines_parsed_total] / [trace_io_lines_skipped_total].
    [Error] only for I/O failures. *)

val iter_file :
  ?metrics:Obs.Metrics.t ->
  ?synthesize_end:bool ->
  ?on_skip:(int -> string -> unit) ->
  string ->
  f:(Event.t -> unit) ->
  (stream_stats, string) result
(** {!fold_file} without an accumulator. *)

val fold_file_strict : string -> init:'a -> f:('a -> Event.t -> 'a) -> ('a, string) result
(** Strict streaming fold: stops at the first malformed line with the
    same [line N: ...] message {!of_string} produces. Events already
    folded before the error are discarded with the accumulator. *)

val iter_file_strict : string -> f:(Event.t -> unit) -> (unit, string) result
(** {!fold_file_strict} without an accumulator. Note that [f] has
    already observed every event preceding a malformed line when the
    error is returned — side effects are not rolled back. *)

val save_stream : string -> ((Event.t -> unit) -> unit) -> int
(** [save_stream path produce] opens [path] (binary mode), hands
    [produce] an emit function that appends one line per event, and
    closes the file on every exit path. Returns the number of events
    written. The streaming dual of {!save}: lines go out in 64 KiB
    blocks, so an arbitrarily long run is recorded in constant memory.
    The hot kinds are written by a digit writer, not [Printf]; the
    bytes equal {!event_to_line}'s. *)
