let kind_to_string = function Event.Clwb -> "clwb" | Event.Clflush -> "clflush" | Event.Clflushopt -> "clflushopt"

let kind_of_string = function
  | "clwb" -> Some Event.Clwb
  | "clflush" -> Some Event.Clflush
  | "clflushopt" -> Some Event.Clflushopt
  | _ -> None

let event_to_line = function
  | Event.Store { addr; size; tid } -> Printf.sprintf "store %d %d %d" tid addr size
  | Event.Clf { addr; size; kind; tid } -> Printf.sprintf "clf %s %d %d %d" (kind_to_string kind) tid addr size
  | Event.Fence { tid } -> Printf.sprintf "fence %d" tid
  | Event.Register_pmem { base; size } -> Printf.sprintf "register_pmem %d %d" base size
  | Event.Epoch_begin { tid } -> Printf.sprintf "epoch_begin %d" tid
  | Event.Epoch_end { tid } -> Printf.sprintf "epoch_end %d" tid
  | Event.Strand_begin { tid; strand } -> Printf.sprintf "strand_begin %d %d" tid strand
  | Event.Strand_end { tid; strand } -> Printf.sprintf "strand_end %d %d" tid strand
  | Event.Join_strand { tid } -> Printf.sprintf "join_strand %d" tid
  | Event.Tx_log { obj_addr; size; tid } -> Printf.sprintf "tx_log %d %d %d" tid obj_addr size
  | Event.Register_var { name; addr; size } -> Printf.sprintf "register_var %d %d %s" addr size name
  | Event.Call { func; tid } -> Printf.sprintf "call %d %s" tid func
  | Event.Annotation (Event.Assert_durable { addr; size }) -> Printf.sprintf "assert_durable %d %d" addr size
  | Event.Annotation (Event.Assert_ordered { first_addr; first_size; then_addr; then_size }) ->
      Printf.sprintf "assert_ordered %d %d %d %d" first_addr first_size then_addr then_size
  | Event.Annotation (Event.Assert_fresh { addr; size }) -> Printf.sprintf "assert_fresh %d %d" addr size
  | Event.Program_end -> "program_end"

let event_of_line line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then Ok None
  else begin
    let words = String.split_on_char ' ' line |> List.filter (fun w -> w <> "") in
    let int s = int_of_string_opt s in
    let bad () = Error (Printf.sprintf "cannot parse event %S" line) in
    match words with
    | [ "store"; tid; addr; size ] -> (
        match (int tid, int addr, int size) with
        | Some tid, Some addr, Some size -> Ok (Some (Event.Store { addr; size; tid }))
        | _ -> bad ())
    | [ "clf"; kind; tid; addr; size ] -> (
        match (kind_of_string kind, int tid, int addr, int size) with
        | Some kind, Some tid, Some addr, Some size -> Ok (Some (Event.Clf { addr; size; kind; tid }))
        | _ -> bad ())
    | [ "fence"; tid ] -> ( match int tid with Some tid -> Ok (Some (Event.Fence { tid })) | None -> bad ())
    | [ "register_pmem"; base; size ] -> (
        match (int base, int size) with
        | Some base, Some size -> Ok (Some (Event.Register_pmem { base; size }))
        | _ -> bad ())
    | [ "epoch_begin"; tid ] -> (
        match int tid with Some tid -> Ok (Some (Event.Epoch_begin { tid })) | None -> bad ())
    | [ "epoch_end"; tid ] -> ( match int tid with Some tid -> Ok (Some (Event.Epoch_end { tid })) | None -> bad ())
    | [ "strand_begin"; tid; strand ] -> (
        match (int tid, int strand) with
        | Some tid, Some strand -> Ok (Some (Event.Strand_begin { tid; strand }))
        | _ -> bad ())
    | [ "strand_end"; tid; strand ] -> (
        match (int tid, int strand) with
        | Some tid, Some strand -> Ok (Some (Event.Strand_end { tid; strand }))
        | _ -> bad ())
    | [ "join_strand"; tid ] -> (
        match int tid with Some tid -> Ok (Some (Event.Join_strand { tid })) | None -> bad ())
    | [ "tx_log"; tid; obj_addr; size ] -> (
        match (int tid, int obj_addr, int size) with
        | Some tid, Some obj_addr, Some size -> Ok (Some (Event.Tx_log { obj_addr; size; tid }))
        | _ -> bad ())
    | "register_var" :: addr :: size :: name_parts when name_parts <> [] -> (
        match (int addr, int size) with
        | Some addr, Some size ->
            Ok (Some (Event.Register_var { name = String.concat " " name_parts; addr; size }))
        | _ -> bad ())
    | "call" :: tid :: func_parts when func_parts <> [] -> (
        match int tid with
        | Some tid -> Ok (Some (Event.Call { func = String.concat " " func_parts; tid }))
        | None -> bad ())
    | [ "assert_durable"; addr; size ] -> (
        match (int addr, int size) with
        | Some addr, Some size -> Ok (Some (Event.Annotation (Event.Assert_durable { addr; size })))
        | _ -> bad ())
    | [ "assert_ordered"; a; asz; b; bsz ] -> (
        match (int a, int asz, int b, int bsz) with
        | Some first_addr, Some first_size, Some then_addr, Some then_size ->
            Ok (Some (Event.Annotation (Event.Assert_ordered { first_addr; first_size; then_addr; then_size })))
        | _ -> bad ())
    | [ "assert_fresh"; addr; size ] -> (
        match (int addr, int size) with
        | Some addr, Some size -> Ok (Some (Event.Annotation (Event.Assert_fresh { addr; size })))
        | _ -> bad ())
    | [ "program_end" ] -> Ok (Some Event.Program_end)
    | _ -> bad ()
  end

(* ------------------------------------------------------------------ *)
(* Writing. The five hot kinds go out through a digit writer; the rare *)
(* kinds keep [event_to_line]. The bytes are the same either way.      *)
(* ------------------------------------------------------------------ *)

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_field buf n =
  Buffer.add_char buf ' ';
  if n >= 0 then add_digits buf n else Buffer.add_string buf (string_of_int n)

let add_line buf ev =
  (match ev with
  | Event.Store { addr; size; tid } ->
      Buffer.add_string buf "store";
      add_field buf tid;
      add_field buf addr;
      add_field buf size
  | Event.Clf { addr; size; kind; tid } ->
      Buffer.add_string buf "clf ";
      Buffer.add_string buf (kind_to_string kind);
      add_field buf tid;
      add_field buf addr;
      add_field buf size
  | Event.Fence { tid } ->
      Buffer.add_string buf "fence";
      add_field buf tid
  | Event.Epoch_begin { tid } ->
      Buffer.add_string buf "epoch_begin";
      add_field buf tid
  | Event.Epoch_end { tid } ->
      Buffer.add_string buf "epoch_end";
      add_field buf tid
  | ev -> Buffer.add_string buf (event_to_line ev));
  Buffer.add_char buf '\n'

let to_string trace =
  let buf = Buffer.create (Array.length trace * 16) in
  Array.iter (add_line buf) trace;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reading: one chunk scanner for files, strings and daemon sessions.  *)
(* Lines are decoded where they lie in the chunk; only a line cut by a *)
(* chunk boundary is copied, into the carry.                           *)
(* ------------------------------------------------------------------ *)

type scanner = {
  mutable carry : Bytes.t;
  mutable carry_len : int;  (* bytes of the unterminated line so far *)
  mutable lineno : int;  (* lines decoded so far *)
  mutable events : int;
  mutable ended : bool;  (* the last event decoded was program_end *)
  mutable pos : int;  (* the fast path's field cursor *)
}

let scanner () = { carry = Bytes.create 256; carry_len = 0; lineno = 0; events = 0; ended = false; pos = 0 }

let carried sc = sc.carry_len

let drop_carried sc = sc.carry_len <- 0

let ended sc = sc.ended

let is_digit c = c >= '0' && c <= '9'

(* A canonical field at [i]: 1 to 18 decimal digits (so it cannot
   overflow; [max_int] has 19), ending at [stop] when [last], else at
   one space, after which [sc.pos] is left. -1 for anything else, which
   sends the line to [event_of_line]. *)
let field sc buf i stop ~last =
  let j = ref i and n = ref 0 in
  while !j < stop && !j - i < 19 && is_digit (Bytes.unsafe_get buf !j) do
    n := (!n * 10) + Char.code (Bytes.unsafe_get buf !j) - 48;
    incr j
  done;
  let digits = !j - i in
  if digits = 0 || digits > 18 then -1
  else if last then if !j = stop then !n else -1
  else if !j < stop && Bytes.unsafe_get buf !j = ' ' then begin
    sc.pos <- !j + 1;
    !n
  end
  else -1

(* [w] is spelled at buf.[i] from its [k]th byte on. *)
let rec word buf i stop w k =
  k = String.length w || (i + k < stop && Bytes.unsafe_get buf (i + k) = String.unsafe_get w k && word buf i stop w (k + 1))

(* The fast path decodes canonical lines of the five hot kinds in place.
   It never yields [Program_end], so that constructor doubles as its
   "not canonical, ask [event_of_line]" answer without an option. *)
let no = Event.Program_end

let clf sc buf i stop kind =
  let tid = field sc buf i stop ~last:false in
  if tid < 0 then no
  else
    let addr = field sc buf sc.pos stop ~last:false in
    if addr < 0 then no
    else
      let size = field sc buf sc.pos stop ~last:true in
      if size < 0 then no else Event.Clf { addr; size; kind; tid }

let fast sc buf off stop =
  if off >= stop then no
  else
    match Bytes.unsafe_get buf off with
    | 's' when word buf off stop "store " 0 ->
        let tid = field sc buf (off + 6) stop ~last:false in
        if tid < 0 then no
        else
          let addr = field sc buf sc.pos stop ~last:false in
          if addr < 0 then no
          else
            let size = field sc buf sc.pos stop ~last:true in
            if size < 0 then no else Event.Store { addr; size; tid }
    | 'c' when word buf off stop "clf " 0 ->
        let i = off + 4 in
        if word buf i stop "clwb " 0 then clf sc buf (i + 5) stop Event.Clwb
        else if word buf i stop "clflush " 0 then clf sc buf (i + 8) stop Event.Clflush
        else if word buf i stop "clflushopt " 0 then clf sc buf (i + 11) stop Event.Clflushopt
        else no
    | 'f' when word buf off stop "fence " 0 ->
        let tid = field sc buf (off + 6) stop ~last:true in
        if tid < 0 then no else Event.Fence { tid }
    | 'e' when word buf off stop "epoch_begin " 0 ->
        let tid = field sc buf (off + 12) stop ~last:true in
        if tid < 0 then no else Event.Epoch_begin { tid }
    | 'e' when word buf off stop "epoch_end " 0 ->
        let tid = field sc buf (off + 10) stop ~last:true in
        if tid < 0 then no else Event.Epoch_end { tid }
    | _ -> no

let deliver sc ev len ~f ~ended =
  sc.events <- sc.events + 1;
  sc.ended <- ended;
  f ev len;
  true

(* One line, buf.[off, off + len) without its newline. Every line the
   fast path declines goes through [event_of_line] on a copy, so
   trimming, error text and rare kinds have one implementation. *)
let line sc buf off len ~f ~bad =
  sc.lineno <- sc.lineno + 1;
  match fast sc buf off (off + len) with
  | Event.Program_end -> (
      match event_of_line (Bytes.sub_string buf off len) with
      | Ok None -> true
      | Ok (Some ev) -> deliver sc ev len ~f ~ended:(match ev with Event.Program_end -> true | _ -> false)
      | Error msg -> bad sc.lineno msg)
  | ev -> deliver sc ev len ~f ~ended:false

(* The first newline at or after [i] and before [stop], or [stop].
   Bounded, unlike [Bytes.index_from]: a short read into a large reused
   buffer must not scan the stale bytes after it. *)
let rec newline buf i stop = if i >= stop || Bytes.unsafe_get buf i = '\n' then i else newline buf (i + 1) stop

let carry sc buf off len =
  let need = sc.carry_len + len in
  if need > Bytes.length sc.carry then begin
    let c = Bytes.create (max need (2 * Bytes.length sc.carry)) in
    Bytes.blit sc.carry 0 c 0 sc.carry_len;
    sc.carry <- c
  end;
  Bytes.blit buf off sc.carry sc.carry_len len;
  sc.carry_len <- need

let take_carry sc ~f ~bad =
  let n = sc.carry_len in
  sc.carry_len <- 0;
  line sc sc.carry 0 n ~f ~bad

let scan sc buf ~off ~len ~f ~bad =
  let stop = off + len in
  let rec lines i =
    let j = newline buf i stop in
    if j = stop then begin
      carry sc buf i (stop - i);
      true
    end
    else line sc buf i (j - i) ~f ~bad && lines (j + 1)
  in
  if sc.carry_len = 0 then lines off
  else begin
    let j = newline buf off stop in
    carry sc buf off (j - off);
    j = stop || (take_carry sc ~f ~bad && lines (j + 1))
  end

let finish sc ~f ~bad = sc.carry_len = 0 || take_carry sc ~f ~bad

(* A source runs a fresh scanner over its whole input; [Ok false] means
   [bad] stopped it. *)
let text_source text sc ~f ~bad =
  Ok (scan sc (Bytes.unsafe_of_string text) ~off:0 ~len:(String.length text) ~f ~bad && finish sc ~f ~bad)

(* Files are read in 64 KiB blocks and the channel is closed on every
   exit path: memory use is bounded by the longest line, never by the
   trace length, and a read error never leaks the descriptor. *)
let file_source path sc ~f ~bad =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic -> (
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let chunk = Bytes.create 65536 in
      let rec go () =
        match input ic chunk 0 (Bytes.length chunk) with
        | 0 -> finish sc ~f ~bad
        | n -> scan sc chunk ~off:0 ~len:n ~f ~bad && go ()
      in
      try Ok (go ()) with Sys_error msg -> Error msg)

type stream_stats = {
  events : int;
  skipped_lines : (int * string) list;
  synthesized : bool;
}

let strict source ~f =
  let err = ref "" in
  let bad lineno msg =
    err := Printf.sprintf "line %d: %s" lineno msg;
    false
  in
  match source (scanner ()) ~f:(fun ev _ -> f ev) ~bad with
  | Ok true -> Ok ()
  | Ok false -> Error !err
  | Error _ as e -> e

let lenient ~metrics ~synthesize_end ~on_skip source ~f =
  let sc = scanner () in
  let skipped = ref [] in
  let bad lineno msg =
    on_skip lineno msg;
    skipped := (lineno, msg) :: !skipped;
    true
  in
  Result.map
    (fun (_ : bool) ->
      Obs.Metrics.inc metrics ~by:sc.events "trace_io_lines_parsed_total";
      Obs.Metrics.inc metrics ~by:(List.length !skipped) "trace_io_lines_skipped_total";
      let synthesized = synthesize_end && not sc.ended in
      if synthesized then f Event.Program_end;
      { events = sc.events + Bool.to_int synthesized; skipped_lines = List.rev !skipped; synthesized })
    (source sc ~f:(fun ev _ -> f ev) ~bad)

(* [iter] with an accumulator in place of side effects. *)
let fold iter ~init ~f =
  let acc = ref init in
  Result.map (fun r -> (!acc, r)) (iter ~f:(fun ev -> acc := f !acc ev))

let rev_array acc = Array.of_list (List.rev acc)

let push acc ev = ev :: acc

let of_string text = Result.map (fun (acc, ()) -> rev_array acc) (fold (strict (text_source text)) ~init:[] ~f:push)

type lenient = { trace : Event.t array; skipped : (int * string) list; synthesized_end : bool }

let lenient_of_fold (acc, stats) =
  { trace = rev_array acc; skipped = stats.skipped_lines; synthesized_end = stats.synthesized }

let of_string_lenient ?(metrics = Obs.Metrics.disabled) ?(synthesize_end = true) text =
  lenient_of_fold
    (Result.get_ok
       (fold (lenient ~metrics ~synthesize_end ~on_skip:(fun _ _ -> ()) (text_source text)) ~init:[] ~f:push))

let iter_file ?(metrics = Obs.Metrics.disabled) ?(synthesize_end = true) ?(on_skip = fun _ _ -> ()) path ~f =
  lenient ~metrics ~synthesize_end ~on_skip (file_source path) ~f

let fold_file ?metrics ?synthesize_end ?on_skip path ~init ~f =
  fold (iter_file ?metrics ?synthesize_end ?on_skip path) ~init ~f

let iter_file_strict path ~f = strict (file_source path) ~f

let fold_file_strict path ~init ~f = Result.map fst (fold (iter_file_strict path) ~init ~f)

(* Binary mode, like every reader here: save/load roundtrips are
   byte-identical cross-platform (text mode would translate newlines on
   Windows and corrupt offsets against open_in_bin readers). Lines are
   built in a 64 KiB block; what a failing [produce] emitted is still
   written before the channel closes. *)
let save_stream path produce =
  let oc = open_out_bin path in
  let buf = Buffer.create 66000 in
  let n = ref 0 in
  let flush () =
    Buffer.output_buffer oc buf;
    Buffer.clear buf
  in
  Fun.protect
    ~finally:(fun () ->
      (try flush () with Sys_error _ -> ());
      close_out_noerr oc)
    (fun () ->
      produce (fun ev ->
          add_line buf ev;
          incr n;
          if Buffer.length buf >= 65536 then flush ());
      flush ());
  !n

let save path trace = ignore (save_stream path (fun emit -> Array.iter emit trace))

let load path = Result.map rev_array (fold_file_strict path ~init:[] ~f:push)

let load_lenient ?metrics ?synthesize_end path =
  Result.map lenient_of_fold (fold_file ?metrics ?synthesize_end path ~init:[] ~f:push)
